"""Prometheus text exposition: render a registry, strictly check output.

:func:`render_prometheus` serialises a :class:`~repro.obs.core.Registry`
(a live collector's or a report's) in the text exposition format (version 0.0.4):

* counters -> ``repro_<name>_total``,
* gauges -> ``repro_<name>``,
* histograms -> cumulative ``_bucket{le="..."}`` series plus ``_sum`` /
  ``_count`` (the standard Prometheus histogram encoding, quantiles left
  to the scraper),
* span aggregates -> summary-style ``_seconds_sum`` / ``_seconds_count``
  per span name.

Metric names are sanitised (every non-``[a-zA-Z0-9_]`` run becomes one
``_``), namespaced under ``repro_``, and deduplicated; each family gets
``# HELP`` and ``# TYPE`` lines.

:func:`check_exposition` is the strict parser the tests and the CI
metrics-smoke step run over scraped output: format violations come back
as a list of messages (empty = clean), including histogram-specific
invariants (bucket monotonicity, ``+Inf`` == ``_count``, no duplicate
series).  It is deliberately independent of the renderer's internals so
it doubles as an oracle.
"""

from __future__ import annotations

import math
import re

from repro.obs.core import Histogram, Registry

#: the Content-Type a /metrics response must carry
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITISE_RE = re.compile(r"[^a-zA-Z0-9_]+")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r"\s+(?P<value>\S+)(?:\s+\d+)?$"
)
_LABELS_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _metric_name(name: str, *, suffix: str = "") -> str:
    base = _SANITISE_RE.sub("_", name).strip("_").lower()
    return f"repro_{base}{suffix}"


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_histogram(lines: list[str], metric: str, hist: Histogram) -> None:
    cum = 0
    for bound, count in zip(hist.bounds, hist.counts):
        cum += count
        lines.append(f'{metric}_bucket{{le="{_fmt(bound)}"}} {cum}')
    cum += hist.counts[-1]
    lines.append(f'{metric}_bucket{{le="+Inf"}} {cum}')
    lines.append(f"{metric}_sum {_fmt(hist.sum)}")
    lines.append(f"{metric}_count {hist.count}")


def render_prometheus(tel: Registry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: list[str] = []
    seen: set[str] = set()

    def family(metric: str, kind: str, help_text: str) -> bool:
        if metric in seen:  # two registry names sanitising to one metric
            return False
        seen.add(metric)
        lines.append(f"# HELP {metric} {help_text}")
        lines.append(f"# TYPE {metric} {kind}")
        return True

    for name in sorted(tel.counters):
        metric = _metric_name(name, suffix="_total")
        if family(metric, "counter", f"repro counter {name}"):
            lines.append(f"{metric} {_fmt(tel.counters[name])}")
    for name in sorted(tel.gauges):
        metric = _metric_name(name)
        if family(metric, "gauge", f"repro gauge {name}"):
            lines.append(f"{metric} {_fmt(tel.gauges[name])}")
    for name in sorted(tel.histograms):
        metric = _metric_name(name)
        if family(metric, "histogram", f"repro histogram {name}"):
            _render_histogram(lines, metric, tel.histograms[name])
    for name in sorted(tel.spans):
        stats = tel.spans[name]
        metric = _metric_name(name, suffix="_seconds")
        if family(metric, "summary", f"repro span {name} wall clock"):
            lines.append(f"{metric}_sum {_fmt(round(stats.wall_s, 6))}")
            lines.append(f"{metric}_count {stats.count}")
    return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
# strict exposition-format checker (the CI metrics-smoke oracle)
# ----------------------------------------------------------------------
def _parse_value(text: str) -> float | None:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        return None


def _base_family(sample_name: str, families: dict[str, str]) -> str | None:
    """The declared family a sample belongs to (histograms/summaries
    expose ``_bucket``/``_sum``/``_count`` children)."""
    if sample_name in families:
        return sample_name
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix) and sample_name[: -len(suffix)] in families:
            return sample_name[: -len(suffix)]
    return None


def check_exposition(text: str) -> list[str]:
    """Strictly parse Prometheus text exposition output.

    Returns violation messages (empty list = clean):

    * every sample belongs to a family declared by ``# TYPE`` (and the
      child suffix matches the declared type),
    * ``# HELP`` precedes samples of its family, names are legal,
    * sample values parse as floats (``+Inf``/``-Inf``/``NaN`` allowed),
    * no duplicate ``(name, labels)`` series,
    * histogram invariants: bucket counts cumulative (non-decreasing in
      ``le`` order), a ``+Inf`` bucket present and equal to ``_count``,
      ``_sum``/``_count`` present.
    """
    errors: list[str] = []
    families: dict[str, str] = {}
    helped: set[str] = set()
    series_seen: set[tuple[str, str]] = set()
    #: family -> list of (le, cumulative count) in appearance order
    buckets: dict[str, list[tuple[float, float]]] = {}
    hist_sum: dict[str, float] = {}
    hist_count: dict[str, float] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3:
                errors.append(f"line {lineno}: malformed HELP line")
                continue
            helped.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                errors.append(f"line {lineno}: malformed TYPE line")
                continue
            name, kind = parts[2], parts[3]
            if not _NAME_RE.match(name):
                errors.append(f"line {lineno}: illegal metric name {name!r}")
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                errors.append(f"line {lineno}: unknown metric type {kind!r}")
            if name in families:
                errors.append(f"line {lineno}: duplicate TYPE for {name}")
            families[name] = kind
            continue
        if line.startswith("#"):
            continue  # comment
        m = _SAMPLE_RE.match(line)
        if m is None:
            errors.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        sample_name = m.group("name")
        labels_text = m.group("labels") or ""
        value = _parse_value(m.group("value"))
        if value is None:
            errors.append(
                f"line {lineno}: bad sample value {m.group('value')!r}"
            )
            continue
        family = _base_family(sample_name, families)
        if family is None:
            errors.append(
                f"line {lineno}: sample {sample_name} has no TYPE declaration"
            )
            continue
        if family not in helped:
            errors.append(f"line {lineno}: family {family} has no HELP line")
        kind = families[family]
        if sample_name != family and kind not in ("histogram", "summary"):
            errors.append(
                f"line {lineno}: {kind} family {family} cannot expose "
                f"child sample {sample_name}"
            )
        key = (sample_name, labels_text)
        if key in series_seen:
            errors.append(
                f"line {lineno}: duplicate series {sample_name}{labels_text}"
            )
        series_seen.add(key)
        if kind == "histogram":
            labels = dict(_LABELS_RE.findall(labels_text))
            if sample_name.endswith("_bucket"):
                le = _parse_value(labels.get("le", ""))
                if le is None:
                    errors.append(
                        f"line {lineno}: histogram bucket without a "
                        f"parseable le label: {line!r}"
                    )
                else:
                    buckets.setdefault(family, []).append((le, value))
            elif sample_name.endswith("_sum"):
                hist_sum[family] = value
            elif sample_name.endswith("_count"):
                hist_count[family] = value

    for family, rows in buckets.items():
        les = [le for le, _ in rows]
        if les != sorted(les):
            errors.append(f"histogram {family}: buckets not in le order")
        counts = [c for _, c in rows]
        if any(b < a for a, b in zip(counts, counts[1:])):
            errors.append(
                f"histogram {family}: bucket counts are not cumulative"
            )
        if not les or les[-1] != math.inf:
            errors.append(f"histogram {family}: missing the +Inf bucket")
        elif family in hist_count and counts[-1] != hist_count[family]:
            errors.append(
                f"histogram {family}: +Inf bucket {counts[-1]:g} != "
                f"_count {hist_count[family]:g}"
            )
        if family not in hist_sum:
            errors.append(f"histogram {family}: missing _sum")
        if family not in hist_count:
            errors.append(f"histogram {family}: missing _count")
    for family, kind in families.items():
        if kind == "histogram" and family not in buckets:
            errors.append(f"histogram {family}: declared but has no buckets")
    return errors


def parse_samples(text: str) -> dict[str, dict[str, float]]:
    """``{sample_name: {labels_text: value}}`` -- a convenience view for
    tests asserting on specific series (labels text normalised verbatim)."""
    out: dict[str, dict[str, float]] = {}
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            continue
        value = _parse_value(m.group("value"))
        if value is None:
            continue
        out.setdefault(m.group("name"), {})[m.group("labels") or ""] = value
    return out


__all__: list[str] = [
    "CONTENT_TYPE",
    "check_exposition",
    "parse_samples",
    "render_prometheus",
]
