"""Summarise a telemetry JSONL event stream (``repro telemetry report``).

The summariser rebuilds everything from the events alone -- counters are
re-summed from ``counter`` events, span aggregates from ``span_end``
events, histograms from ``hist`` observations -- so it doubles as an
end-to-end check that the stream is self-sufficient.  For campaign
streams it reproduces the ledger's numbers without the ledger: per-task
wall times come from the ``campaign.task`` spans and the cache hit rate
from the ``campaign.cache.*`` counters.

``repro telemetry trace`` is built on :func:`build_span_tree`: schema v2
events carry globally unique ``sid``/``psid`` span ids, so any merged
mix of serve/worker/CLI streams reassembles into one rooted tree per
``trace`` id.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.core import Histogram, SpanStats
from repro.obs.schema import validate_event

#: span name the campaign runner emits once per finalized task
CAMPAIGN_TASK_SPAN = "campaign.task"

#: per-engine phase-second counters (see docs/OBSERVABILITY.md):
#: ``<engine>path.phase.<phase>_s``
_PHASE_COUNTER_RE = re.compile(r"^(fast|kernel)path\.phase\.(\w+)_s$")


class EventStreamError(Exception):
    """A named defect in an events file: missing, empty, or unreadable.

    Raised by :func:`read_events`/:func:`summarize` so CLI commands can
    print one clear line instead of a traceback.
    """


@dataclass
class TelemetryReport:
    """Everything the summariser recovered from one event stream."""

    path: str
    events: int = 0
    unparseable_lines: int = 0
    #: (event index, violation) pairs from the schema validator
    invalid: list[tuple[int, str]] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)
    spans: dict[str, SpanStats] = field(default_factory=dict)
    #: campaign.task span attrs + duration, in emission order
    tasks: list[dict[str, Any]] = field(default_factory=list)
    run_names: list[str] = field(default_factory=list)
    #: distinct trace ids in first-seen order
    traces: list[str] = field(default_factory=list)

    @property
    def schema_valid(self) -> bool:
        return not self.invalid and not self.unparseable_lines

    def task_wall_times(self) -> dict[str, float]:
        """Latest wall time per task name, reproduced from events alone."""
        out: dict[str, float] = {}
        for task in self.tasks:
            out[str(task.get("name", ""))] = float(task.get("dur_s", 0.0))
        return out

    def cache_hit_rate(self) -> float | None:
        """hits / lookups from the campaign counters; None without a cache."""
        hits = self.counters.get("campaign.cache.hits", 0)
        lookups = hits + self.counters.get("campaign.cache.misses", 0)
        if not lookups:
            return None
        return hits / lookups

    def engine_fallbacks(self) -> dict[str, float]:
        """Nonzero engine-fallback counts.

        Every ``*.fallback.*`` counter: ``search.engine.fallback.fast``
        (no accelerated kernel backend, so the default engine fell back to
        fast) and ``kernelpath.fallback.searches`` (a spec too wide for the
        kernel) -- searches that lost their speedup.  Empty when every
        search ran on its chosen engine.
        """
        return {
            k: v for k, v in self.counters.items() if ".fallback." in k and v
        }

    def certificate_activity(self) -> dict[str, float]:
        """Nonzero certificate-layer counters (witness emission, replay,
        adaptive decisions), keyed without the ``lint.certificate.`` prefix."""
        prefix = "lint.certificate."
        return {
            k[len(prefix):]: v
            for k, v in self.counters.items()
            if k.startswith(prefix) and v
        }

    def engine_phases(self) -> dict[str, dict[str, float]]:
        """Per-engine per-phase seconds, ``{engine: {phase: seconds}}``,
        from the ``<engine>path.phase.<phase>_s`` profiling counters."""
        out: dict[str, dict[str, float]] = {}
        for name, value in self.counters.items():
            m = _PHASE_COUNTER_RE.match(name)
            if m is not None and value:
                out.setdefault(m.group(1), {})[m.group(2)] = value
        return out

    def to_json(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "events": self.events,
            "unparseable_lines": self.unparseable_lines,
            "invalid": [list(pair) for pair in self.invalid],
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                k: self.histograms[k].summary() for k in sorted(self.histograms)
            },
            "spans": {k: self.spans[k].to_json() for k in sorted(self.spans)},
            "tasks": self.tasks,
            "traces": self.traces,
            "cache_hit_rate": self.cache_hit_rate(),
            "engine_fallbacks": dict(sorted(self.engine_fallbacks().items())),
            "engine_phases": {
                k: dict(sorted(v.items()))
                for k, v in sorted(self.engine_phases().items())
            },
            "certificate_activity": dict(
                sorted(self.certificate_activity().items())
            ),
        }


def read_events(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """Parsed events plus the count of unparseable lines (crash tails).

    Raises :class:`EventStreamError` (a named defect, not a traceback)
    when the file is missing, empty, or contains no parseable events at
    all -- a truncated-mid-line tail on an otherwise healthy stream is
    tolerated and returned in the bad-line count instead.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise EventStreamError(
            f"events file not found: {path} "
            "(record one with --telemetry PATH)"
        ) from None
    except IsADirectoryError:
        raise EventStreamError(f"{path} is a directory, not an events file") from None
    except OSError as exc:
        raise EventStreamError(f"cannot read events file {path}: {exc}") from None
    if not text.strip():
        raise EventStreamError(
            f"events file is empty: {path} "
            "(the recording run emitted nothing, or was killed before its "
            "first event flushed)"
        )
    events: list[dict[str, Any]] = []
    bad = 0
    for raw in text.splitlines():
        raw = raw.strip()
        if not raw:
            continue
        try:
            event = json.loads(raw)
        except ValueError:
            bad += 1
            continue
        if isinstance(event, dict):
            events.append(event)
        else:
            bad += 1
    if not events:
        raise EventStreamError(
            f"events file has no parseable events: {path} "
            f"({bad} unparseable line{'s' if bad != 1 else ''} -- truncated "
            "mid-line or not a telemetry JSONL stream?)"
        )
    return events, bad


def summarize(path: str | Path) -> TelemetryReport:
    """Validate and aggregate one JSONL event stream."""
    events, bad = read_events(path)
    report = TelemetryReport(path=str(path), events=len(events), unparseable_lines=bad)
    fold_events(report, events)
    return report


def fold_events(report: TelemetryReport, events: list[dict[str, Any]]) -> None:
    """Aggregate ``events`` into ``report`` (the tail rollup reuses this
    incrementally)."""
    base = report.events - len(events) if report.events >= len(events) else 0
    for i, event in enumerate(events, start=base):
        errors = validate_event(event)
        if errors:
            report.invalid.extend((i, err) for err in errors)
            continue
        trace = event.get("trace")
        if isinstance(trace, str) and trace not in report.traces:
            report.traces.append(trace)
        kind, name = event["kind"], event["name"]
        if kind == "counter":
            report.counters[name] = report.counters.get(name, 0) + event["value"]
        elif kind == "gauge":
            report.gauges[name] = event["value"]
        elif kind == "hist":
            hist = report.histograms.get(name)
            if hist is None:
                hist = report.histograms[name] = Histogram()
            hist.observe(event["value"])
        elif kind == "span_end":
            report.spans.setdefault(name, SpanStats()).add(event["dur_s"])
            if name == CAMPAIGN_TASK_SPAN:
                report.tasks.append({**event["attrs"], "dur_s": event["dur_s"]})
        elif kind in ("run_start", "run_end"):
            if name not in report.run_names:
                report.run_names.append(name)


# ----------------------------------------------------------------------
# span trees (``repro telemetry trace``)
# ----------------------------------------------------------------------
@dataclass
class SpanNode:
    """One reassembled span in a trace tree."""

    sid: str
    name: str
    psid: str | None = None
    start_t: float | None = None
    dur_s: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list[SpanNode] = field(default_factory=list)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def to_json(self) -> dict[str, Any]:
        return {
            "sid": self.sid,
            "psid": self.psid,
            "name": self.name,
            "start_t": self.start_t,
            "dur_s": self.dur_s,
            "attrs": self.attrs,
            "children": [c.to_json() for c in self.children],
        }


def trace_ids(events: list[dict[str, Any]]) -> dict[str, int]:
    """``{trace_id: span count}`` over a parsed stream, first-seen order."""
    out: dict[str, int] = {}
    for event in events:
        trace = event.get("trace")
        if isinstance(trace, str):
            if event.get("kind") == "span_start":
                out[trace] = out.get(trace, 0) + 1
            else:
                out.setdefault(trace, 0)
    return out


def build_span_tree(
    events: list[dict[str, Any]], trace_id: str
) -> list[SpanNode]:
    """Reassemble one trace's span tree from any merged v2 stream.

    Spans pair by globally unique ``sid`` (``span_start`` gives the start
    time and attrs, ``span_end`` the duration and final attrs); parentage
    follows ``psid``.  Returns the list of roots -- a single connected
    request yields exactly one.  Spans whose parent never appears in the
    stream (e.g. a worker stream read without the serve stream) become
    roots, so partial merges still render.
    """
    nodes: dict[str, SpanNode] = {}
    order: list[str] = []
    for event in events:
        if event.get("trace") != trace_id:
            continue
        kind = event.get("kind")
        if kind not in ("span_start", "span_end"):
            continue
        sid = event.get("sid")
        if not isinstance(sid, str):
            continue
        node = nodes.get(sid)
        if node is None:
            node = nodes[sid] = SpanNode(sid=sid, name=str(event.get("name", "")))
            order.append(sid)
        psid = event.get("psid")
        if isinstance(psid, str):
            node.psid = psid
        if kind == "span_start":
            t = event.get("t")
            if isinstance(t, (int, float)):
                node.start_t = float(t)
            attrs = event.get("attrs")
            if isinstance(attrs, dict):
                node.attrs.update(attrs)
        else:
            dur = event.get("dur_s")
            if isinstance(dur, (int, float)):
                node.dur_s = float(dur)
            attrs = event.get("attrs")
            if isinstance(attrs, dict):
                node.attrs.update(attrs)
    roots: list[SpanNode] = []
    for sid in order:
        node = nodes[sid]
        parent = nodes.get(node.psid) if node.psid is not None else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: (n.start_t is None, n.start_t or 0.0))
    return roots


def render_span_tree(roots: list[SpanNode], trace_id: str) -> str:
    """An indented text rendering of one trace's span tree."""
    lines = [f"trace {trace_id}"]

    def fmt(node: SpanNode, depth: int) -> None:
        dur = f" {node.dur_s * 1000:.1f}ms" if node.dur_s is not None else ""
        keys = ("endpoint", "kind", "scenario", "name", "verdict", "source",
                "engine", "spec")
        annot = ", ".join(
            f"{k}={node.attrs[k]}" for k in keys
            if node.attrs.get(k) not in (None, "")
        )
        annot = f" [{annot}]" if annot else ""
        lines.append(f"{'  ' * (depth + 1)}{node.name}{dur}{annot}")
        for child in node.children:
            fmt(child, depth + 1)

    for root in roots:
        fmt(root, 0)
    return "\n".join(lines)


def render(report: TelemetryReport, *, top: int = 10) -> str:
    """Human-readable summary (the default ``telemetry report`` output)."""
    from repro.experiments import render_kv, render_table

    head: dict[str, Any] = {
        "stream": report.path,
        "events": report.events,
        "schema violations": len(report.invalid),
        "unparseable lines": report.unparseable_lines,
    }
    if report.run_names:
        head["runs"] = ", ".join(report.run_names)
    if report.traces:
        head["traces"] = len(report.traces)
    hit_rate = report.cache_hit_rate()
    if hit_rate is not None:
        head["campaign cache hit rate"] = f"{hit_rate:.0%}"
    fallbacks = report.engine_fallbacks()
    if fallbacks:
        head["engine fallbacks"] = ", ".join(
            f"{k}={v:g}" for k, v in sorted(fallbacks.items())
        )
    certs = report.certificate_activity()
    if certs:
        head["certificate activity"] = ", ".join(
            f"{k}={v:g}" for k, v in sorted(certs.items())
        )
    parts = [render_kv(head, title="telemetry report")]

    if report.spans:
        rows = [
            {
                "span": name,
                "count": stats.count,
                "total (s)": round(stats.wall_s, 3),
                "mean (s)": round(stats.wall_s / stats.count, 4),
                "max (s)": round(stats.max_s, 4),
            }
            for name, stats in sorted(
                report.spans.items(), key=lambda kv: -kv[1].wall_s
            )
        ]
        parts.append(render_table(rows, title="spans"))

    if report.histograms:
        rows = []
        for name in sorted(report.histograms):
            s = report.histograms[name].summary()
            if not s.get("count"):
                continue
            rows.append(
                {
                    "histogram": name,
                    "count": s["count"],
                    "mean": round(s["mean"], 5),
                    "p50": round(s["p50"], 5),
                    "p95": round(s["p95"], 5),
                    "p99": round(s["p99"], 5),
                    "max": round(s["max"], 5),
                }
            )
        if rows:
            parts.append(render_table(rows, title="histograms (bucket quantiles)"))

    phases = report.engine_phases()
    if phases:
        rows = [
            {"engine": engine, "phase": phase, "seconds": round(seconds, 4)}
            for engine in sorted(phases)
            for phase, seconds in sorted(
                phases[engine].items(), key=lambda kv: -kv[1]
            )
        ]
        parts.append(render_table(rows, title="engine phase profile"))

    if report.counters:
        parts.append(
            render_kv(
                {k: round(v, 6) for k, v in sorted(report.counters.items())},
                title="counters",
            )
        )

    walls = report.task_wall_times()
    if walls:
        ranked = sorted(walls.items(), key=lambda kv: -kv[1])[:top]
        rows = [{"task": name, "wall (s)": round(w, 3)} for name, w in ranked]
        parts.append(render_table(rows, title=f"slowest campaign tasks (top {top})"))

    if report.invalid:
        lines = [
            f"  event {i}: {err}" for i, err in report.invalid[:20]
        ]
        if len(report.invalid) > 20:
            lines.append(f"  ... ({len(report.invalid) - 20} more)")
        parts.append("schema violations:\n" + "\n".join(lines))
    return "\n\n".join(parts)
