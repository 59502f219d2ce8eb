"""Unified telemetry: spans, counters, JSONL event export.

The whole subsystem hangs off one gate, :func:`get`:

* ``REPRO_TELEMETRY`` unset/off (the default): :func:`get` returns
  ``None`` without allocating anything.  An instrumented boundary opens
  :func:`span` once around its one body; off, that is the shared
  :data:`~repro.obs.core.INERT_SPAN`, whose calls do nothing.  This is
  the provably-negligible disabled mode the benchmark gate relies on.
  A lone counter bump goes through :func:`incr`, which is the same
  check.
* ``REPRO_TELEMETRY=on`` (or a CLI ``--telemetry PATH``, which opens a
  :func:`session` so worker processes inherit the variable): :func:`get`
  lazily creates a process-wide :class:`~repro.obs.core.Telemetry`
  collector.  Attach a :class:`~repro.obs.export.JsonlExporter` sink to
  stream events; with no sinks the collector still aggregates (campaign
  workers embed their registry deltas in task results instead of
  exporting).

See ``docs/OBSERVABILITY.md`` for the span/counter model and the event
schema.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import AbstractContextManager, contextmanager
from typing import Any

from repro.obs.core import (
    EVENT_SCHEMA_VERSION,
    HISTOGRAM_BOUNDS,
    INERT_SPAN,
    Histogram,
    InertSpan,
    Mark,
    Registry,
    Sink,
    Span,
    SpanStats,
    Telemetry,
)
from repro.obs.export import (
    SNAPSHOT_SCHEMA,
    JsonlExporter,
    snapshot_report,
    write_snapshot,
)
from repro.obs.prom import (
    CONTENT_TYPE as PROM_CONTENT_TYPE,
)
from repro.obs.prom import (
    check_exposition,
    render_prometheus,
)
from repro.obs.schema import (
    ACCEPTED_VERSIONS,
    EVENT_KINDS,
    validate_event,
    validate_stream,
)
from repro.obs.trace import (
    TRACE_ENV,
    TRACE_HEADER,
    TraceContext,
    extract_env,
    extract_traceparent,
    format_traceparent,
    inject_env,
    new_context,
    parse_traceparent,
)

__all__ = [
    "ACCEPTED_VERSIONS",
    "EVENT_KINDS",
    "EVENT_SCHEMA_VERSION",
    "HISTOGRAM_BOUNDS",
    "INERT_SPAN",
    "PROM_CONTENT_TYPE",
    "SNAPSHOT_SCHEMA",
    "TRACE_ENV",
    "TRACE_HEADER",
    "Histogram",
    "InertSpan",
    "JsonlExporter",
    "Mark",
    "Registry",
    "Span",
    "SpanStats",
    "Telemetry",
    "TraceContext",
    "check_exposition",
    "configure",
    "enabled",
    "extract_env",
    "extract_traceparent",
    "format_traceparent",
    "get",
    "incr",
    "inject_env",
    "new_context",
    "parse_traceparent",
    "render_prometheus",
    "reset",
    "scope",
    "session",
    "snapshot_report",
    "span",
    "validate_event",
    "validate_stream",
    "write_snapshot",
]

ENV_VAR = "REPRO_TELEMETRY"
_TRUTHY = ("on", "1", "true", "yes")

#: the process-wide collector; stays None until telemetry is enabled
_active: Telemetry | None = None


def enabled() -> bool:
    """Whether the ``REPRO_TELEMETRY`` environment variable is on."""
    return os.environ.get(ENV_VAR, "off").strip().lower() in _TRUTHY


def get() -> Telemetry | None:
    """The process collector, or ``None`` when telemetry is disabled.

    This is the only call instrumented code makes on its boundary path.
    Disabled mode allocates nothing: no collector, no exporter, no
    event dicts -- just this env lookup per instrumented call (never
    per explored state; hot loops are not instrumented at all).
    """
    global _active
    if _active is not None:
        return _active
    if not enabled():
        return None
    _active = Telemetry()
    return _active


def incr(name: str, value: float = 1, /) -> None:
    """Add ``value`` to counter ``name`` on the process collector, if any.

    The counting call for code that has no collector in hand: with
    telemetry off it is the :func:`get` check and allocates nothing.
    """
    tel = get()
    if tel is not None:
        tel.incr(name, value)


def configure(tel: Telemetry | None) -> Telemetry | None:
    """Install ``tel`` as the process collector; returns the previous one."""
    global _active
    prev = _active
    _active = tel
    return prev


def reset() -> None:
    """Drop the process collector (tests)."""
    configure(None)


@contextmanager
def scope(tel: Telemetry) -> Iterator[Telemetry]:
    """Temporarily install ``tel`` as the process collector."""
    prev = configure(tel)
    try:
        yield tel
    finally:
        configure(prev)


def span(name: str, /, **attrs: Any) -> AbstractContextManager[Span | InertSpan]:
    """Open the span of one instrumented boundary.

    With telemetry on, the process collector's :meth:`Telemetry.span`;
    off, the shared :data:`INERT_SPAN`, which allocates nothing and
    records nothing.  Either way the boundary runs its body once inside
    it and records through the yielded span.
    """
    tel = get()
    if tel is None:
        return INERT_SPAN
    return tel.span(name, **attrs)


def _restore_env(name: str, value: str | None) -> None:
    if value is None:
        os.environ.pop(name, None)
    else:
        os.environ[name] = value


@contextmanager
def session(*sinks: Sink, run_id: str = "") -> Iterator[Telemetry]:
    """Telemetry on for the body of the ``with``: the one setup of the
    CLI's ``--telemetry`` flags and of ``repro serve``.

    Sets ``REPRO_TELEMETRY=on`` (so worker processes started inside
    inherit it), installs a fresh collector with ``sinks`` attached and
    yields it.  On the way out, however the body ends, it detaches the
    sinks and closes those that have a ``close()``, reinstalls the
    previous collector and restores ``REPRO_TELEMETRY`` and the
    ``REPRO_TRACE`` carrier to what they were.
    """
    prev_env = os.environ.get(ENV_VAR)
    prev_trace = os.environ.get(TRACE_ENV)
    os.environ[ENV_VAR] = "on"
    tel = Telemetry(run_id=run_id)
    for sink in sinks:
        tel.add_sink(sink)
    try:
        with scope(tel):
            yield tel
    finally:
        for sink in sinks:
            tel.remove_sink(sink)
            close = getattr(sink, "close", None)
            if callable(close):
                close()
        _restore_env(TRACE_ENV, prev_trace)
        _restore_env(ENV_VAR, prev_env)
