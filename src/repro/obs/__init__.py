"""Unified telemetry: spans, counters, JSONL event export.

The whole subsystem hangs off one gate, :func:`get`:

* ``REPRO_TELEMETRY`` unset/off (the default): :func:`get` returns
  ``None`` without allocating anything -- instrumented call sites do one
  ``if tel is None`` check and run their original bodies untouched.
  This is the provably-negligible disabled mode the benchmark gate
  relies on.  A lone counter bump goes through :func:`incr`, which is
  that same check.
* ``REPRO_TELEMETRY=on`` (or a CLI ``--telemetry PATH``, which sets the
  variable so worker processes inherit it): :func:`get` lazily creates
  a process-wide :class:`~repro.obs.core.Telemetry` collector.  Attach
  a :class:`~repro.obs.export.JsonlExporter` sink to stream events;
  with no sinks the collector still aggregates (campaign workers embed
  their registry deltas in task results instead of exporting).

See ``docs/OBSERVABILITY.md`` for the span/counter model and the event
schema.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager

from repro.obs.core import (
    EVENT_SCHEMA_VERSION,
    HISTOGRAM_BOUNDS,
    Histogram,
    Mark,
    Registry,
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
    "PROM_CONTENT_TYPE",
    "SNAPSHOT_SCHEMA",
    "TRACE_ENV",
    "TRACE_HEADER",
    "Histogram",
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
    "snapshot_report",
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
    """Drop the process collector (tests; end of a CLI telemetry session)."""
    configure(None)


@contextmanager
def scope(tel: Telemetry) -> Iterator[Telemetry]:
    """Temporarily install ``tel`` as the process collector."""
    prev = configure(tel)
    try:
        yield tel
    finally:
        configure(prev)
