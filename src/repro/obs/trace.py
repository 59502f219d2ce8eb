"""W3C-style trace context: ids, carriers, inject/extract.

One verification request that fans out -- client -> serve event loop ->
batch thread -> campaign pool worker -- leaves events in several
processes.  A :class:`TraceContext` names the request (``trace_id``) and
the emitting position in its call tree (``span_id``); every event
carries the trace id and every span event carries globally unique span
ids (see ``repro.obs.schema`` v2), so merged streams reassemble into one
tree with ``repro telemetry trace``.

Two carriers move a context across process/host boundaries:

* the ``X-Repro-Trace`` HTTP header (W3C ``traceparent`` shaped:
  ``00-<32 hex trace>-<16 hex span>-01``), injected by
  :class:`~repro.serve.client.ServeClient` and extracted by the server;
* the ``REPRO_TRACE`` environment variable (same format), inherited by
  campaign pool workers spawned under an active trace.  Per-task
  carriers (one batch can hold tasks from different requests) travel as
  plain strings through :func:`~repro.campaign.runner.run_campaign`.

Lenient :func:`extract_traceparent` returns ``None`` on anything
malformed -- a bad header must never fail a request -- while the strict
:func:`parse_traceparent` raises for callers that own the string.
"""

from __future__ import annotations

import os
import re
from collections.abc import Mapping
from dataclasses import dataclass

#: HTTP header carrying the context between serve client and server
TRACE_HEADER = "X-Repro-Trace"
#: environment carrier inherited by spawned worker processes
TRACE_ENV = "REPRO_TRACE"

_TRACEPARENT_RE = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$"
)


def new_trace_id() -> str:
    """A fresh 32-hex-digit trace id (nonzero, collision-negligible)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 16-hex-digit span id."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """A position in a distributed trace: which request, which parent."""

    trace_id: str
    span_id: str

    def __post_init__(self) -> None:
        if not re.fullmatch(r"[0-9a-f]{32}", self.trace_id):
            raise ValueError(
                f"trace_id must be 32 lowercase hex digits, got {self.trace_id!r}"
            )
        if not re.fullmatch(r"[0-9a-f]{16}", self.span_id):
            raise ValueError(
                f"span_id must be 16 lowercase hex digits, got {self.span_id!r}"
            )

    def child(self) -> TraceContext:
        """Same trace, fresh span id (the context a new child span gets)."""
        return TraceContext(self.trace_id, new_span_id())


def new_context() -> TraceContext:
    """A root context for a fresh trace."""
    return TraceContext(new_trace_id(), new_span_id())


def format_traceparent(ctx: TraceContext) -> str:
    """``00-<trace>-<span>-01``: the header/env wire format."""
    return f"00-{ctx.trace_id}-{ctx.span_id}-01"


def parse_traceparent(text: str) -> TraceContext:
    """Strict parse; raises :class:`ValueError` on malformed input."""
    m = _TRACEPARENT_RE.match(text.strip().lower())
    if m is None:
        raise ValueError(
            f"malformed traceparent {text!r} "
            "(want 00-<32 hex>-<16 hex>-<2 hex>)"
        )
    return TraceContext(m.group(1), m.group(2))


def extract_traceparent(text: str | None) -> TraceContext | None:
    """Lenient parse: ``None`` on missing/malformed (never raises)."""
    if not text or not isinstance(text, str):
        return None
    try:
        return parse_traceparent(text)
    except ValueError:
        return None


def inject_env(ctx: TraceContext, env: dict[str, str] | None = None) -> None:
    """Write the carrier into ``env`` (default ``os.environ``) so spawned
    worker processes inherit the trace."""
    (os.environ if env is None else env)[TRACE_ENV] = format_traceparent(ctx)


def extract_env(env: Mapping[str, str] | None = None) -> TraceContext | None:
    """Read the carrier back (lenient); ``None`` when absent/malformed."""
    source = os.environ if env is None else env
    return extract_traceparent(source.get(TRACE_ENV))


__all__ = [
    "TRACE_ENV",
    "TRACE_HEADER",
    "TraceContext",
    "extract_env",
    "extract_traceparent",
    "format_traceparent",
    "inject_env",
    "new_context",
    "new_span_id",
    "new_trace_id",
]
