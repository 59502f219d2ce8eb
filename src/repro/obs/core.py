"""Telemetry core: nested spans, counters/gauges/histograms, event sinks.

One :class:`Telemetry` instance collects everything a run produces:

* **spans** -- named, nested timing scopes.  The current span is tracked
  in a :class:`contextvars.ContextVar`, so nesting follows the call stack
  (and stays correct under ``asyncio`` or thread pools that copy
  context).  Every span emits a ``span_start``/``span_end`` event pair.
* **counters** -- monotonic named sums (``incr``), one ``counter`` event
  per increment.
* **gauges** -- last-value-wins measurements (``gauge``).
* **histograms** -- bucketed distributions (``observe``): fixed
  exponential buckets, mergeable across processes, with p50/p95/p99
  derivable from the bucket counts alone (see :class:`Histogram`).

The registry (counter sums, gauges, histograms, per-name span
aggregates) is a fold of the events: :meth:`Registry.fold` is the one
piece of code that updates it, run on every emitted event by the live
collector and on every read event by ``repro telemetry report`` and
``tail``, so the live registry always equals the stream's.

Every event is stamped with a **trace context** (schema v2): a 32-hex
``trace`` id naming the originating request, and -- on span events --
globally unique 16-hex ``sid``/``psid`` span ids, so event streams from
different processes merge into one span tree (``repro telemetry
trace``).  A context crosses process boundaries via the carriers in
:mod:`repro.obs.trace`; :meth:`Telemetry.activate` installs an extracted
remote parent so locally opened spans attach under it.

Events are plain dicts (see :mod:`repro.obs.schema` for the documented
shape) pushed to every attached *sink* -- a callable taking the event
dict.  With no sinks attached, collection still aggregates (that is what
campaign worker processes do: no exporter, just a summary embedded in the
task result).

The module deliberately imports nothing beyond the standard library (and
the equally stdlib-only :mod:`repro.obs.trace`) so instrumented hot
layers (analysis, sim) can import it unconditionally.  Enabled/disabled
gating lives in :mod:`repro.obs` (the package ``__init__``): disabled
mode never constructs a ``Telemetry`` at all.
"""

from __future__ import annotations

import itertools
import math
import time
from bisect import bisect_left
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any

from repro.obs.trace import TraceContext, new_span_id, new_trace_id

#: version stamped into every event as ``v`` (see repro.obs.schema)
EVENT_SCHEMA_VERSION = 2

Sink = Callable[[dict[str, Any]], None]

#: fixed exponential histogram bucket upper bounds: powers of two from
#: 2^-20 (~1 microsecond when observing seconds) to 2^20 (~12 days).
#: Fixed so histograms recorded by different processes merge bucket-wise.
HISTOGRAM_BOUNDS: tuple[float, ...] = tuple(
    float(2.0**e) for e in range(-20, 21)
)


class Histogram:
    """A mergeable exponential-bucket histogram.

    ``counts[i]`` counts observations ``v`` with ``v <= bounds[i]``
    (and ``v > bounds[i-1]``); the final slot is the ``+Inf`` overflow
    bucket.  ``count``/``sum`` give the exact mean; ``min``/``max`` are
    tracked for reporting.  :meth:`quantile` needs only the bucket
    counts, so quantiles survive JSON round trips and cross-process
    merges -- the upper bound of the bucket containing the target rank
    is returned (the overflow bucket reports the tracked ``max``).
    """

    __slots__ = ("counts", "count", "sum", "min", "max")

    bounds: tuple[float, ...] = HISTOGRAM_BOUNDS

    def __init__(self) -> None:
        self.counts: list[int] = [0] * (len(self.bounds) + 1)
        self.count: int = 0
        self.sum: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: Histogram) -> Histogram:
        """Fold ``other`` into this histogram (bucket-wise); returns self."""
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        return self

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 < q <= 1) from bucket counts alone.

        Returns the upper bound of the bucket holding the ``ceil(q *
        count)``-th observation; ``nan`` when empty.  Error is bounded by
        the bucket's width (a factor of two).
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return math.nan
        target = math.ceil(q * self.count)
        cum = 0
        for i, c in enumerate(self.counts):
            cum += c
            if cum >= target:
                return self.bounds[i] if i < len(self.bounds) else self.max
        return self.max  # pragma: no cover - counts always sum to count

    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def to_json(self) -> dict[str, Any]:
        return {
            "counts": list(self.counts),
            "count": self.count,
            "sum": round(self.sum, 6),
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> Histogram:
        hist = cls()
        counts = list(data.get("counts", []))
        if len(counts) != len(hist.counts):
            raise ValueError(
                f"histogram has {len(counts)} buckets, want {len(hist.counts)}"
            )
        hist.counts = [int(c) for c in counts]
        hist.count = int(data.get("count", 0))
        hist.sum = float(data.get("sum", 0.0))
        if hist.count:
            hist.min = float(data["min"])
            hist.max = float(data["max"])
        return hist

    def summary(self) -> dict[str, Any]:
        """Reporting view: count/mean/extremes + bucket-derived quantiles."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": round(self.sum, 6),
            "mean": round(self.mean(), 6),
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


@dataclass
class Span:
    """One live timing scope; annotate it with :meth:`set`."""

    name: str
    span_id: int
    parent_id: int | None
    #: trace the span belongs to (32 hex digits)
    trace: str = ""
    #: globally unique span id (16 hex digits)
    sid: str = ""
    #: parent's globally unique span id (may live in another process)
    psid: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def set(self, **attrs: Any) -> None:
        """Attach attributes reported on the span's ``span_end`` event."""
        self.attrs.update(attrs)

    def context(self) -> TraceContext:
        """This span's position as an injectable :class:`TraceContext`."""
        return TraceContext(self.trace, self.sid)


@dataclass
class SpanStats:
    """Per-name aggregate over finished spans."""

    count: int = 0
    wall_s: float = 0.0
    max_s: float = 0.0

    def add(self, dur_s: float) -> None:
        self.count += 1
        self.wall_s += dur_s
        if dur_s > self.max_s:
            self.max_s = dur_s

    def to_json(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "wall_s": round(self.wall_s, 6),
            "max_s": round(self.max_s, 6),
        }


@dataclass
class Mark:
    """A point-in-time registry snapshot for :meth:`Telemetry.since`."""

    counters: dict[str, float]
    spans: dict[str, tuple[int, float]]


@dataclass(eq=False)
class Registry:
    """Counter sums, last gauge values, histograms and per-name span
    aggregates, folded from events one at a time by :meth:`fold`."""

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)
    spans: dict[str, SpanStats] = field(default_factory=dict)

    def fold(self, event: dict[str, Any]) -> None:
        """Apply one event; kinds without a registry effect are ignored.

        No validation: the live collector only folds events it built,
        and the report validates what it reads before folding it.
        """
        kind, name = event["kind"], event["name"]
        if kind == "counter":
            self.counters[name] = self.counters.get(name, 0) + event["value"]
        elif kind == "gauge":
            self.gauges[name] = event["value"]
        elif kind == "hist":
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.observe(event["value"])
        elif kind == "span_end":
            self.spans.setdefault(name, SpanStats()).add(event["dur_s"])

    def snapshot(self) -> dict[str, Any]:
        """The whole registry as a JSON-able dict."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                k: self.histograms[k].summary() for k in sorted(self.histograms)
            },
            "spans": {k: self.spans[k].to_json() for k in sorted(self.spans)},
        }


class Telemetry(Registry):
    """A live telemetry collector (spans + counters + gauges + sinks);
    its inherited :class:`Registry` folds every event it emits."""

    def __init__(self, *, run_id: str = "") -> None:
        super().__init__()
        self.run_id = run_id
        self._sinks: list[Sink] = []
        self._ids = itertools.count(1)
        self._current: ContextVar[Span | None] = ContextVar(
            "repro_obs_current_span", default=None
        )
        #: remote parent installed by :meth:`activate` (an extracted
        #: carrier), stored with its *anchor*: the span that was open at
        #: activation time.  The remote wins over that anchor (and over
        #: no-span-at-all); any local span opened after activation wins
        #: over the remote, so nesting inside the activation is normal.
        self._remote: ContextVar[tuple[TraceContext, Span | None] | None] = (
            ContextVar("repro_obs_remote_parent", default=None)
        )

    # ------------------------------------------------------------------
    # sinks + event emission
    # ------------------------------------------------------------------
    def add_sink(self, sink: Sink) -> None:
        self._sinks.append(sink)

    def remove_sink(self, sink: Sink) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)

    def current_span(self) -> Span | None:
        return self._current.get()

    def _effective_context(self) -> TraceContext | None:
        """The parent context right now, honouring activation precedence:
        an activated remote carrier shadows whatever was open when it was
        activated; a local span opened since shadows the remote."""
        remote = self._remote.get()
        cur = self._current.get()
        if remote is not None and cur is remote[1]:
            return remote[0]
        return cur.context() if cur is not None else None

    def current_context(self) -> TraceContext | None:
        """The context a child span (or outgoing request) would attach to."""
        return self._effective_context()

    @contextmanager
    def activate(self, ctx: TraceContext | None) -> Iterator[None]:
        """Adopt ``ctx`` (an extracted carrier) as the remote parent:
        spans opened inside join its trace as children -- even when an
        unrelated local span (e.g. the batch thread's ``campaign.run``)
        is already open.  ``None`` is a no-op so call sites can pass
        lenient-extract results straight in."""
        if ctx is None:
            yield
            return
        token = self._remote.set((ctx, self._current.get()))
        try:
            yield
        finally:
            self._remote.reset(token)

    def _parentage(self) -> tuple[str, str | None]:
        """``(trace_id, parent_sid)`` for a span opened right now."""
        ctx = self._effective_context()
        if ctx is not None:
            return ctx.trace_id, ctx.span_id
        return new_trace_id(), None

    def _emit(
        self,
        kind: str,
        name: str,
        *,
        span: int | None = None,
        parent: int | None = None,
        attrs: dict[str, Any] | None = None,
        trace: str | None = None,
        sid: str | None = None,
        psid: str | None = None,
        **extra: Any,
    ) -> None:
        if span is None:
            cur = self._current.get()
            span = cur.span_id if cur is not None else None
        if trace is None:
            ctx = self._effective_context()
            trace = ctx.trace_id if ctx is not None else None
        event: dict[str, Any] = {
            "v": EVENT_SCHEMA_VERSION,
            "t": round(time.time(), 6),
            "kind": kind,
            "name": name,
            "span": span,
            "parent": parent,
            "trace": trace,
            "attrs": attrs or {},
        }
        if sid is not None:
            event["sid"] = sid
            event["psid"] = psid
        event.update(extra)
        self.fold(event)
        for sink in self._sinks:
            sink(event)

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, /, **attrs: Any) -> Iterator[Span]:
        """Open a nested timing scope; yields the live :class:`Span`."""
        parent = self._current.get()
        trace_id, psid = self._parentage()
        sp = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            trace=trace_id,
            sid=new_span_id(),
            psid=psid,
        )
        token = self._current.set(sp)
        self._emit(
            "span_start", name, span=sp.span_id, parent=sp.parent_id,
            attrs=dict(attrs), trace=sp.trace, sid=sp.sid, psid=sp.psid,
        )
        t0 = time.perf_counter()
        try:
            yield sp
        finally:
            dur = time.perf_counter() - t0
            self._current.reset(token)
            merged = {**attrs, **sp.attrs}
            self._emit(
                "span_end",
                name,
                span=sp.span_id,
                parent=sp.parent_id,
                attrs=merged,
                trace=sp.trace,
                sid=sp.sid,
                psid=sp.psid,
                dur_s=round(dur, 6),
            )

    def point_span(
        self,
        name: str,
        dur_s: float,
        /,
        *,
        trace_ctx: TraceContext | None = None,
        **attrs: Any,
    ) -> None:
        """Record an already-finished scope with an externally measured
        duration (e.g. a campaign task that ran in a worker process).

        ``trace_ctx`` overrides the parentage: the span joins that trace
        as a child of that span id (how the campaign runner files each
        ``campaign.task`` under the serve request that submitted it)."""
        parent = self._current.get()
        sid = next(self._ids)
        pid = parent.span_id if parent is not None else None
        if trace_ctx is not None:
            trace_id, psid = trace_ctx.trace_id, trace_ctx.span_id
        else:
            trace_id, psid = self._parentage()
        gsid = new_span_id()
        self._emit(
            "span_start", name, span=sid, parent=pid, attrs=dict(attrs),
            trace=trace_id, sid=gsid, psid=psid,
        )
        self._emit(
            "span_end",
            name,
            span=sid,
            parent=pid,
            attrs=dict(attrs),
            trace=trace_id,
            sid=gsid,
            psid=psid,
            dur_s=round(dur_s, 6),
        )

    # ------------------------------------------------------------------
    # counters / gauges / histograms / freeform events
    # ------------------------------------------------------------------
    def incr(self, name: str, value: float = 1, /, **attrs: Any) -> None:
        """Add ``value`` to counter ``name`` (emits a ``counter`` event)."""
        self._emit("counter", name, attrs=dict(attrs), value=value)

    def gauge(self, name: str, value: float, /, **attrs: Any) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self._emit("gauge", name, attrs=dict(attrs), value=value)

    def observe(self, name: str, value: float, /, **attrs: Any) -> None:
        """Record ``value`` into histogram ``name`` (emits a ``hist``
        event, so streams rebuild the distribution from events alone)."""
        self._emit("hist", name, attrs=dict(attrs), value=value)

    def event(self, name: str, /, **attrs: Any) -> None:
        """Emit a freeform point event (no registry side effect)."""
        self._emit("event", name, attrs=dict(attrs))

    def run_start(self, name: str, /, **attrs: Any) -> None:
        self._emit("run_start", name, attrs=dict(attrs))

    def run_end(self, name: str, /, **attrs: Any) -> None:
        self._emit("run_end", name, attrs={**attrs, "snapshot": self.snapshot()})

    # ------------------------------------------------------------------
    # registry deltas
    # ------------------------------------------------------------------
    def mark(self) -> Mark:
        """A snapshot suitable for :meth:`since` deltas."""
        return Mark(
            counters=dict(self.counters),
            spans={k: (s.count, s.wall_s) for k, s in self.spans.items()},
        )

    def since(self, mark: Mark) -> dict[str, Any]:
        """Registry deltas accumulated after ``mark`` (for per-task
        summaries embedded in campaign ledger records)."""
        counters: dict[str, float] = {}
        for name, value in self.counters.items():
            delta = value - mark.counters.get(name, 0)
            if delta:
                counters[name] = round(delta, 6)
        spans: dict[str, dict[str, float]] = {}
        for name, stats in self.spans.items():
            count0, wall0 = mark.spans.get(name, (0, 0.0))
            if stats.count > count0:
                spans[name] = {
                    "count": stats.count - count0,
                    "wall_s": round(stats.wall_s - wall0, 6),
                }
        return {"counters": counters, "spans": spans}
