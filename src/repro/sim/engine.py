"""Synchronous cycle-driven wormhole simulation engine.

Model (paper Section 3, Assumptions 1--5):

* Every channel owns a flit queue of ``buffer_depth`` flits (default 1, the
  paper's worst case) with **atomic buffer allocation**: the queue belongs to
  at most one message at a time and is released only after that message's
  tail flit leaves it.
* Per cycle, each channel forwards at most one flit and accepts at most one
  flit (unit bandwidth); a message's flits therefore advance as a train
  behind the header.
* The header advances into the next channel chosen by the routing function
  when that channel is free; otherwise the message blocks in place, holding
  everything it occupies.
* Arrival consumes one flit per cycle (Assumption 2); consumption cannot be
  refused.
* Simultaneous requests for one channel go through a pluggable
  :class:`~repro.sim.arbitration.ArbitrationPolicy`.
* A :class:`~repro.sim.injection.StallSchedule` can freeze a message's
  in-network progress on chosen cycles -- the "router delay" adversary of
  the paper's Section 6.

The engine is deterministic given (specs, policy, stalls); all the
*nondeterminism* the paper's adversary controls is explored exhaustively by
:mod:`repro.analysis`, which shares these movement semantics (cross-checked
by tests in ``tests/test_cross_validation.py``).
"""

from __future__ import annotations

import bisect
import time
from collections import deque
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable
from typing import cast

from repro.obs import get as _obs_get
from repro.routing.adaptive import AdaptiveRoutingFunction
from repro.routing.base import INJECT, RoutingError, RoutingFunction
from repro.sim.arbitration import ArbitrationPolicy, FifoArbitration
from repro.sim.deadlock import DeadlockReport, detect_deadlock
from repro.sim.injection import StallSchedule
from repro.sim.message import MessageSpec, MessageState, MessageStatus
from repro.sim.stats import SimStats
from repro.topology.channels import Channel
from repro.topology.network import Network

TraceHook = Callable[[int, str, dict], None]


@dataclass
class SimConfig:
    """Engine knobs.

    ``buffer_depth``: flit capacity of every channel queue.
    ``switching``: the switching-technique continuum from the paper's
    introduction --

    * ``"wormhole"`` (default): the header advances as soon as the next
      channel is free; data flits trail behind.
    * ``"store_and_forward"``: the header advances only after the *entire*
      message has accumulated in the current channel queue (``buffer_depth``
      must therefore be >= the longest message).
    * ``"virtual_cut_through"``: wormhole advancement, but buffers are
      expected to be message-sized so a blocked message collapses into one
      queue; behaviourally this is wormhole with deep buffers, and the
      constructor only validates the intent.

    ``max_cycles``: hard stop (the run is then reported ``timed_out``).
    ``stop_on_deadlock``: halt as soon as :func:`detect_deadlock` finds a
    set of messages that can never progress.
    ``quiescence_window``: additionally declare deadlock when no flit has
    moved for this many cycles while undelivered messages remain and no
    pending injections can ever proceed; a belt-and-braces check that the
    deadlock test cannot miss anything.
    """

    buffer_depth: int = 1
    switching: str = "wormhole"
    max_cycles: int = 100_000
    stop_on_deadlock: bool = True
    quiescence_window: int = 64
    #: record per-channel busy cycles (adds O(held channels) work per cycle;
    #: off by default to keep the hot loop lean)
    track_utilization: bool = False

    def __post_init__(self) -> None:
        if self.buffer_depth < 1:
            raise ValueError("buffer_depth must be >= 1")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")
        if self.switching not in ("wormhole", "store_and_forward", "virtual_cut_through"):
            raise ValueError(f"unknown switching technique {self.switching!r}")

    @classmethod
    def store_and_forward(cls, max_message_length: int, **kw) -> "SimConfig":
        """Store-and-forward with buffers sized for the longest message."""
        return cls(
            buffer_depth=max_message_length, switching="store_and_forward", **kw
        )

    @classmethod
    def virtual_cut_through(cls, max_message_length: int, **kw) -> "SimConfig":
        """Virtual cut-through: eager advance with message-sized buffers."""
        return cls(
            buffer_depth=max_message_length, switching="virtual_cut_through", **kw
        )


@dataclass
class SimResult:
    """Outcome of a run."""

    cycles: int
    delivered: int
    total: int
    deadlock: DeadlockReport | None
    timed_out: bool
    stats: SimStats
    messages: dict[int, MessageState] = field(repr=False, default_factory=dict)

    @property
    def deadlocked(self) -> bool:
        return self.deadlock is not None

    @property
    def completed(self) -> bool:
        return self.delivered == self.total and not self.deadlocked


class _ChannelQueue:
    """Runtime state of one channel: owner + flit FIFO."""

    __slots__ = ("channel", "owner", "queue", "sent", "received")

    def __init__(self, channel: Channel) -> None:
        self.channel = channel
        self.owner: int | None = None
        self.queue: deque[int] = deque()  # flit indices of the owning message
        self.sent = False  # one flit out per cycle
        self.received = False  # one flit in per cycle


class Simulator:
    """The wormhole engine.  One instance simulates one scenario.

    Per-cycle work is proportional to the messages that can act, not to
    every message ever scheduled:

    * the *live list* holds the due PENDING, ACTIVE and DRAINING messages
      in ``messages`` insertion order; messages join it from an
      ``inject_time``-sorted queue when they fall due and leave it after
      the fairness pass that follows their DELIVERED/FAILED transition;
    * grant rounds after the first re-examine only the headers *woken* by
      the previous round's release pass (a freed channel wakes every
      header hard-blocked on it) -- any other header would recompute the
      same blocked request;
    * each release pass visits only the messages whose flits moved in
      that round, and the per-cycle ``sent``/``received`` reset only the
      queues flagged in the previous cycle;
    * a header reuses its routed candidate list while its leading channel
      is unchanged (routing functions are pure maps ``R: C x N -> C``).

    Every walk keeps insertion order, because random arbitration and the
    trace hook observe it.
    """

    def __init__(
        self,
        network: Network,
        routing: RoutingFunction,
        specs: Iterable[MessageSpec],
        *,
        config: SimConfig | None = None,
        arbitration: ArbitrationPolicy | None = None,
        stalls: StallSchedule | None = None,
        trace: TraceHook | None = None,
    ) -> None:
        self.network = network
        self.routing = routing
        self.config = config or SimConfig()
        self.arbitration = arbitration or FifoArbitration()
        self.stalls = stalls
        self.trace = trace
        self.cycle = 0
        self.messages: dict[int, MessageState] = {}
        for spec in specs:
            if spec.mid in self.messages:
                raise ValueError(f"duplicate message id {spec.mid}")
            if (
                self.config.switching == "store_and_forward"
                and spec.length > self.config.buffer_depth
            ):
                raise ValueError(
                    f"store-and-forward needs buffer_depth >= message length "
                    f"({spec.length} > {self.config.buffer_depth}); use "
                    "SimConfig.store_and_forward(max_message_length)"
                )
            self.messages[spec.mid] = MessageState(spec=spec)
        self._queues: dict[int, _ChannelQueue] = {
            ch.cid: _ChannelQueue(ch) for ch in network.channels
        }
        self._moved_this_cycle = False
        self._idle_cycles = 0
        self.stats = SimStats()
        self._adaptive = bool(getattr(routing, "is_adaptive", False))

        #: insertion position of each message (the iteration order)
        self._pos = {mid: i for i, mid in enumerate(self.messages)}
        #: not-yet-due messages, latest ``inject_time`` first (pop() is next)
        self._future = sorted(
            self.messages.values(),
            key=lambda m: (m.spec.inject_time, self._pos[m.mid]),
            reverse=True,
        )
        self._live: list[MessageState] = []
        self._finished = 0  # DELIVERED + FAILED
        #: queues whose sent/received flags were set this cycle
        self._flagged: list[_ChannelQueue] = []
        #: cid -> (position, header) of the headers hard-blocked on it this cycle
        self._waiters: dict[int, list[tuple[int, MessageState]]] = {}
        #: position -> header to re-examine in the next grant round
        self._wake: dict[int, MessageState] = {}
        #: position -> message whose flits moved in the current round
        self._touched: dict[int, MessageState] = {}
        #: mid -> (in_channel, candidates) of the header's last routing
        self._routes: dict[int, tuple[object, list[Channel]]] = {}

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def queue_of(self, channel: Channel) -> _ChannelQueue:
        return self._queues[channel.cid]

    def channel_owner(self, channel: Channel) -> int | None:
        return self._queues[channel.cid].owner

    def live_messages(self) -> list[MessageState]:
        """Messages that can still act (due PENDING, ACTIVE, DRAINING).

        Insertion-ordered.  Every other message is either not yet due or
        finished, holds no wait-for edge, and never acts again.
        """
        return self._live

    def _emit(self, kind: str, **data: object) -> None:
        if self.trace is not None:
            self.trace(self.cycle, kind, data)

    def _stalled(self, m: MessageState) -> bool:
        return self.stalls is not None and self.stalls.stalled(m.mid, self.cycle)

    def _admit_due(self) -> None:
        """Move messages whose injection time has come into the live list."""
        future = self._future
        cycle = self.cycle
        pos = self._pos
        while future and future[-1].spec.inject_time <= cycle:
            bisect.insort(self._live, future.pop(), key=lambda m: pos[m.mid])

    def _fail(self, m: MessageState, kind: str) -> None:
        m.status = MessageStatus.FAILED
        self._finished += 1
        self._emit(kind, mid=m.mid)

    # ------------------------------------------------------------------
    # one synchronous cycle
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the network by one clock cycle.

        The cycle runs in *grant rounds* to model pipelined channel
        handoff: flits stream, so when a tail flit vacates a channel during
        a cycle, another header may enter that channel in the same cycle
        (this is how the paper's schedules use the shared channel --
        "immediately after M1 has traversed [cs], the second message starts
        traversing [cs]").  Each round computes requests against the
        current queue state, arbitrates, applies the granted moves and the
        resulting tail releases, then retries messages that were blocked
        on a channel the releases freed; every message still moves at most
        one hop per cycle.
        """
        for q in self._flagged:
            q.sent = False
            q.received = False
        self._flagged.clear()
        self._moved_this_cycle = False
        self._waiters.clear()
        self._admit_due()
        finished_before = self._finished

        acted: set[int] = set()  # header moved / stalled / lost this cycle
        examine = self._live
        first_round = True
        while True:
            moved_this_round = self._grant_round(examine, acted, first_round=first_round)
            first_round = False
            # releases make freed channels visible to the next round
            touched = self._touched
            for p in sorted(touched):
                self._release_tail(touched[p])
            touched.clear()
            if not moved_this_round:
                break
            wake = self._wake
            examine = [wake[p] for p in sorted(wake)]
            wake.clear()
        self._wake.clear()  # woken by the last release pass: the cycle is over

        if self.config.track_utilization:
            busy = self.stats.channel_busy_cycles
            for q in self._queues.values():
                if q.queue:
                    busy[q.channel.cid] = busy.get(q.channel.cid, 0) + 1

        # fairness accounting (Assumption 5: starvation must be visible)
        for m in self._live:
            if m.status is MessageStatus.ACTIVE and m.blocked_on is not None:
                m.wait_cycles += 1
                m._current_wait += 1
                if m._current_wait > m.max_consecutive_wait:
                    m.max_consecutive_wait = m._current_wait
            else:
                m._current_wait = 0
        if self._finished != finished_before:
            live = []
            for m in self._live:
                if m.status is MessageStatus.DELIVERED or m.status is MessageStatus.FAILED:
                    self._routes.pop(m.mid, None)
                else:
                    live.append(m)
            self._live = live

        if not self._moved_this_cycle:
            self._idle_cycles += 1
        else:
            self._idle_cycles = 0
        self.cycle += 1

    def _request_next(self, m: MessageState, in_channel, node, requests) -> None:
        """Compute the header's request (oblivious or adaptive) for a round.

        Oblivious functions have one next channel; adaptive functions
        (``is_adaptive``) offer a preference-ordered candidate list, and
        the header requests the first *free* candidate, blocking only when
        every candidate is held by another message (OR semantics).  A
        hard-blocked header is registered as a waiter on each candidate so
        the release that frees one wakes it for the next round.
        """
        mid = m.mid
        route = self._routes.get(mid)
        if route is not None and route[0] is in_channel:
            cands = route[1]
        else:
            try:
                if self._adaptive:
                    adaptive = cast(AdaptiveRoutingFunction, self.routing)
                    cands = adaptive.candidates(in_channel, node, m.spec.dst)
                else:
                    cands = [self.routing.route(in_channel, node, m.spec.dst)]
            except RoutingError:
                self._fail(m, "routing_failed")
                return
            self._routes[mid] = (in_channel, cands)
        queues = self._queues
        usable = [c for c in cands if queues[c.cid].owner != mid]
        if not usable:
            self._fail(m, "self_block")
            return
        for c in usable:
            if queues[c.cid].owner is None:
                m.first_request_cycle.setdefault(c.cid, self.cycle)
                m.blocked_candidates = []
                requests.setdefault(c.cid, []).append(m)
                return
        # all candidates held by other messages
        m.first_request_cycle.setdefault(usable[0].cid, self.cycle)
        m.blocked_on = usable[0]
        m.blocked_candidates = list(usable)
        entry = (self._pos[mid], m)
        waiters = self._waiters
        for c in usable:
            waiters.setdefault(c.cid, []).append(entry)

    def _grant_round(
        self, examine: list[MessageState], acted: set[int], *, first_round: bool
    ) -> bool:
        """One request/arbitrate/apply round; returns True if a header moved.

        ``examine`` is the live list in the first round and the woken
        headers afterwards, insertion-ordered either way.
        """
        requests: dict[int, list[MessageState]] = {}  # cid -> requesters
        arrivals: list[MessageState] = []
        drains: list[MessageState] = []
        movers: list[tuple[MessageState, Channel]] = []
        store_and_forward = self.config.switching == "store_and_forward"

        for m in examine:
            mid = m.mid
            if mid in acted:
                continue
            status = m.status
            if status is MessageStatus.DRAINING:
                if first_round:
                    drains.append(m)
                    acted.add(mid)
                continue
            if status is MessageStatus.PENDING:
                if not self._stalled(m):  # live PENDING messages are due
                    self._request_next(m, INJECT, m.spec.src, requests)
                continue
            if status is not MessageStatus.ACTIVE:
                continue
            if self._stalled(m):
                acted.add(mid)
                self._emit("stalled", mid=mid)
                continue
            leading = m.acquired[-1]
            if store_and_forward:
                # the whole packet must accumulate in the current queue
                # before the header may move on (or be delivered)
                lq = self._queues[leading.cid]
                if len(lq.queue) < m.spec.length:
                    if first_round:  # this round's cascade may complete it
                        self._wake[self._pos[mid]] = m
                    continue  # keep accumulating (cascade still runs)
            node = leading.dst
            if node == m.spec.dst:
                arrivals.append(m)
                acted.add(mid)
                continue
            self._request_next(m, leading, node, requests)

        for cid, reqs in requests.items():
            ch = self._queues[cid].channel
            winner = self.arbitration.choose(ch, reqs, self.cycle) if len(reqs) > 1 else reqs[0]
            if winner not in reqs:
                raise RuntimeError("arbitration returned a non-requester")
            for m in reqs:
                if m is winner:
                    m.blocked_on = None
                    movers.append((m, ch))
                    acted.add(m.mid)
                else:
                    # a loser cannot reach another channel this cycle
                    m.blocked_on = ch
                    acted.add(m.mid)
            if len(reqs) > 1:
                self.stats.arbitration_conflicts += 1

        for m in arrivals:
            self._apply_front_consume(m, arrival=True)
            self._cascade(m)
        for m in drains:
            self._apply_front_consume(m, arrival=False)
            self._cascade(m)
        for m, ch in movers:
            if m.status is MessageStatus.PENDING:
                self._apply_injection_acquire(m, ch)
            else:
                self._apply_header_advance(m, ch)
            self._cascade(m)

        # data flits of messages whose header did not move still advance
        # into any space the train has (only possible with buffer_depth > 1).
        if first_round and self.config.buffer_depth > 1:
            for m in self._live:
                if (
                    m.status is MessageStatus.ACTIVE
                    and m.mid not in acted
                    and not self._stalled(m)
                ):
                    self._cascade(m)

        return bool(arrivals or drains or movers)

    # ------------------------------------------------------------------
    # move primitives
    # ------------------------------------------------------------------
    def _apply_injection_acquire(self, m: MessageState, ch: Channel) -> None:
        q = self._queues[ch.cid]
        assert q.owner is None
        q.owner = m.mid
        q.queue.append(0)  # header flit index 0
        q.received = True
        self._flagged.append(q)
        m.acquired.append(ch)
        m.flits_injected = 1
        m.status = MessageStatus.ACTIVE
        m.inject_cycle = self.cycle
        m.blocked_on = None
        m.blocked_candidates = []
        self._moved_this_cycle = True
        self.stats.flit_moves += 1
        self._emit("inject", mid=m.mid, channel=ch.cid)

    def _apply_header_advance(self, m: MessageState, ch: Channel) -> None:
        leading = m.acquired[-1]
        lq = self._queues[leading.cid]
        nq = self._queues[ch.cid]
        assert nq.owner is None and lq.queue and lq.queue[0] == 0
        flit = lq.queue.popleft()
        lq.sent = True
        nq.owner = m.mid
        nq.queue.append(flit)
        nq.received = True
        self._flagged += (lq, nq)
        m.acquired.append(ch)
        m.blocked_on = None
        m.blocked_candidates = []
        self._moved_this_cycle = True
        self.stats.flit_moves += 1
        self._emit("advance", mid=m.mid, channel=ch.cid)

    def _apply_front_consume(self, m: MessageState, *, arrival: bool) -> None:
        leading = m.acquired[-1]
        lq = self._queues[leading.cid]
        assert lq.queue
        lq.queue.popleft()
        lq.sent = True
        self._flagged.append(lq)
        m.flits_consumed += 1
        self._moved_this_cycle = True
        self.stats.flit_moves += 1
        if arrival:
            m.arrival_cycle = self.cycle
            m.status = MessageStatus.DRAINING
            self._emit("arrive", mid=m.mid)
        else:
            self._emit("consume", mid=m.mid)

    def _cascade(self, m: MessageState) -> None:
        """Slide the flit train forward one slot where space allows.

        Every move of ``m``'s flits ends in a cascade, so this is where
        ``m`` is marked for the round's release pass.
        """
        self._touched[self._pos[m.mid]] = m
        acq = m.acquired
        depth = self.config.buffer_depth
        queues = self._queues
        for i in range(len(acq) - 1, 0, -1):
            dst_q = queues[acq[i].cid]
            src_q = queues[acq[i - 1].cid]
            if (
                not dst_q.received
                and len(dst_q.queue) < depth
                and src_q.queue
                and not src_q.sent
            ):
                dst_q.queue.append(src_q.queue.popleft())
                dst_q.received = True
                src_q.sent = True
                self._flagged += (dst_q, src_q)
                self._moved_this_cycle = True
                self.stats.flit_moves += 1
        # injection of the next flit into the first held channel
        if m.flits_injected < m.spec.length and acq:
            q0 = queues[acq[0].cid]
            if not q0.received and len(q0.queue) < depth:
                q0.queue.append(m.flits_injected)
                q0.received = True
                self._flagged.append(q0)
                m.flits_injected += 1
                self._moved_this_cycle = True
                self.stats.flit_moves += 1

    def _release_tail(self, m: MessageState) -> None:
        """Release emptied channels whose tail flit has passed (Assumption 4).

        A freed channel wakes the headers hard-blocked on it this cycle.
        """
        tail_passed_injection = m.flits_injected == m.spec.length
        while m.acquired:
            back = m.acquired[0]
            q = self._queues[back.cid]
            if q.queue or not tail_passed_injection:
                break
            q.owner = None
            m.acquired.pop(0)
            waiters = self._waiters.pop(back.cid, None)
            if waiters:
                self._wake.update(waiters)
            self._emit("release", mid=m.mid, channel=back.cid)
        if (
            m.status is MessageStatus.DRAINING
            and m.flits_consumed == m.spec.length
        ):
            assert not m.acquired
            m.status = MessageStatus.DELIVERED
            m.done_cycle = self.cycle
            self._finished += 1
            self.stats.record_delivery(m)
            self._emit("deliver", mid=m.mid)

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def _all_done(self) -> bool:
        return self._finished == len(self.messages)

    def _quiesced(self) -> bool:
        """No movement for a window, and nothing can ever move again.

        Pending messages whose injection time is in the future could still
        move, so they exempt the run from quiescence-deadlock.
        """
        if self._idle_cycles < self.config.quiescence_window:
            return False
        # self.cycle is the *next* cycle to run, so an injection due at
        # exactly self.cycle can still move; _future[0] is the latest one
        return not (self._future and self._future[0].spec.inject_time >= self.cycle)

    def run(self) -> SimResult:
        """Run to completion, deadlock, or the cycle limit."""
        tel = _obs_get()
        if tel is None:
            return self._run_impl()
        with tel.span(
            "sim.run",
            messages=len(self.messages),
            switching=self.config.switching,
        ) as sp:
            t0 = time.perf_counter()
            result = self._run_impl()
            dur = time.perf_counter() - t0
            sp.set(
                cycles=result.cycles,
                delivered=result.delivered,
                total=result.total,
                deadlocked=result.deadlocked,
                timed_out=result.timed_out,
                flit_moves=result.stats.flit_moves,
                arbitration_conflicts=result.stats.arbitration_conflicts,
            )
            if dur > 0 and result.cycles:
                sp.set(
                    cycles_per_sec=round(result.cycles / dur, 1),
                    conflicts_per_sec=round(
                        result.stats.arbitration_conflicts / dur, 1
                    ),
                )
            tel.incr("sim.runs")
            tel.incr("sim.cycles", result.cycles)
            tel.incr("sim.flit_moves", result.stats.flit_moves)
            tel.incr("sim.arbitration_conflicts", result.stats.arbitration_conflicts)
            tel.incr("sim.delivered", result.delivered)
        return result

    def _run_impl(self) -> SimResult:
        deadlock: DeadlockReport | None = None
        while self.cycle < self.config.max_cycles:
            if self._all_done():
                break
            self.step()
            report = detect_deadlock(self)
            if report is not None:
                deadlock = report
                if self.config.stop_on_deadlock:
                    break
            if self._quiesced():
                deadlock = DeadlockReport(
                    cycle=self.cycle,
                    message_ids=tuple(m.mid for m in self._live if m.in_network),
                    kind="quiescence",
                )
                break
        timed_out = self.cycle >= self.config.max_cycles and not self._all_done()
        delivered = sum(
            1 for m in self.messages.values() if m.status is MessageStatus.DELIVERED
        )
        self.stats.cycles = self.cycle
        return SimResult(
            cycles=self.cycle,
            delivered=delivered,
            total=len(self.messages),
            deadlock=deadlock,
            timed_out=timed_out,
            stats=self.stats,
            messages=self.messages,
        )
