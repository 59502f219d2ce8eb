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

import time
from collections import deque
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable
from typing import cast

from repro.obs import span as _obs_span
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

    ``buffer_depth``: flit capacity of every channel queue.  Switching is
    always wormhole: the header advances as soon as the next channel is
    free and data flits trail behind; a depth of at least the message
    length gives virtual cut-through's footprint (a blocked message
    collapses into one queue).
    ``max_cycles``: hard stop (the run is then reported ``timed_out``).
    ``stop_on_deadlock``: halt as soon as :func:`detect_deadlock` finds a
    set of messages that can never progress.
    ``quiescence_window``: additionally declare deadlock when no flit has
    moved for this many cycles while undelivered messages remain and no
    pending injections can ever proceed; a belt-and-braces check that the
    deadlock test cannot miss anything.
    """

    buffer_depth: int = 1
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
    every message ever scheduled, nor to every message that waits:

    * the *live list* holds the due PENDING, ACTIVE and DRAINING messages;
      messages join it from an ``inject_time``-sorted queue when they fall
      due and leave it at the end of the cycle in which they are
      DELIVERED or FAILED;
    * a header whose every candidate is held by another message is
      *parked* (a PENDING message at injection included): it drops out of
      the grant rounds, and its waiter entries on its candidates persist
      across cycles.  The release of one of those candidates unparks it
      into the next round, or into the next cycle's first round once the
      cycle's rounds have ended.  An unreleased candidate keeps its owner
      (owners change only by acquiring free channels, or by release), so
      a parked header would recompute the same blocked request every round;
    * the first round examines the live messages that are not parked
      (kept incrementally); later rounds examine only the headers woken by
      the previous round's release pass;
    * each release pass visits only the messages whose flits moved in
      that round, and the per-cycle ``sent``/``received`` reset only the
      queues flagged in the previous cycle;
    * the fairness pass visits only the ACTIVE messages, and the deadlock
      test only the parked ACTIVE headers (:meth:`blocked_headers`);
    * a header reuses its routed candidate list while its leading channel
      is unchanged (routing functions are pure maps ``R: C x N -> C``).

    A message with stall entries is never parked: it is examined every
    cycle, so its ``stalled`` events keep their order, and its waiter
    entries last only for the cycle.

    Every walk that can be observed keeps insertion order, because the
    trace hook observes it.
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
            key=lambda m: (m.spec.inject_time, self._pos[m.spec.mid]),
            reverse=True,
        )
        #: position -> live message (due PENDING, ACTIVE, DRAINING)
        self._live: dict[int, MessageState] = {}
        #: positions of the messages that finished this cycle
        self._leaving: list[int] = []
        #: position -> live message that is not parked (first-round examine set)
        self._ready: dict[int, MessageState] = {}
        #: position -> ACTIVE message (the fairness pass's set)
        self._active: dict[int, MessageState] = {}
        #: position -> candidate list of a parked header (its parking token)
        self._parked: dict[int, list[Channel]] = {}
        #: position -> parked ACTIVE header (the deadlock test's set)
        self._parked_headers: dict[int, MessageState] = {}
        #: positions of the messages with stall entries: never parked
        self._unparkable = (
            frozenset(
                p for mid, p in self._pos.items() if stalls.total_budget(mid)
            )
            if stalls is not None
            else frozenset()
        )
        self._finished = 0  # DELIVERED + FAILED
        #: queues whose sent/received flags were set this cycle
        self._flagged: list[_ChannelQueue] = []
        #: cid -> (position, header, token) of the headers parked on it
        self._waiters: dict[int, list[tuple[int, MessageState, list[Channel]]]] = {}
        #: cid -> (position, header) of unparkable headers blocked on it this cycle
        self._cycle_waiters: dict[int, list[tuple[int, MessageState]]] = {}
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
        live = self._live
        return [live[p] for p in sorted(live)]

    def blocked_headers(self) -> list[MessageState]:
        """The ACTIVE messages that can be in a deadlock.

        The parked ACTIVE headers, plus the ACTIVE messages with stall
        entries (never parked, and their blocked state may date from an
        earlier cycle when they are stalled).  Any other ACTIVE header
        moved, lost arbitration to a message that moved, or was woken by
        a release this cycle, so it cannot be in the fixpoint.
        """
        headers = list(self._parked_headers.values())
        if self._unparkable:
            unparkable = self._unparkable
            headers += [m for p, m in self._active.items() if p in unparkable]
        return headers

    def _emit(self, kind: str, **data: object) -> None:
        if self.trace is not None:
            self.trace(self.cycle, kind, data)

    def _admit_due(self) -> None:
        """Move messages whose injection time has come into the live list."""
        future = self._future
        cycle = self.cycle
        pos = self._pos
        while future and future[-1].spec.inject_time <= cycle:
            m = future.pop()
            p = pos[m.spec.mid]
            self._live[p] = m
            self._ready[p] = m

    def _finish(self, m: MessageState, p: int) -> None:
        """Retire a DELIVERED or FAILED message.

        It leaves the live list at the end of the cycle; its consecutive
        wait ends now, as the fairness pass would end it.
        """
        self._finished += 1
        self._leaving.append(p)
        self._ready.pop(p, None)
        self._active.pop(p, None)
        self._routes.pop(m.spec.mid, None)
        m._current_wait = 0

    def _fail(self, m: MessageState, kind: str) -> None:
        m.status = MessageStatus.FAILED
        self._finish(m, self._pos[m.spec.mid])
        self._emit(kind, mid=m.spec.mid)

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
        self._cycle_waiters.clear()
        self._admit_due()

        acted: set[int] = set()  # header moved / stalled / lost this cycle
        ready = self._ready
        examine = [ready[p] for p in sorted(ready)]
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
        # woken by the last release pass: the cycle is over, and the woken
        # headers are back in the next cycle's first round
        self._wake.clear()

        if self.config.track_utilization:
            busy = self.stats.channel_busy_cycles
            for q in self._queues.values():
                if q.queue:
                    busy[q.channel.cid] = busy.get(q.channel.cid, 0) + 1

        # fairness accounting (Assumption 5: starvation must be visible);
        # other messages never wait: PENDING and DRAINING ones keep a zero
        # consecutive wait, which _finish and arrival set
        for m in self._active.values():
            if m.blocked_on is not None:
                m.wait_cycles += 1
                m._current_wait += 1
                if m._current_wait > m.max_consecutive_wait:
                    m.max_consecutive_wait = m._current_wait
            else:
                m._current_wait = 0
        if self._leaving:
            live = self._live
            for p in self._leaving:
                del live[p]
            self._leaving.clear()

        if not self._moved_this_cycle:
            self._idle_cycles += 1
        else:
            self._idle_cycles = 0
        self.cycle += 1

    def _request_next(self, m: MessageState, p: int, in_channel, node, requests) -> None:
        """Compute the header's request (oblivious or adaptive) for a round.

        Oblivious functions have one next channel; adaptive functions
        (``is_adaptive``) offer a preference-ordered candidate list, and
        the header requests the first *free* candidate, blocking only when
        every candidate is held by another message (OR semantics).  A
        hard-blocked header is registered as a waiter on each candidate so
        the release that frees one wakes it; it is parked unless it has
        stall entries.
        """
        spec = m.spec
        mid = spec.mid
        route = self._routes.get(mid)
        if route is not None and route[0] is in_channel:
            cands = route[1]
        else:
            try:
                if self._adaptive:
                    adaptive = cast(AdaptiveRoutingFunction, self.routing)
                    cands = adaptive.candidates(in_channel, node, spec.dst)
                else:
                    cands = [self.routing.route(in_channel, node, spec.dst)]
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
        m.blocked_candidates = usable
        if p in self._unparkable:
            entry = (p, m)
            cycle_waiters = self._cycle_waiters
            for c in usable:
                cycle_waiters.setdefault(c.cid, []).append(entry)
            return
        self._parked[p] = usable
        del self._ready[p]
        if m.status is MessageStatus.ACTIVE:
            self._parked_headers[p] = m
        parked_entry = (p, m, usable)
        waiters = self._waiters
        for c in usable:
            waiters.setdefault(c.cid, []).append(parked_entry)

    def _grant_round(
        self, examine: list[MessageState], acted: set[int], *, first_round: bool
    ) -> bool:
        """One request/arbitrate/apply round; returns True if a header moved.

        ``examine`` is the unparked live list in the first round and the
        woken headers afterwards, insertion-ordered either way.
        """
        requests: dict[int, list[MessageState]] = {}  # cid -> requesters
        arrivals: list[MessageState] = []
        drains: list[MessageState] = []
        movers: list[tuple[MessageState, Channel]] = []
        pos = self._pos
        stalls = self.stalls
        cycle = self.cycle

        for m in examine:
            spec = m.spec
            mid = spec.mid
            if mid in acted:
                continue
            status = m.status
            if status is MessageStatus.DRAINING:
                if first_round:
                    drains.append(m)
                    acted.add(mid)
                continue
            if status is MessageStatus.PENDING:
                # live PENDING messages are due
                if stalls is None or not stalls.stalled(mid, cycle):
                    self._request_next(m, pos[mid], INJECT, spec.src, requests)
                continue
            if status is not MessageStatus.ACTIVE:
                continue
            if stalls is not None and stalls.stalled(mid, cycle):
                acted.add(mid)
                self._emit("stalled", mid=mid)
                continue
            leading = m.acquired[-1]
            node = leading.dst
            if node == spec.dst:
                arrivals.append(m)
                acted.add(mid)
                continue
            self._request_next(m, pos[mid], leading, node, requests)

        for cid, reqs in requests.items():
            ch = self._queues[cid].channel
            winner = self.arbitration.choose(ch, reqs, cycle) if len(reqs) > 1 else reqs[0]
            if winner not in reqs:
                raise RuntimeError("arbitration returned a non-requester")
            for m in reqs:
                if m is winner:
                    m.blocked_on = None
                    movers.append((m, ch))
                else:
                    # a loser cannot reach another channel this cycle
                    m.blocked_on = ch
                acted.add(m.spec.mid)
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
        # into any space the train has (only possible with buffer_depth > 1);
        # a message's cascade touches only its own queues, so order is free
        if first_round and self.config.buffer_depth > 1:
            for m in self._active.values():
                mid = m.spec.mid
                if mid not in acted and not (
                    stalls is not None and stalls.stalled(mid, cycle)
                ):
                    self._cascade(m)

        return bool(arrivals or drains or movers)

    # ------------------------------------------------------------------
    # move primitives
    # ------------------------------------------------------------------
    def _apply_injection_acquire(self, m: MessageState, ch: Channel) -> None:
        q = self._queues[ch.cid]
        assert q.owner is None
        q.owner = m.spec.mid
        q.queue.append(0)  # header flit index 0
        q.received = True
        self._flagged.append(q)
        m.acquired.append(ch)
        m.flits_injected = 1
        m.status = MessageStatus.ACTIVE
        m.inject_cycle = self.cycle
        m.blocked_on = None
        m.blocked_candidates = []
        self._active[self._pos[m.spec.mid]] = m
        self._moved_this_cycle = True
        self.stats.flit_moves += 1
        self._emit("inject", mid=m.spec.mid, channel=ch.cid)

    def _apply_header_advance(self, m: MessageState, ch: Channel) -> None:
        leading = m.acquired[-1]
        lq = self._queues[leading.cid]
        nq = self._queues[ch.cid]
        assert nq.owner is None and lq.queue and lq.queue[0] == 0
        flit = lq.queue.popleft()
        lq.sent = True
        nq.owner = m.spec.mid
        nq.queue.append(flit)
        nq.received = True
        self._flagged += (lq, nq)
        m.acquired.append(ch)
        m.blocked_on = None
        m.blocked_candidates = []
        self._moved_this_cycle = True
        self.stats.flit_moves += 1
        self._emit("advance", mid=m.spec.mid, channel=ch.cid)

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
            self._active.pop(self._pos[m.spec.mid])
            m._current_wait = 0
            self._emit("arrive", mid=m.spec.mid)
        else:
            self._emit("consume", mid=m.spec.mid)

    def _cascade(self, m: MessageState) -> None:
        """Slide the flit train forward one slot where space allows.

        Every move of ``m``'s flits ends in a cascade, so this is where
        ``m`` is marked for the round's release pass.
        """
        self._touched[self._pos[m.spec.mid]] = m
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

        A freed channel wakes the headers still parked on it (an entry
        whose token is not the header's current parking is stale) and the
        unparkable headers blocked on it this cycle.
        """
        spec = m.spec
        tail_passed_injection = m.flits_injected == spec.length
        while m.acquired:
            back = m.acquired[0]
            q = self._queues[back.cid]
            if q.queue or not tail_passed_injection:
                break
            q.owner = None
            m.acquired.pop(0)
            waiters = self._waiters.pop(back.cid, None)
            if waiters:
                parked = self._parked
                for p, header, token in waiters:
                    if parked.get(p) is token:
                        del parked[p]
                        self._parked_headers.pop(p, None)
                        self._ready[p] = header
                        self._wake[p] = header
            if self._cycle_waiters:
                waiters = self._cycle_waiters.pop(back.cid, None)
                if waiters:
                    self._wake.update(waiters)
            self._emit("release", mid=spec.mid, channel=back.cid)
        if m.status is MessageStatus.DRAINING and m.flits_consumed == spec.length:
            assert not m.acquired
            m.status = MessageStatus.DELIVERED
            m.done_cycle = self.cycle
            self._finish(m, self._pos[spec.mid])
            self.stats.record_delivery(m)
            self._emit("deliver", mid=spec.mid)

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
        with _obs_span("sim.run", messages=len(self.messages)) as sp:
            t0 = time.perf_counter()
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
                        message_ids=tuple(
                            m.spec.mid for m in self.live_messages() if m.in_network
                        ),
                        kind="quiescence",
                    )
                    break
            timed_out = self.cycle >= self.config.max_cycles and not self._all_done()
            delivered = sum(
                1 for m in self.messages.values() if m.status is MessageStatus.DELIVERED
            )
            self.stats.cycles = self.cycle
            result = SimResult(
                cycles=self.cycle,
                delivered=delivered,
                total=len(self.messages),
                deadlock=deadlock,
                timed_out=timed_out,
                stats=self.stats,
                messages=self.messages,
            )
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
            sp.incr("sim.runs")
            sp.incr("sim.cycles", result.cycles)
            sp.incr("sim.flit_moves", result.stats.flit_moves)
            sp.incr("sim.arbitration_conflicts", result.stats.arbitration_conflicts)
            sp.incr("sim.delivered", result.delivered)
        return result
