"""Exhaustive reachability search for *adaptive* routing (Section 7).

The paper closes by calling for its techniques to be applied to adaptive
routing, where "a choice of output channels and more dependencies between
channels" make unreachable configurations more likely.  This module
extends the explicit-state search to routing functions of Duato's form
``R: C x N -> P(C)``:

* a message's state can no longer be a position on a fixed path -- the
  *route taken so far* is part of the state (the adversary also chooses
  which candidate each header takes);
* blocking is OR-semantics: a header is frozen only when **every**
  candidate is occupied; a deadlock is a set of messages each of whose
  candidates is held by another member (the knot criterion, matching
  :func:`repro.sim.deadlock.detect_deadlock`).

State per message: ``(taken, inj, cons, bud)`` where ``taken`` is the
tuple of channel ids acquired so far.  The flit train occupies the last
``inj - cons`` channels of ``taken``.  State spaces are exponentially
larger than the oblivious checker's, so this is for small certification
scenarios (the tests and the E7 experiment), with a hard state cap.

The adversary is the oblivious checker's, written once in
:class:`repro.analysis.state.CycleExpander`: injection times, stalls and
arbitration winners, plus the route choice.  A route choice is labelled
with the channel it takes (``"adv:<cid>"``) beside ``wait``, ``stall``,
``drain``, ``lose``, ``freeze`` and ``done``, so the search over
:func:`repro.analysis.reachability.explore` returns a replayable
:class:`~repro.analysis.reachability.Witness` for every reachable answer.

Paths stay finite whatever the routing function: a header's candidates
never include a channel it has already taken, so a route takes each
channel at most once and ``len(taken)`` never exceeds the network's
channel count.  A routing function that would walk in circles strands
the header (no candidate left) rather than growing its state.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.analysis.reachability import SearchLimitExceeded, SearchResult, explore
from repro.analysis.state import CycleExpander, Option
from repro.routing.adaptive import AdaptiveRoutingFunction
from repro.routing.base import INJECT, RoutingError
from repro.topology.channels import NodeId

# per-message: (taken channel ids, flits injected, flits consumed, budget)
AdaptiveMsgState = tuple[tuple[int, ...], int, int, int]
AdaptiveSystemState = tuple[AdaptiveMsgState, ...]


@dataclass(frozen=True)
class AdaptiveMessage:
    """A message for the adaptive checker: endpoints and length only."""

    src: NodeId
    dst: NodeId
    length: int
    tag: str = ""

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("src == dst")
        if self.length < 1:
            raise ValueError("length must be >= 1")


class AdaptiveSystem(CycleExpander):
    """Successor relation for adaptive messages under the full adversary."""

    def __init__(
        self,
        fn: AdaptiveRoutingFunction,
        messages: Sequence[AdaptiveMessage],
        *,
        budget: int = 0,
    ) -> None:
        self.fn = fn
        self.network = fn.network
        self.messages = tuple(messages)
        self.budget = budget
        self._chan = {c.cid: c for c in self.network.channels}
        #: the label of the route choice that takes each channel
        self._adv = {cid: f"adv:{cid}" for cid in self._chan}
        # routing candidates are a pure function of (taken, i); the search
        # asks for them once in deadlocked_set and again when expanding, so
        # memoizing halves the routing-function traffic on the hot path
        self._cand_memo: dict[tuple[tuple[int, ...], int], list[int]] = {}

    def initial_state(self) -> AdaptiveSystemState:
        return tuple(((), 0, 0, self.budget) for _ in self.messages)

    # ------------------------------------------------------------------
    def occupied(self, state: AdaptiveSystemState) -> dict[int, int]:
        occ: dict[int, int] = {}
        for i, (taken, inj, cons, _bud) in enumerate(state):
            f = inj - cons
            if f <= 0:
                continue
            for cid in taken[len(taken) - f :]:
                occ[cid] = i
        return occ

    def _node(self, taken: tuple[int, ...], i: int) -> NodeId:
        if not taken:
            return self.messages[i].src
        return self._chan[taken[-1]].dst

    def _candidates(self, taken: tuple[int, ...], i: int) -> list[int]:
        key = (taken, i)
        hit = self._cand_memo.get(key)
        if hit is not None:
            return hit
        msg = self.messages[i]
        in_ch = INJECT if not taken else self._chan[taken[-1]]
        try:
            cands = self.fn.candidates(in_ch, self._node(taken, i), msg.dst)
            out = [c.cid for c in cands if c.cid not in taken]
        except RoutingError:
            out = []
        self._cand_memo[key] = out
        return out

    def deadlocked_set(self, state: AdaptiveSystemState) -> tuple[int, ...]:
        """OR-semantics knot among in-flight, non-arrived messages."""
        occ = self.occupied(state)
        waits: dict[int, list[int]] = {}
        for i, (taken, inj, cons, _bud) in enumerate(state):
            if not taken or cons == self.messages[i].length:
                continue
            if self._node(taken, i) == self.messages[i].dst:
                continue  # arrived: draining, will free its channels
            cands = self._candidates(taken, i)
            if not cands:
                continue
            owners = [occ.get(c) for c in cands]
            if any(o is None or o == i for o in owners):
                continue
            waits[i] = [o for o in owners if o is not None]
        S = set(waits)
        changed = True
        while changed:
            changed = False
            for mid in list(S):
                if any(o not in S for o in waits[mid]):
                    S.discard(mid)
                    changed = True
        return tuple(sorted(S))

    # ------------------------------------------------------------------
    # the adversary's moves (expanded by CycleExpander.successors)
    # ------------------------------------------------------------------
    def _options(
        self, cur: list[AdaptiveMsgState], pending: frozenset[int], last: list[str]
    ) -> dict[int, list[Option]]:
        occ = self.occupied(tuple(cur))
        options: dict[int, list[Option]] = {}
        for i in pending:
            taken, inj, cons, bud = cur[i]
            msg = self.messages[i]
            if cons == msg.length:
                last[i] = "done"
                continue
            if taken and self._node(taken, i) == msg.dst:
                # header is in its final channel: consumption proceeds
                # one flit per cycle; the very first consumption (the
                # arrival move) is still a router step and stallable
                opts_d: list[Option] = [("drain", None)]
                if cons == 0 and bud > 0:
                    opts_d.append(("stall", None))
                options[i] = opts_d
                continue
            free = [c for c in self._candidates(taken, i) if c not in occ]
            if not free:
                # blocked: frozen in the network, silently pending at
                # injection; either may retry in a later round
                if taken:
                    last[i] = "freeze"
                continue
            adv = self._adv
            opts: list[Option] = [(adv[c], c) for c in free]
            if bud > 0:
                opts.append(("stall", None))
            if not taken:
                opts.append(("wait", None))
            options[i] = opts
        return options

    def _apply(
        self, i: int, ms: AdaptiveMsgState, label: str, chan: int | None
    ) -> AdaptiveMsgState:
        taken, inj, cons, bud = ms
        if label == "stall":
            return (taken, inj, cons, bud - 1)
        length = self.messages[i].length
        if label == "drain":
            cons += 1
        else:  # a route choice: the header takes ``chan``
            assert chan is not None
            if not taken:
                return ((chan,), 1, cons, bud)
            taken = taken + (chan,)
        if inj < length and (inj - cons) < len(taken):
            inj += 1
        return (taken, inj, cons, bud)


def search_adaptive_deadlock(
    fn: AdaptiveRoutingFunction,
    messages: Sequence[AdaptiveMessage],
    *,
    budget: int = 0,
    max_states: int = 500_000,
    certificates: str | None = None,
) -> SearchResult:
    """BFS over every schedule, arbitration outcome AND route choice.

    Returns a :class:`~repro.analysis.reachability.SearchResult` whose
    ``spec`` is the searched :class:`AdaptiveSystem`; every reachable
    answer the search decides carries its minimum-cycle witness.

    ``certificates`` mirrors :func:`repro.analysis.reachability.search_deadlock`
    (the contract is :func:`repro.lint.certificates.certified_search`):
    :func:`repro.lint.certificates.adaptive_certificate` -- Duato's
    escape-channel condition (CRT008) or an acyclic full adaptive CDG
    (CRT001) -- decides DEADLOCK_FREE with zero states explored.
    """
    # lazy import: lint sits above analysis in the layering
    from repro.lint import certificates as certs

    system = AdaptiveSystem(fn, messages, budget=budget)

    def shortcut(cert: certs.Certificate) -> SearchResult | None:
        if cert.deadlock_reachable:
            return None
        return SearchResult(
            deadlock_reachable=False, witness=None, states_explored=0, spec=system
        )

    def search() -> SearchResult:
        try:
            found, explored, witness = explore(
                system, max_states=max_states, find_witness=True
            )
        except SearchLimitExceeded:
            raise SearchLimitExceeded(
                f"adaptive search exceeded {max_states} states"
            ) from None
        return SearchResult(
            deadlock_reachable=found,
            witness=witness,
            states_explored=explored,
            spec=system,
        )

    return certs.certified_search(
        certificates, lambda: certs.adaptive_certificate(fn), shortcut, search
    )
