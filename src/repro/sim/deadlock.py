"""Runtime deadlock detection (paper Definition 6).

A deadlock is the greatest set ``S`` of ACTIVE messages that can never
progress: every member is hard-blocked -- each of its candidate channels
is held by another message -- and every such holder is itself in ``S``.
Oblivious routing offers one candidate, adaptive routing several (OR
semantics: any one freeing unblocks the header).  ``S`` is computed by
fixpoint, which is the greatest-fixpoint meaning of deadlock in packet
switching networks (Stramaglia, Keiren and Zantema).

The engine records ``blocked_candidates`` for *every* hard-blocked header
(a one-element list under oblivious routing), so this fixpoint decides
every simulator deadlock, oblivious runs included.  Two consequences:

* a report names the messages of the knot *and* every header queued
  behind it (blocked on a channel a knot member holds) -- they can never
  progress either.  The report kind is still ``"wait-for-cycle"``, since
  ``S`` is non-empty exactly when the wait-for graph among its members
  has a cycle;
* a message whose ``blocked_on`` was set by losing arbitration (and that
  has not moved since) is never hard-blocked, and such edges cannot close
  a cycle: each points to a message that acquired the channel no earlier
  than the loss and, if it waits too, lost after that move.
  :func:`build_wait_for_graph` keeps the full message wait-for graph as a
  diagnostic view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import networkx as nx

from repro.sim.message import MessageStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class DeadlockReport:
    """Evidence of a detected deadlock."""

    cycle: int
    message_ids: tuple[int, ...]
    kind: str = "wait-for-cycle"  # or "quiescence"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        ids = ", ".join(map(str, self.message_ids))
        return f"deadlock({self.kind}) at cycle {self.cycle} involving messages [{ids}]"


def build_wait_for_graph(sim: "Simulator") -> nx.DiGraph:
    """Message wait-for graph of the simulator's current state.

    Edge ``m1 -> m2`` when the channel ``m1`` requested (``blocked_on``)
    is owned by ``m2``.
    """
    g = nx.DiGraph()
    live = sim.live_messages()
    for m in live:
        if m.status is MessageStatus.ACTIVE or (
            m.status is MessageStatus.PENDING and m.blocked_on is not None
        ):
            g.add_node(m.mid)
    for m in live:
        if m.blocked_on is None:
            continue
        owner = sim.channel_owner(m.blocked_on)
        if owner is not None and owner != m.mid and owner in g:
            g.add_edge(m.mid, owner)
    return g


def detect_deadlock(sim: "Simulator") -> DeadlockReport | None:
    """Return a report if the current state contains a deadlock.

    Only messages that *hold at least one channel* (ACTIVE) can be
    deadlocked per Definition 6; a PENDING message blocked at injection
    merely waits, and the channel it waits on will be released unless its
    owner is itself deadlocked.  Walks only the simulator's live messages:
    finished and not-yet-due ones hold no wait.
    """
    waits: dict[int, list[int]] = {}  # mid -> owners of every blocked candidate
    for m in sim.live_messages():
        if m.status is not MessageStatus.ACTIVE:
            continue
        if m.blocked_candidates:
            cands = m.blocked_candidates
        elif m.blocked_on is not None:
            cands = [m.blocked_on]
        else:
            continue
        owners = [sim.channel_owner(c) for c in cands]
        if any(o is None or o == m.mid for o in owners):
            continue  # some candidate free (or self-held): not hard-blocked
        waits[m.mid] = [o for o in owners if o is not None]

    S = set(waits)
    changed = True
    while changed:
        changed = False
        for mid in list(S):
            if any(owner not in S for owner in waits[mid]):
                S.discard(mid)
                changed = True
    if not S:
        return None
    return DeadlockReport(cycle=sim.cycle, message_ids=tuple(sorted(S)))
