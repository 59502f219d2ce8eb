"""The Lin--McKinley--Ni message flow model (paper Section 2).

Lin, McKinley and Ni prove deadlock freedom by showing no channel can be
held forever: *sink* channels (those that only ever deliver messages to
their final destination) are trivially *deadlock-immune*; a channel all of
whose successor channels (for every destination routed through it) are
already immune is immune too; if induction reaches every channel, the
algorithm is deadlock-free.

The paper's Section 2 observes the technique stalls on unreachable-cycle
algorithms: "The channels in an unreachable configuration form a cycle.
Hence, there seems to be no starting point from which to deduce that these
are deadlock-immune channels."  :func:`deadlock_immune_channels` implements
the induction so the experiment can show exactly that: it certifies
dimension-order meshes completely, but leaves the Figure 1 ring channels
uncertified even though Theorem 1 proves the algorithm deadlock-free --
a concrete demonstration that the flow model is sufficient-only.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.cdg.build import build_cdg
from repro.cdg.graph import reachable, strongly_connected_components
from repro.routing.base import RoutingAlgorithm
from repro.topology.channels import Channel, NodeId

Pair = tuple[NodeId, NodeId]


@dataclass
class FlowModelResult:
    """Outcome of the deadlock-immunity induction."""

    immune: set[Channel] = field(default_factory=set)
    uncertified: set[Channel] = field(default_factory=set)
    rounds: int = 0

    @property
    def certifies_deadlock_freedom(self) -> bool:
        """True iff the induction reached every used channel."""
        return not self.uncertified

    def summary(self) -> dict[str, object]:
        return {
            "channels": len(self.immune) + len(self.uncertified),
            "immune": len(self.immune),
            "uncertified": len(self.uncertified),
            "rounds": self.rounds,
            "certified": self.certifies_deadlock_freedom,
        }


def deadlock_immune_channels(
    alg: RoutingAlgorithm,
    pairs: Sequence[Pair] | None = None,
) -> FlowModelResult:
    """Run the Lin--McKinley--Ni induction on an oblivious algorithm.

    Works on the CDG restricted to the given source--destination domain.
    A channel with no outgoing dependency is a sink (every message using it
    is delivered from it); a channel becomes immune when *all* its CDG
    successors are immune.  Returns which channels the induction certifies
    and which it cannot -- for cyclic CDGs the cycle (and everything that
    can only drain through it) stays uncertified.
    """
    cdg = build_cdg(alg, pairs)
    immune: set[Channel] = set()
    remaining: set[Channel] = set(cdg.nodes)
    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        for ch in list(remaining):
            succs = list(cdg.successors(ch))
            if all(s in immune for s in succs):
                immune.add(ch)
                remaining.discard(ch)
                changed = True
    return FlowModelResult(immune=immune, uncertified=remaining, rounds=rounds)


def certification_gap(alg: RoutingAlgorithm, pairs: Sequence[Pair] | None = None) -> set[Channel]:
    """Channels the flow model cannot certify (empty iff CDG is acyclic).

    Equivalent characterisation: a channel is uncertifiable iff it can
    reach a CDG cycle; exposed for tests as a cross-check of the induction.
    """
    cdg = build_cdg(alg, pairs)
    on_cycle: set[Channel] = set()
    for scc in strongly_connected_components(cdg.adj):
        if len(scc) > 1 or any(cdg.has_edge(c, c) for c in scc):
            on_cycle.update(scc)
    return {ch for ch in cdg.nodes if not on_cycle.isdisjoint(reachable(cdg.adj, ch))}
