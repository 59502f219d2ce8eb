"""CDG construction from an oblivious routing algorithm.

For oblivious routing the dependency relation is exactly the set of
consecutive channel pairs over all defined source--destination paths
(Definition 2 applied pointwise).  We record, per dependency edge, the set
of (source, destination) pairs that induce it -- the unreachable-configuration
analysis needs to know *which messages* realise each dependency, not merely
that it exists (the "static dependencies vs dynamic interactions" distinction
the paper draws in Section 2).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.cdg.graph import DiGraph
from repro.routing.base import RoutingAlgorithm
from repro.topology.channels import Channel, NodeId

Pair = tuple[NodeId, NodeId]


@dataclass
class DependencyInfo:
    """Metadata attached to one CDG edge ``c1 -> c2``."""

    pairs: set[Pair] = field(default_factory=set)

    def add(self, pair: Pair) -> None:
        self.pairs.add(pair)

    def __len__(self) -> int:
        return len(self.pairs)


def build_cdg(
    alg: RoutingAlgorithm,
    pairs: Sequence[Pair] | None = None,
) -> DiGraph:
    """Build the channel dependency graph of ``alg``.

    Parameters
    ----------
    alg:
        The routing algorithm (paths are materialised through it).
    pairs:
        Source--destination domain.  Defaults to the algorithm's defined
        pairs (table routing) or all ordered node pairs.

    Returns
    -------
    DiGraph
        Vertices are :class:`~repro.topology.channels.Channel` objects.  Every
        channel used by at least one path appears as a vertex (including
        sink channels with no outgoing dependency).  Edge attribute ``info``
        is a :class:`DependencyInfo` listing the inducing pairs.
    """
    from repro.routing.properties import _domain  # shared domain logic

    g = DiGraph(name=f"cdg({alg.fn.name()})")
    for s, d in _domain(alg, pairs):
        path = alg.try_path(s, d)
        if path is None:
            continue
        for ch in path:
            if ch not in g:
                g.add_node(ch)
        for a, b in zip(path, path[1:]):
            data = g.get_edge_data(a, b)
            if data is None:
                info = DependencyInfo()
                g.add_edge(a, b, info=info)
            else:
                info = data["info"]
            info.add((s, d))
    return g


def edge_pairs(g: DiGraph, c1: Channel, c2: Channel) -> set[Pair]:
    """The (source, destination) pairs inducing dependency ``c1 -> c2``."""
    data = g.get_edge_data(c1, c2)
    if data is None:
        raise KeyError(f"no dependency {c1!r} -> {c2!r}")
    return set(data["info"].pairs)
