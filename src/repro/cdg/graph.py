"""A small directed graph and the traversals the analyses need, stdlib only.

The paper's analysis objects are small digraphs: the channel dependency
graph (Definition 2, one vertex per channel, the inducing pairs on each
edge), the message wait-for graph (Definition 6) and the node digraph
behind hop distances and strong connectivity.  :class:`DiGraph` stores
them as one successor map, ``node -> {successor: edge attributes}``, in
insertion order; :attr:`DiGraph.adj` is that map, so the functions here
and in :mod:`repro.cdg.cycles` take either a graph's ``adj`` or any plain
mapping of nodes to successor collections.

Node and edge order is networkx 3.x's ``DiGraph`` order exactly (a node
is added the first time it is named, as an edge's tail before its head),
and :func:`strongly_connected_components` and :func:`bfs_distances`
follow networkx's traversal order, so cycle listings, Dally--Seitz
numberings, lint evidence and witnesses do not depend on which library
built the graph.  networkx itself is a test oracle only
(``tests/test_cdg_cycles.py``).
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Hashable, Iterable, Iterator, Mapping
from typing import Any

Adjacency = Mapping[Hashable, Collection[Hashable]]


class DiGraph:
    """A simple directed graph (self-loops allowed, no parallel edges).

    Each edge carries the keyword attributes it was added with, as a dict
    that :meth:`get_edge_data` returns (the CDG keeps its
    :class:`~repro.cdg.build.DependencyInfo` under ``info``).
    """

    __slots__ = ("name", "_succ")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._succ: dict[Any, dict[Any, dict[str, Any]]] = {}

    def add_node(self, n: Hashable) -> None:
        """Add ``n`` (idempotent)."""
        if n not in self._succ:
            self._succ[n] = {}

    def add_edge(self, u: Hashable, v: Hashable, **attrs: Any) -> None:
        """Add ``u -> v`` (and either endpoint not yet present), merging
        ``attrs`` into the edge's data when it exists already."""
        succ = self._succ
        if u not in succ:
            succ[u] = {}
        if v not in succ:
            succ[v] = {}
        data = succ[u].get(v)
        if data is None:
            succ[u][v] = attrs
        else:
            data.update(attrs)

    def __contains__(self, n: object) -> bool:
        return n in self._succ

    @property
    def adj(self) -> dict[Any, dict[Any, dict[str, Any]]]:
        """``node -> {successor: edge data}``, in insertion order (read only
        by convention)."""
        return self._succ

    @property
    def nodes(self) -> Collection[Any]:
        """The nodes, in insertion order."""
        return self._succ.keys()

    @property
    def edges(self) -> list[tuple[Any, Any]]:
        """The edges ``(u, v)``, grouped by tail in node order."""
        return [(u, v) for u, nbrs in self._succ.items() for v in nbrs]

    def successors(self, n: Hashable) -> Iterator[Any]:
        return iter(self._succ[n])

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return u in self._succ and v in self._succ[u]

    def get_edge_data(self, u: Hashable, v: Hashable) -> dict[str, Any] | None:
        """The attribute dict of ``u -> v`` (the stored one), or ``None``."""
        nbrs = self._succ.get(u)
        return None if nbrs is None else nbrs.get(v)

    def number_of_nodes(self) -> int:
        return len(self._succ)

    def number_of_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._succ.values())


def tarjan_sccs(
    nodes: Iterable[Hashable], nbrs: Callable[[Any], Iterable[Any]]
) -> Iterator[list[Any]]:
    """Strongly connected components reachable from ``nodes`` (iterative
    Tarjan, Nuutila's variant), in networkx's order; each is listed in the
    order networkx adds its members to the component set."""
    preorder: dict[Any, int] = {}
    lowlink: dict[Any, int] = {}
    scc_found: set[Any] = set()
    scc_queue: list[Any] = []
    i = 0
    neighbors: dict[Any, Iterator[Any]] = {}
    for source in nodes:
        if source in scc_found:
            continue
        queue = [source]
        while queue:
            v = queue[-1]
            if v not in preorder:
                i += 1
                preorder[v] = i
                neighbors[v] = iter(nbrs(v))
            done = True
            for w in neighbors[v]:
                if w not in preorder:
                    queue.append(w)
                    done = False
                    break
            if not done:
                continue
            lowlink[v] = preorder[v]
            for w in nbrs(v):
                if w not in scc_found:
                    if preorder[w] > preorder[v]:
                        lowlink[v] = min(lowlink[v], lowlink[w])
                    else:
                        lowlink[v] = min(lowlink[v], preorder[w])
            queue.pop()
            if lowlink[v] == preorder[v]:
                scc = [v]
                while scc_queue and preorder[scc_queue[-1]] > preorder[v]:
                    scc.append(scc_queue.pop())
                scc_found.update(scc)
                yield scc
            else:
                scc_queue.append(v)


def strongly_connected_components(adj: Adjacency) -> Iterator[set[Any]]:
    """The strongly connected components, as ``nx.strongly_connected_components``
    yields them: same component order, and each set built in the same
    member order (so it iterates alike)."""
    for scc in tarjan_sccs(adj, adj.__getitem__):
        yield set(scc)


def is_strongly_connected(adj: Adjacency) -> bool:
    """True iff every node reaches every other; ``ValueError`` on the
    null graph, where connectivity is undefined (as networkx)."""
    if not adj:
        raise ValueError("connectivity is undefined for the null graph")
    return len(next(strongly_connected_components(adj))) == len(adj)


def bfs_distances(adj: Adjacency, source: Hashable) -> dict[Any, int]:
    """Hop distance from ``source`` to every node it reaches (itself at 0),
    in BFS discovery order, as ``nx.single_source_shortest_path_length``."""
    dist = {source: 0}
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = level
                    nxt.append(w)
        frontier = nxt
    return dist


def reachable(adj: Adjacency, source: Hashable) -> set[Any]:
    """Every node with a path from ``source``, ``source`` included: ``t``
    is in it iff ``nx.has_path(g, source, t)``."""
    seen = {source}
    stack = [source]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen
