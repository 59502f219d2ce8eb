"""Cycle enumeration and topological order over plain adjacency mappings.

The repository's one simple-cycle enumerator.  It runs on the search path
(the static-certificate pre-pass of every search), so it is stdlib-only:
a fresh ``repro search`` process imports no third-party package.  The CDG
callers pass the ``adj`` of a :class:`repro.cdg.graph.DiGraph`; the spec
pre-pass passes a ``dict`` of successor ``dict``\\ s.  Either way the
input maps every node to its successors (no duplicates), in insertion
order.

Output order is networkx 3.x's exactly -- certificate numbering, CRT005
evidence and ``find_cycles`` listings stay byte-identical -- which means
mirroring its data-structure choices, set iteration order included:

* :func:`simple_cycles`: self-loops first in node order, then an
  edge-order copy without loops, whose strongly connected components
  (:func:`repro.cdg.graph.tarjan_sccs`) feed Johnson's search.  Each
  component yields the cycles through its first node; that node is then
  removed and the component re-split.  A component's node set is
  re-collected one element at a time (``show_nodes``), and iterating it
  follows that set's order whenever it is less than half the remaining
  graph (networkx's ``FilterAtlas``).
* :func:`topological_order`: Kahn generations, as ``topological_sort``.

:func:`shortest_cycle` names one cycle without enumerating any, for
callers that need evidence of a cycle but not the list.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Callable, Hashable, Iterator

from repro.cdg.graph import Adjacency, tarjan_sccs


def _generations(adj: Adjacency) -> tuple[list[Hashable], bool]:
    """Kahn's order (generation by generation) and whether it is complete."""
    indeg = dict.fromkeys(adj, 0)
    for nbrs in adj.values():
        for v in nbrs:
            indeg[v] += 1
    remaining = {v: d for v, d in indeg.items() if d > 0}
    zero = [v for v, d in indeg.items() if d == 0]
    order: list[Hashable] = []
    while zero:
        generation, zero = zero, []
        for u in generation:
            for v in adj[u]:
                remaining[v] -= 1
                if remaining[v] == 0:
                    zero.append(v)
                    del remaining[v]
        order.extend(generation)
    return order, not remaining


def topological_order(adj: Adjacency) -> list[Hashable]:
    """The nodes in ``nx.topological_sort`` order; ``ValueError`` if cyclic."""
    order, complete = _generations(adj)
    if not complete:
        raise ValueError("graph has a cycle: no topological order exists")
    return order


def is_acyclic(adj: Adjacency) -> bool:
    """True iff the directed graph has no cycle (self-loops count)."""
    return _generations(adj)[1]


def shortest_cycle(adj: Adjacency) -> list[Hashable] | None:
    """One shortest simple cycle as a node list, or None when acyclic.

    A breadth-first search from every node, in node order, keeps the first
    shortest cycle through it; O(V * (V + E)), with no enumeration.
    """
    best: list[Hashable] | None = None
    for start in adj:
        parent: dict[Hashable, Hashable] = {start: start}
        depth = {start: 0}
        frontier = deque([start])
        while frontier:
            u = frontier.popleft()
            if best is not None and depth[u] + 1 >= len(best):
                break  # nothing shorter through ``start``
            if start in adj[u]:
                cycle = [u]
                while cycle[-1] != start:
                    cycle.append(parent[cycle[-1]])
                best = cycle[::-1]
                break
            for v in adj[u]:
                if v not in parent:
                    parent[v] = u
                    depth[v] = depth[u] + 1
                    frontier.append(v)
        if best is not None and len(best) == 1:
            break  # a self-loop
    return best


def _johnson(nbrs: Callable[[int], list[int]], start: int) -> Iterator[list[int]]:
    """Johnson's search for the simple cycles through ``start``.

    The graph is frozen for the search, so neighbourhoods are listed once
    (networkx's ``_NeighborhoodCache``).  The order of the ``blocked``/``B``
    sets never reaches the output: unblocking is a closure."""
    memo: dict[int, list[int]] = {}

    def nbrs_of(v: int) -> list[int]:
        got = memo.get(v)
        if got is None:
            got = memo[v] = nbrs(v)
        return got

    path = [start]
    blocked = {start}
    B: defaultdict[int, set[int]] = defaultdict(set)
    stack = [iter(nbrs_of(start))]
    closed = [False]
    while stack:
        for w in stack[-1]:
            if w == start:
                yield path[:]
                closed[-1] = True
            elif w not in blocked:
                path.append(w)
                closed.append(False)
                stack.append(iter(nbrs_of(w)))
                blocked.add(w)
                break
        else:  # no more neighbours
            stack.pop()
            v = path.pop()
            if closed.pop():
                if closed:
                    closed[-1] = True
                unblock = {v}
                while unblock:
                    u = unblock.pop()
                    if u in blocked:
                        blocked.remove(u)
                        unblock.update(B[u])
                        B[u].clear()
            else:
                for w in nbrs_of(v):
                    B[w].add(v)


def _restricted(succ: list[dict[int, None]], inside: set[int]) -> Callable[[int], list[int]]:
    """Successors inside ``inside``, in insertion order (a subgraph view)."""

    def nbrs(v: int) -> list[int]:
        return [w for w in succ[v] if w in inside]

    return nbrs


def simple_cycles(adj: Adjacency) -> Iterator[list[Hashable]]:
    """Every simple cycle, as a node list, in ``nx.simple_cycles`` order.

    The search runs on node indices (cheap to hash); only the component
    sets, whose iteration order is part of the output order, are built
    from the nodes themselves."""
    yield from ([v] for v, nbrs in adj.items() if v in nbrs)
    # the loop-free copy: nodes indexed in first-edge order, as
    # nx.DiGraph(edges) inserts them
    index: dict[Hashable, int] = {}
    nodes: list[Hashable] = []
    succ: list[dict[int, None]] = []
    pred: list[dict[int, None]] = []
    for u, nbrs in adj.items():
        for v in nbrs:
            if v != u:
                for x in (u, v):
                    if x not in index:
                        index[x] = len(nodes)
                        nodes.append(x)
                        succ.append({})
                        pred.append({})
                succ[index[u]][index[v]] = None
                pred[index[v]][index[u]] = None
    alive = dict.fromkeys(range(len(nodes)))  # the copy's node order

    def component(members: list[int]) -> set[Hashable]:
        # added in networkx's order: a set's iteration order depends on
        # how it was built
        return set(nodes[i] for i in members)

    whole = tarjan_sccs(list(alive), succ.__getitem__)
    components = [component(c) for c in whole if len(c) >= 2]
    while components:
        c = components.pop()
        # the subgraph view's node filter, again built one add at a time
        shown = set(n for n in c)
        inside = {index[n] for n in shown}
        inner = _restricted(succ, inside)
        first = index[next(iter(c))]
        for cycle in _johnson(inner, first):
            yield [nodes[i] for i in cycle]
        del alive[first]
        for u in succ[first]:
            del pred[u][first]
        for u in pred[first]:
            del succ[u][first]
        # a view iterates its filter set when that is under half the graph
        if 2 * len(shown) < len(alive):
            order = [index[n] for n in shown if index[n] in alive]
        else:
            order = [i for i in alive if i in inside]
        components.extend(component(s) for s in tarjan_sccs(order, inner) if len(s) >= 2)
