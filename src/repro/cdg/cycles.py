"""Cycle enumeration and topological order over plain adjacency mappings.

The repository's one simple-cycle enumerator.  It runs on the search path
(the static-certificate pre-pass of every search), so it is stdlib-only:
a fresh ``repro search`` process never imports networkx.  The CDG callers
pass ``cdg.adj`` of a networkx ``DiGraph``; the spec pre-pass passes a
``dict`` of successor ``dict``\\ s.  Either way the input maps every node to
its successors (no duplicates), in insertion order.

Output order is networkx 3.x's exactly -- certificate numbering, CRT005
evidence and ``find_cycles`` listings stay byte-identical -- which means
mirroring its data-structure choices, set iteration order included:

* :func:`simple_cycles`: self-loops first in node order, then an
  edge-order copy without loops, whose strongly connected components
  (iterative Tarjan, Nuutila's variant) feed Johnson's search.  Each
  component yields the cycles through its first node; that node is then
  removed and the component re-split.  A component's node set is
  re-collected one element at a time (``show_nodes``), and iterating it
  follows that set's order whenever it is less than half the remaining
  graph (networkx's ``FilterAtlas``).
* :func:`topological_order`: Kahn generations, as ``topological_sort``.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Collection, Hashable, Iterable, Iterator, Mapping

Adjacency = Mapping[Hashable, Collection[Hashable]]


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


def _sccs(nodes: list[int], nbrs: Callable[[int], Iterable[int]]) -> Iterator[list[int]]:
    """Strongly connected components, as ``nx.strongly_connected_components``;
    each listed in the order networkx adds its members to the set."""
    preorder: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    scc_found: set[int] = set()
    scc_queue: list[int] = []
    i = 0
    neighbors = {v: iter(nbrs(v)) for v in nodes}
    for source in nodes:
        if source in scc_found:
            continue
        queue = [source]
        while queue:
            v = queue[-1]
            if v not in preorder:
                i += 1
                preorder[v] = i
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

    whole = _sccs(list(alive), lambda v: succ[v])
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
        components.extend(component(s) for s in _sccs(order, inner) if len(s) >= 2)
