"""Differential pin: the stdlib graph code against networkx.

:mod:`repro.cdg.cycles` replaces ``nx.simple_cycles``,
``nx.topological_sort`` and ``nx.is_directed_acyclic_graph`` on the
certificate and CDG paths, and :mod:`repro.cdg.graph` replaces
``nx.DiGraph``, ``nx.strongly_connected_components``,
``nx.is_strongly_connected``, ``nx.has_path`` and the BFS hop distances.
Both promise networkx's output *order*, not just the same set: CRT001
numberings, CRT005 cycle evidence and ``find_cycles`` listings depend on
it.  The order hinges on set iteration inside networkx
(the component sets its Tarjan walk builds, the subgraph views that iterate
them), so the graphs here cover int nodes in shuffled insertion order,
:class:`~repro.topology.channels.Channel` nodes (tuple hashes), string
nodes, self-loops, and sparse graphs with many strongly connected
components -- the shapes where a set-order slip changes the listing.
Each graph is built twice by the same calls, once as a
:class:`repro.cdg.graph.DiGraph` and once as the networkx oracle.
"""

from __future__ import annotations

import random
from itertools import islice

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.cdg.cycles import is_acyclic, shortest_cycle, simple_cycles, topological_order
from repro.cdg.graph import (
    DiGraph,
    bfs_distances,
    is_strongly_connected,
    reachable,
    strongly_connected_components,
)
from repro.lint.certificates import spec_adjacency, spec_dependency_graph
from repro.analysis.state import CheckerMessage, SystemSpec
from repro.topology.channels import Channel

#: compare this many cycles (a prefix of an identical sequence is
#: identical); keeps dense draws from enumerating millions
CAP = 2000

#: (seed, kind) graphs from :func:`sparse_graph` whose listing changes if
#: a component set is copied wholesale (6, 147), its set order is ignored
#: (145, 150), or its members are added out of Tarjan order (3, 28); the
#: int and Channel hashes are fixed across processes, unlike str's
SET_ORDER_CASES = [
    (6, "int"), (147, "channel"), (145, "channel"), (150, "int"),
    (3, "channel"), (28, "int"),
]

KINDS = ("int", "channel", "str")


def _relabel(kind: str, n: int) -> list:
    if kind == "int":
        return list(range(n))
    if kind == "channel":
        return [Channel(37 * i + 5, f"n{i}", f"n{i + 1}") for i in range(n)]
    return [f"node-{i}" for i in range(n)]


Pair = tuple[DiGraph, nx.DiGraph]


def _both(nodes: list, edges: list) -> Pair:
    """The same ``add_node`` then ``add_edge`` calls on both graphs; an edge
    may name a node not added yet."""
    ours, oracle = DiGraph(), nx.DiGraph()
    for g in (ours, oracle):
        for v in nodes:
            g.add_node(v)
        for u, v in edges:
            g.add_edge(u, v)
    return ours, oracle


@st.composite
def digraphs(draw) -> Pair:
    """Small graphs, dense up to complete, any node order."""
    n = draw(st.integers(min_value=1, max_value=9))
    order = draw(st.permutations(range(n)))
    names = _relabel(draw(st.sampled_from(KINDS)), n)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=n * n))
    return _both([names[i] for i in order], [(names[a], names[b]) for a, b in edges])


@st.composite
def partial_digraphs(draw) -> Pair:
    """Like :func:`digraphs`, but only a prefix of the nodes is added up
    front: the rest enter through edges, as ``build_cdg`` adds them."""
    n = draw(st.integers(min_value=1, max_value=9))
    order = draw(st.permutations(range(n)))
    names = _relabel(draw(st.sampled_from(KINDS)), n)
    upfront = draw(st.integers(min_value=1, max_value=n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=n * n))
    return _both(
        [names[i] for i in order[:upfront]], [(names[a], names[b]) for a, b in edges]
    )


def sparse_graph(seed: int, kind: str) -> Pair:
    """10-60 nodes at mean out-degree below ~2.2: many small strongly
    connected components, each under half the graph -- where networkx
    iterates a component's node set in set order."""
    rnd = random.Random(seed)
    n = rnd.randint(10, 60)
    p = rnd.random() * 2.2 / n
    names = _relabel(kind, n)
    rnd.shuffle(names)
    edges = [
        (u, v)
        for u in names
        for v in names
        if rnd.random() < p and (u != v or rnd.random() < 0.3)
    ]
    return _both(names, edges)


def _assert_same(pair: Pair) -> None:
    g, oracle = pair
    assert list(g.nodes) == list(oracle.nodes)
    assert g.edges == list(oracle.edges)
    want = list(islice(nx.simple_cycles(oracle), CAP))
    got = list(islice(simple_cycles(g.adj), CAP))
    assert got == want
    dag = nx.is_directed_acyclic_graph(oracle)
    assert is_acyclic(g.adj) == dag
    if dag:
        assert topological_order(g.adj) == list(nx.topological_sort(oracle))
    else:
        with pytest.raises(ValueError, match="cycle"):
            topological_order(g.adj)


def _assert_same_traversals(pair: Pair) -> None:
    """SCCs (component order and each set's iteration order), strong
    connectivity, reachability and BFS distances (discovery order)."""
    g, oracle = pair
    got = [list(c) for c in strongly_connected_components(g.adj)]
    assert got == [list(c) for c in nx.strongly_connected_components(oracle)]
    if oracle.number_of_nodes():
        assert is_strongly_connected(g.adj) == nx.is_strongly_connected(oracle)
    for s in oracle.nodes:
        reach = reachable(g.adj, s)
        assert reach == nx.descendants(oracle, s) | {s}
        assert all((t in reach) == nx.has_path(oracle, s, t) for t in oracle.nodes)
        want = nx.single_source_shortest_path_length(oracle, s)
        assert list(bfs_distances(g.adj, s).items()) == list(want.items())


@settings(max_examples=300, deadline=None)
@given(pair=digraphs())
def test_dense_small_graphs_match_networkx(pair):
    _assert_same(pair)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS))
def test_sparse_many_component_graphs_match_networkx(seed, kind):
    _assert_same(sparse_graph(seed, kind))


@settings(max_examples=300, deadline=None)
@given(pair=partial_digraphs())
def test_traversals_match_networkx(pair):
    _assert_same(pair)
    _assert_same_traversals(pair)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS))
def test_sparse_graph_traversals_match_networkx(seed, kind):
    _assert_same_traversals(sparse_graph(seed, kind))


@pytest.mark.parametrize("seed,kind", SET_ORDER_CASES)
def test_set_order_regressions(seed, kind):
    """Fixed graphs whose listing changes if a component set is copied
    wholesale, its set order ignored, or its members added out of order."""
    _assert_same(sparse_graph(seed, kind))
    _assert_same_traversals(sparse_graph(seed, kind))


@settings(max_examples=300, deadline=None)
@given(pair=digraphs())
def test_shortest_cycle_is_a_shortest_networkx_cycle(pair):
    ours, oracle = pair
    cycle = shortest_cycle(ours.adj)
    lengths = [len(c) for c in nx.simple_cycles(oracle)]
    if not lengths:
        assert cycle is None
        return
    assert len(cycle) == min(lengths)
    assert len(set(cycle)) == len(cycle)
    assert all(oracle.has_edge(u, cycle[(i + 1) % len(cycle)]) for i, u in enumerate(cycle))


def test_self_loops_come_first_in_node_order():
    g, oracle = _both([], [(2, 2), (0, 1), (1, 0), (0, 0)])
    assert list(simple_cycles(g.adj)) == list(nx.simple_cycles(oracle))
    assert list(simple_cycles(g.adj))[:2] == [[2], [0]]
    assert not is_acyclic(g.adj)


def test_edge_data_is_the_stored_dict_and_merges():
    """``add_edge`` keeps one attribute dict per edge, as networkx does:
    a repeated edge merges its keywords, and ``get_edge_data`` hands back
    the stored dict (``build_cdg`` grows ``info`` through it)."""
    g, oracle = DiGraph(name="cdg"), nx.DiGraph(name="cdg")
    for h in (g, oracle):
        h.add_edge("a", "b", info=[1])
        h.add_edge("a", "b", weight=2)
        h.add_edge("b", "a")
        h.get_edge_data("a", "b")["info"].append(3)
    assert g.get_edge_data("a", "b") == oracle.get_edge_data("a", "b") == {
        "info": [1, 3], "weight": 2,
    }
    assert g.get_edge_data("b", "a") == oracle.get_edge_data("b", "a") == {}
    assert g.get_edge_data("a", "c") is None and g.get_edge_data("c", "a") is None
    assert g.has_edge("b", "a") and not g.has_edge("a", "a") and not g.has_edge("c", "a")
    assert "a" in g and "c" not in g
    assert list(g.successors("a")) == list(oracle.successors("a")) == ["b"]
    assert (g.number_of_nodes(), g.number_of_edges()) == (2, 2)
    assert g.name == oracle.name == "cdg"


def test_strong_connectivity_of_the_null_graph_is_undefined():
    with pytest.raises(ValueError, match="null graph"):
        is_strongly_connected({})


def test_spec_adjacency_matches_the_networkx_graph():
    spec = SystemSpec.uniform(
        [
            CheckerMessage(path=(4, 0, 1, 2), length=2, tag="a"),
            CheckerMessage(path=(1, 2, 3, 0), length=2, tag="b"),
            CheckerMessage(path=(3, 0, 5), length=1, tag="c"),
        ],
        budget=0,
    )
    adj = spec_adjacency(spec)
    g = spec_dependency_graph(spec)
    oracle = nx.DiGraph()
    oracle.add_nodes_from(adj)
    oracle.add_edges_from((a, b) for a, succ in adj.items() for b in succ)
    assert list(adj) == list(g.nodes) == list(oracle.nodes)
    assert [(a, b) for a, succ in adj.items() for b in succ] == g.edges == list(oracle.edges)
    assert list(simple_cycles(adj)) == list(nx.simple_cycles(nx.DiGraph(g.adj)))
