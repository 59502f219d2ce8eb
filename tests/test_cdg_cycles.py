"""Differential pin: the stdlib cycle enumerator against networkx.

:mod:`repro.cdg.cycles` replaces ``nx.simple_cycles``,
``nx.topological_sort`` and ``nx.is_directed_acyclic_graph`` on the
certificate and CDG paths, and promises networkx's output *order*, not just
the same set: CRT001 numberings, CRT005 cycle evidence and ``find_cycles``
listings depend on it.  The order hinges on set iteration inside networkx
(the component sets its Tarjan walk builds, the subgraph views that iterate
them), so the graphs here cover int nodes in shuffled insertion order,
:class:`~repro.topology.channels.Channel` nodes (tuple hashes), string
nodes, self-loops, and sparse graphs with many strongly connected
components -- the shapes where a set-order slip changes the listing.
"""

from __future__ import annotations

import random
from itertools import islice

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.cdg.cycles import is_acyclic, simple_cycles, topological_order
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


@st.composite
def digraphs(draw):
    """Small graphs, dense up to complete, any node order."""
    n = draw(st.integers(min_value=1, max_value=9))
    order = draw(st.permutations(range(n)))
    names = _relabel(draw(st.sampled_from(KINDS)), n)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=n * n))
    g = nx.DiGraph()
    g.add_nodes_from(names[i] for i in order)
    g.add_edges_from((names[a], names[b]) for a, b in edges)
    return g


def sparse_graph(seed: int, kind: str) -> nx.DiGraph:
    """10-60 nodes at mean out-degree below ~2.2: many small strongly
    connected components, each under half the graph -- where networkx
    iterates a component's node set in set order."""
    rnd = random.Random(seed)
    n = rnd.randint(10, 60)
    p = rnd.random() * 2.2 / n
    names = _relabel(kind, n)
    rnd.shuffle(names)
    g = nx.DiGraph()
    g.add_nodes_from(names)
    for u in names:
        for v in names:
            if rnd.random() < p and (u != v or rnd.random() < 0.3):
                g.add_edge(u, v)
    return g


def _assert_same(g: nx.DiGraph) -> None:
    want = list(islice(nx.simple_cycles(g), CAP))
    got = list(islice(simple_cycles(g.adj), CAP))
    assert got == want
    dag = nx.is_directed_acyclic_graph(g)
    assert is_acyclic(g.adj) == dag
    if dag:
        assert topological_order(g.adj) == list(nx.topological_sort(g))
    else:
        with pytest.raises(ValueError, match="cycle"):
            topological_order(g.adj)


@settings(max_examples=300, deadline=None)
@given(g=digraphs())
def test_dense_small_graphs_match_networkx(g):
    _assert_same(g)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS))
def test_sparse_many_component_graphs_match_networkx(seed, kind):
    _assert_same(sparse_graph(seed, kind))


@pytest.mark.parametrize("seed,kind", SET_ORDER_CASES)
def test_set_order_regressions(seed, kind):
    """Fixed graphs whose listing changes if a component set is copied
    wholesale, its set order ignored, or its members added out of order."""
    _assert_same(sparse_graph(seed, kind))


def test_self_loops_come_first_in_node_order():
    g = nx.DiGraph([(2, 2), (0, 1), (1, 0), (0, 0)])
    assert list(simple_cycles(g.adj)) == list(nx.simple_cycles(g))
    assert list(simple_cycles(g.adj))[:2] == [[2], [0]]
    assert not is_acyclic(g.adj)


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
    assert list(adj) == list(g.nodes)
    assert [(a, b) for a, succ in adj.items() for b in succ] == list(g.edges)
    assert list(simple_cycles(adj)) == list(nx.simple_cycles(g))
