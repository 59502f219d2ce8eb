"""Channel dependency graph tests."""

import pytest

from repro.cdg import (
    build_cdg,
    cycle_summary,
    cycles_through_channel,
    dally_seitz_numbering,
    find_cycles,
    is_acyclic,
    verify_numbering,
)
from repro.cdg.build import edge_pairs
from repro.routing import RoutingAlgorithm, clockwise_ring, dimension_order_mesh
from repro.topology import mesh, ring


@pytest.fixture
def ring_alg():
    net = ring(4)
    return RoutingAlgorithm(clockwise_ring(net, 4))


@pytest.fixture
def mesh_alg():
    net = mesh((3, 3))
    return RoutingAlgorithm(dimension_order_mesh(net, 2))


def test_ring_cdg_is_single_cycle(ring_alg):
    cdg = build_cdg(ring_alg)
    assert cdg.number_of_nodes() == 4
    assert cdg.number_of_edges() == 4
    assert not is_acyclic(cdg)
    enum = find_cycles(cdg)
    assert len(enum) == 1 and not enum.truncated
    assert len(enum.cycles[0]) == 4


def test_mesh_dor_cdg_acyclic(mesh_alg):
    cdg = build_cdg(mesh_alg)
    assert is_acyclic(cdg)
    assert find_cycles(cdg).cycles == []


def test_every_used_channel_is_a_vertex(mesh_alg):
    cdg = build_cdg(mesh_alg)
    used = set()
    for s, d in [(s, d) for s in mesh_alg.network.nodes for d in mesh_alg.network.nodes if s != d]:
        used.update(mesh_alg.path(s, d))
    assert set(cdg.nodes) == used


def test_edge_pairs_annotation(ring_alg):
    cdg = build_cdg(ring_alg)
    c0 = ring_alg.network.channel_by_label("cw0")
    c1 = ring_alg.network.channel_by_label("cw1")
    pairs = edge_pairs(cdg, c0, c1)
    # every pair routing through channel 0 then 1: sources 0 (or 3..),
    # destinations beyond node 1
    assert (0, 2) in pairs
    assert all(p[0] in (0, 1, 2, 3) for p in pairs)


def test_edge_pairs_missing_edge_raises(ring_alg):
    cdg = build_cdg(ring_alg)
    c0 = ring_alg.network.channel_by_label("cw0")
    with pytest.raises(KeyError):
        edge_pairs(cdg, c0, c0)


def test_numbering_certificate_mesh(mesh_alg):
    cdg = build_cdg(mesh_alg)
    numbering = dally_seitz_numbering(cdg)
    assert verify_numbering(cdg, numbering)


def test_numbering_rejects_cyclic(ring_alg):
    cdg = build_cdg(ring_alg)
    with pytest.raises(ValueError, match="cyclic"):
        dally_seitz_numbering(cdg)


def test_verify_numbering_rejects_bad(mesh_alg):
    cdg = build_cdg(mesh_alg)
    numbering = dally_seitz_numbering(cdg)
    some_edge = cdg.edges[0]
    bad = dict(numbering)
    bad[some_edge[0]], bad[some_edge[1]] = bad[some_edge[1]], bad[some_edge[0]]
    assert not verify_numbering(cdg, bad)
    assert not verify_numbering(cdg, {})  # missing channels


def test_cycles_through_channel(ring_alg):
    cdg = build_cdg(ring_alg)
    c0 = ring_alg.network.channel_by_label("cw0")
    assert len(cycles_through_channel(cdg, c0)) == 1


def test_cycle_summary_shape(ring_alg):
    s = cycle_summary(build_cdg(ring_alg))
    assert s["acyclic"] is False
    assert s["num_cycles"] == 1
    assert s["cycle_lengths"] == [4]
    assert s["enumeration_truncated"] is False


def test_truncation_flag():
    """``truncated`` means a cycle beyond the cap exists, never merely that
    the cap was reached."""
    net = ring(4)
    alg = RoutingAlgorithm(clockwise_ring(net, 4))
    cdg = build_cdg(alg)  # exactly one simple cycle
    enum = find_cycles(cdg, max_cycles=1)
    assert len(enum) == 1 and not enum.truncated
    enum = find_cycles(cdg, max_cycles=0)  # still lists one, as evidence
    assert len(enum) == 1 and enum.truncated


@pytest.mark.parametrize(
    "edges,count",
    [
        ([(1, 2), (2, 1)], 1),
        ([(1, 2), (2, 1), (2, 3), (3, 2)], 2),
        ([(0, 1), (1, 2), (2, 0), (2, 1), (0, 0)], 3),
    ],
)
def test_truncation_at_exact_count(edges, count):
    """Regression: a graph with exactly ``max_cycles`` cycles is complete
    (no false CDG002, no ``N+`` in CDG001); one fewer is truncated."""
    import networkx as nx

    g = nx.DiGraph(edges)
    exact = find_cycles(g, max_cycles=count)
    assert len(exact) == count and not exact.truncated
    short = find_cycles(g, max_cycles=count - 1)
    kept = max(count - 1, 1)  # a cap of 0 still lists one cycle
    assert len(short) == kept and short.truncated
    assert short.cycles == exact.cycles[:kept]
    summary = cycle_summary(g, max_cycles=count)
    assert summary["num_cycles"] == count
    assert summary["enumeration_truncated"] is False
