"""Topology builder tests."""


import pytest

from repro.cdg.graph import is_strongly_connected
from repro.topology import (
    from_edges,
    hypercube,
    mesh,
    ring,
    star,
    torus,
)


class TestRing:
    def test_unidirectional_counts(self):
        net = ring(5)
        assert net.num_nodes == 5
        assert net.num_channels == 5

    def test_bidirectional_counts(self):
        net = ring(5, bidirectional=True)
        assert net.num_channels == 10

    def test_virtual_channels(self):
        net = ring(4, vcs=2)
        assert net.num_channels == 8
        assert len(net.channels_between(0, 1)) == 2

    def test_strongly_connected(self):
        assert is_strongly_connected(ring(6).node_digraph().adj)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ring(2)


class TestMesh:
    def test_2d_counts(self):
        net = mesh((3, 4))
        assert net.num_nodes == 12
        # bidirectional links: 2 * (2*4 + 3*3) = 34
        assert net.num_channels == 2 * (2 * 4 + 3 * 3)

    def test_3d_nodes_are_coordinates(self):
        net = mesh((2, 2, 2))
        assert (0, 1, 1) in net
        assert net.num_nodes == 8

    def test_no_wraparound(self):
        net = mesh((3, 3))
        assert net.channels_between((2, 0), (0, 0)) == []

    def test_strongly_connected(self):
        assert is_strongly_connected(mesh((3, 3)).node_digraph().adj)

    def test_degenerate_dim_rejected(self):
        with pytest.raises(ValueError):
            mesh((1, 3))


class TestTorus:
    def test_wraparound_present(self):
        net = torus((4, 4), vcs=2)
        assert len(net.channels_between((3, 0), (0, 0))) == 2

    def test_channel_count(self):
        net = torus((4, 4), vcs=2)
        # 2 dims * 16 nodes * 2 directions * 2 vcs
        assert net.num_channels == 2 * 16 * 2 * 2

    def test_strongly_connected(self):
        assert is_strongly_connected(torus((3, 3), vcs=1).node_digraph().adj)


class TestHypercube:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_counts(self, d):
        net = hypercube(d)
        assert net.num_nodes == 2**d
        assert net.num_channels == d * 2**d  # d*2^(d-1) links, 2 dirs

    def test_neighbors_differ_by_one_bit(self):
        net = hypercube(3)
        for ch in net.channels:
            assert bin(ch.src ^ ch.dst).count("1") == 1

    def test_strongly_connected(self):
        assert is_strongly_connected(hypercube(3).node_digraph().adj)


class TestStar:
    def test_hub_links(self):
        net = star("hub", ["a", "b", "c"])
        assert net.num_channels == 6
        assert net.channels_between("hub", "a")
        assert net.channels_between("a", "hub")

    def test_unidirectional(self):
        net = star("hub", ["a"], bidirectional=False)
        assert net.num_channels == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            star("hub", [])


class TestFromEdges:
    def test_basic(self):
        net = from_edges([("A", "B"), ("B", "A")])
        assert net.num_channels == 2

    def test_bidirectional_flag(self):
        net = from_edges([("A", "B")], bidirectional=True)
        assert net.num_channels == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            from_edges([])


def test_all_builders_label_channels_uniquely():
    for net in (ring(5), mesh((3, 3)), torus((3, 3)), hypercube(3)):
        labels = [c.label for c in net.channels]
        assert all(lbl is not None for lbl in labels)
        assert len(set(labels)) == len(labels), net.name
