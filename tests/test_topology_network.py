"""Network multigraph unit tests."""

import pytest

from repro.topology import Network


@pytest.fixture
def triangle():
    net = Network("tri")
    net.add_channel("A", "B", label="ab")
    net.add_channel("B", "C", label="bc")
    net.add_channel("C", "A", label="ca")
    return net


def test_nodes_and_channels_counts(triangle):
    assert triangle.num_nodes == 3
    assert triangle.num_channels == 3
    assert set(triangle.nodes) == {"A", "B", "C"}


def test_channel_lookup_by_label_and_cid(triangle):
    ab = triangle.channel_by_label("ab")
    assert ab.src == "A" and ab.dst == "B"
    assert triangle.channel(ab.cid) is ab


def test_unknown_label_raises(triangle):
    with pytest.raises(KeyError, match="nope"):
        triangle.channel_by_label("nope")


def test_duplicate_label_rejected():
    net = Network()
    net.add_channel("A", "B", label="x")
    with pytest.raises(ValueError, match="duplicate"):
        net.add_channel("B", "A", label="x")


def test_self_loop_rejected():
    net = Network()
    with pytest.raises(ValueError, match="self-loop"):
        net.add_channel("A", "A")


def test_multigraph_parallel_channels():
    net = Network()
    c0 = net.add_channel("A", "B", vc=0)
    c1 = net.add_channel("A", "B", vc=1)
    assert c0 != c1
    assert net.channels_between("A", "B") == [c0, c1]


def test_in_out_adjacency(triangle):
    assert [c.label for c in triangle.channels_out("A")] == ["ab"]
    assert [c.label for c in triangle.channels_in("A")] == ["ca"]
    assert triangle.neighbors_out("A") == ["B"]
    assert triangle.degree_out("A") == 1


def test_contains_node_and_channel(triangle):
    ab = triangle.channel_by_label("ab")
    assert "A" in triangle
    assert ab in triangle
    assert "Z" not in triangle


def test_add_bidirectional():
    net = Network()
    fwd, rev = net.add_bidirectional("A", "B", label="link")
    assert fwd.src == "A" and rev.src == "B"
    assert net.channel_by_label("link+") is fwd
    assert net.channel_by_label("link-") is rev


def test_distances_and_cache_invalidation(triangle):
    assert triangle.distance("A", "C") == 2
    triangle.invalidate_caches()
    triangle.add_channel("A", "C", label="shortcut")
    triangle.invalidate_caches()
    assert triangle.distance("A", "C") == 1


def test_distances_follow_mutation_without_invalidation():
    """Adding a channel or node drops the cached distances by itself:
    minimality (routing.properties, RTE003) reads them."""
    net = Network("ring3")
    for a, b in ((0, 1), (1, 2), (2, 0)):
        net.add_channel(a, b)
    assert net.distance(0, 2) == 2
    net.add_channel(0, 2)
    assert net.distance(0, 2) == 1
    net.add_channel(2, 3)
    net.add_channel(3, 0)
    assert net.distance(0, 3) == 2
    net.add_node(4)
    assert net.shortest_path_lengths()[4] == {4: 0}


def test_to_networkx_roundtrip(triangle):
    g = triangle.to_networkx()
    assert g.number_of_nodes() == 3
    assert g.number_of_edges() == 3
    # channel objects ride along on edges
    datas = [d["channel"].label for _, _, d in g.edges(data=True)]
    assert sorted(datas) == ["ab", "bc", "ca"]


def test_node_digraph_collapses_parallels():
    net = Network()
    net.add_channel("A", "B", vc=0)
    net.add_channel("A", "B", vc=1)
    g = net.node_digraph()
    assert g.number_of_edges() == 1
