"""Figure 1 / Theorem 1 tests -- the paper's central result."""

import pytest

from repro.analysis import SystemSpec, search_deadlock
from repro.analysis.state import CheckerMessage
from repro.cdg import build_cdg, dally_seitz_numbering, find_cycles, is_acyclic
from repro.cdg.graph import is_strongly_connected
from repro.core.cyclic_dependency import (
    FIG1_MESSAGES,
    RING_ORDER,
    build_cyclic_dependency_network,
)
from repro.routing.properties import (
    is_coherent,
    is_connected,
    is_input_channel_independent,
    is_minimal,
    is_suffix_closed,
)


@pytest.fixture(scope="module")
def cdn():
    return build_cyclic_dependency_network()


class TestConstruction:
    def test_strongly_connected(self, cdn):
        assert is_strongly_connected(cdn.network.node_digraph().adj)

    def test_ring_has_14_channels(self, cdn):
        assert len(cdn.cycle_channels) == 14
        assert len(RING_ORDER) == 14

    def test_exception_paths_follow_the_prose(self, cdn):
        alg = cdn.algorithm
        # M1: Src cs N* A1 P1 D4 X1 P2 D1
        p = alg.path("Src", "D1")
        nodes = ["Src"] + [c.dst for c in p]
        assert nodes == ["Src", "N*", "A1", "P1", "D4", "X1", "P2", "D1"]
        # M2 passes through D1 before D2
        p2 = alg.path("Src", "D2")
        n2 = [c.dst for c in p2]
        assert "D1" in n2 and n2[-1] == "D2"
        # M3 through D2, M4 through D3
        assert "D2" in [c.dst for c in alg.path("Src", "D3")]
        assert "D3" in [c.dst for c in alg.path("Src", "D4")]

    def test_hold_counts_match_theorem1(self, cdn):
        """M1/M3 hold 3 ring channels, M2/M4 hold 4 (Theorem 1's counts)."""
        alg = cdn.algorithm
        ring_ids = {c.cid for c in cdn.cycle_channels}
        for tag, expect in [("M1", 4), ("M2", 5), ("M3", 4), ("M4", 5)]:
            path = alg.path(*cdn.message_pairs[tag])
            in_ring = sum(1 for c in path if c.cid in ring_ids)
            # uses expect ring channels; holds expect-1 (blocked at the last)
            assert in_ring == expect, tag
            assert FIG1_MESSAGES[tag]["min_length"] == expect - 1

    def test_approach_counts_match_theorem1(self, cdn):
        """M1/M3 use 2 channels from cs to the cycle, M2/M4 use 3."""
        alg = cdn.algorithm
        ring_ids = {c.cid for c in cdn.cycle_channels}
        for tag, expect in [("M1", 2), ("M2", 3), ("M3", 2), ("M4", 3)]:
            path = alg.path(*cdn.message_pairs[tag])
            assert path[0] is cdn.shared_channel
            first_ring = next(i for i, c in enumerate(path) if c.cid in ring_ids)
            assert first_ring - 1 == expect, tag

    def test_all_pairs_covered(self, cdn):
        assert cdn.routing.covers_all_pairs()

    def test_hub_relay_for_ordinary_pairs(self, cdn):
        alg = cdn.algorithm
        assert alg.hops("P3", "D1") == 2
        assert alg.hops("N*", "X4") == 1
        assert alg.hops("Src", "X1") == 2  # not an exception pair


class TestRoutingFunctionForm:
    def test_connected_but_none_of_the_corollary_forms(self, cdn):
        alg = cdn.algorithm
        # include hub-relay pairs so the input-channel dependence at N*
        # (cs vs other in-channels toward the same D_i) is in the domain
        pairs = list(cdn.message_pairs.values()) + [
            ("P3", "D1"), ("X1", "D2"), ("N*", "D3"), ("Src", "X1")
        ]
        assert is_connected(alg, pairs)
        assert not is_minimal(alg, pairs)
        assert not is_suffix_closed(alg, pairs)
        assert not is_coherent(alg, pairs)
        assert not is_input_channel_independent(alg, pairs)


class TestCDG:
    def test_exactly_one_cycle_of_length_14(self, cdn):
        cdg = build_cdg(cdn.algorithm)
        assert not is_acyclic(cdg)
        enum = find_cycles(cdg)
        assert not enum.truncated
        assert len(enum.cycles) == 1
        assert len(enum.cycles[0]) == 14
        assert {c.cid for c in enum.cycles[0]} == {c.cid for c in cdn.cycle_channels}

    def test_no_dally_seitz_certificate_exists(self, cdn):
        with pytest.raises(ValueError, match="cyclic"):
            dally_seitz_numbering(build_cdg(cdn.algorithm))


class TestTheorem1:
    """The headline result: the cycle is unreachable under synchrony."""

    def test_no_deadlock_minimum_lengths(self, cdn):
        res = search_deadlock(SystemSpec.uniform(cdn.checker_messages(), budget=0))
        assert res.is_false_resource_cycle

    def test_no_deadlock_longer_messages(self, cdn):
        msgs = [
            CheckerMessage(m.path, m.length + 2, m.tag) for m in cdn.checker_messages()
        ]
        res = search_deadlock(SystemSpec.uniform(msgs, budget=0))
        assert res.is_false_resource_cycle

    def test_no_deadlock_with_extra_copies(self, cdn):
        """Theorem 1's 'more than four messages' case."""
        msgs = cdn.checker_messages()
        extra = msgs + [
            CheckerMessage(msgs[1].path, msgs[1].length, "M2copy"),
            CheckerMessage(msgs[3].path, msgs[3].length, "M4copy"),
        ]
        res = search_deadlock(
            SystemSpec.uniform(extra, budget=0), max_states=12_000_000, find_witness=False
        )
        assert res.is_false_resource_cycle

    def test_deadlock_with_one_cycle_of_delay(self, cdn):
        """Section 6's observation: a single cycle of router delay suffices."""
        res = search_deadlock(SystemSpec.uniform(cdn.checker_messages(), budget=1))
        assert res.deadlock_reachable
