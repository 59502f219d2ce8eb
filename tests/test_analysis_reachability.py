"""Reachability search tests."""

import pytest

from repro.analysis import SearchLimitExceeded, SystemSpec, search_deadlock
from repro.analysis.reachability import explore
from repro.analysis.state import CheckerMessage


def msg(path, length, tag=""):
    return CheckerMessage(path=tuple(path), length=length, tag=tag)


class TestSearch:
    def test_head_on_ring_deadlocks(self):
        # two messages traversing a 4-ring in opposite phases
        a = msg([0, 1, 2], 2, "a")
        b = msg([2, 3, 0], 2, "b")
        res = search_deadlock(SystemSpec.uniform([a, b]))
        assert res.deadlock_reachable
        assert res.witness is not None
        assert res.witness.deadlocked == (0, 1)

    def test_disjoint_paths_never_deadlock(self):
        a = msg([0, 1], 3, "a")
        b = msg([2, 3], 3, "b")
        res = search_deadlock(SystemSpec.uniform([a, b]))
        assert not res.deadlock_reachable
        assert res.is_false_resource_cycle

    def test_single_message_never_deadlocks(self):
        res = search_deadlock(SystemSpec.uniform([msg([0, 1, 2, 3], 5)]))
        assert not res.deadlock_reachable

    def test_witness_is_minimal_length(self):
        a = msg([0, 1, 2], 2, "a")
        b = msg([2, 3, 0], 2, "b")
        res = search_deadlock(SystemSpec.uniform([a, b]))
        # both inject at t=0, hold two channels each by t=1, deadlock visible
        # at the state after cycle 2 at the latest
        assert res.witness.num_cycles <= 3

    def test_witness_states_consistent(self):
        a = msg([0, 1, 2], 2, "a")
        b = msg([2, 3, 0], 2, "b")
        res = search_deadlock(SystemSpec.uniform([a, b]))
        w = res.witness
        assert len(w.states) == len(w.steps)
        # replaying the actions through successors reproduces each state
        spec = w.spec
        cur = spec.initial_state()
        for expected in w.states:
            succs = {s for s, _ in spec.successors(cur)}
            assert expected in succs
            cur = expected
        assert spec.deadlocked_set(cur)

    def test_state_cap_raises(self):
        # certificates off: these disjoint-path messages are statically
        # deadlock-free, and a decided verdict would skip the BFS (and its
        # cap) entirely -- this test exercises the cap machinery itself
        msgs = [msg([i * 10 + j for j in range(5)], 3, f"m{i}") for i in range(3)]
        with pytest.raises(SearchLimitExceeded):
            search_deadlock(SystemSpec.uniform(msgs), max_states=5, certificates="off")

    def test_budget_monotonicity(self):
        """More stall budget can only help the adversary."""
        from repro.core.generalized import generalized_messages

        msgs = generalized_messages(1)
        r0 = search_deadlock(SystemSpec.uniform(msgs, budget=0), find_witness=False)
        r1 = search_deadlock(SystemSpec.uniform(msgs, budget=1), find_witness=False)
        assert not r0.deadlock_reachable
        assert r1.deadlock_reachable

    def test_no_witness_mode(self):
        a = msg([0, 1, 2], 2, "a")
        b = msg([2, 3, 0], 2, "b")
        res = search_deadlock(SystemSpec.uniform([a, b]), find_witness=False)
        assert res.deadlock_reachable and res.witness is None

    def test_symmetry_reduction_preserves_verdict(self):
        """Identical message copies: the search, always reduced, agrees
        with the unreduced oracle and explores less."""
        from repro.core.cyclic_dependency import build_cyclic_dependency_network

        cdn = build_cyclic_dependency_network()
        msgs = cdn.checker_messages()
        extra = msgs + [CheckerMessage(msgs[1].path, msgs[1].length, "M2c")]
        spec = SystemSpec.uniform(extra)
        found, explored, _ = explore(
            spec, max_states=12_000_000, find_witness=False, canon=None
        )
        reduced = search_deadlock(
            spec, max_states=12_000_000, find_witness=False, certificates="off"
        )
        assert reduced.deadlock_reachable == found
        assert reduced.states_explored < explored

    def test_symmetry_reduction_noop_without_duplicates(self):
        a = msg([0, 1, 2], 2, "a")
        b = msg([2, 3, 0], 2, "b")
        spec = SystemSpec.uniform([a, b])
        _, explored, _ = explore(
            spec, max_states=2_000_000, find_witness=False, canon=None
        )
        reduced = search_deadlock(spec, find_witness=False, certificates="off")
        assert reduced.states_explored == explored

    def test_symmetric_deadlock_still_found(self):
        """Two identical head-on messages: reduction must not lose the bug."""
        a = msg([0, 1, 2], 2, "a")
        b = msg([2, 3, 0], 2, "b")
        twin_a = msg([0, 1, 2], 2, "a2")
        res = search_deadlock(
            SystemSpec.uniform([a, b, twin_a]), find_witness=False
        )
        assert res.deadlock_reachable

    def test_witness_render_mentions_tags(self):
        a = msg([0, 1, 2], 2, "alpha")
        b = msg([2, 3, 0], 2, "beta")
        res = search_deadlock(SystemSpec.uniform([a, b]))
        out = res.witness.render()
        assert "alpha" in out and "beta" in out
