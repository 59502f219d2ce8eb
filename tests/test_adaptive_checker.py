"""Adaptive exhaustive checker tests (Section 7 extension)."""

import pytest

from repro.analysis.adaptive_state import (
    AdaptiveMessage,
    AdaptiveSystem,
    search_adaptive_deadlock,
)
from repro.analysis.reachability import SearchLimitExceeded, Witness
from repro.campaign.scenarios import build_scenario
from repro.lint.witness import validate_witness
from repro.routing.adaptive import AdaptiveRoutingFunction, FullyAdaptiveMesh
from repro.topology import mesh, ring


class AdaptiveRing(AdaptiveRoutingFunction):
    """Either VC of the clockwise link of a ring."""

    def __init__(self, network, n):
        super().__init__(network)
        self.n = n

    def candidates(self, in_channel, node, dest):
        return self.network.channels_between(node, (node + 1) % self.n)

    def name(self):
        return f"adaptive-ring{self.n}"


class TestBasics:
    def test_message_validation(self):
        with pytest.raises(ValueError):
            AdaptiveMessage("A", "A", 2)
        with pytest.raises(ValueError):
            AdaptiveMessage("A", "B", 0)

    def test_single_message_never_deadlocks(self):
        net = mesh((3, 3))
        fn = FullyAdaptiveMesh(net, 2)
        res = search_adaptive_deadlock(fn, [AdaptiveMessage((0, 0), (2, 2), 3)])
        assert not res.deadlock_reachable
        assert res.states_explored > 1

    def test_occupancy_tracks_taken_path(self):
        net = ring(4, vcs=2)
        fn = AdaptiveRing(net, 4)
        system = AdaptiveSystem(fn, [AdaptiveMessage(0, 2, 2, tag="a")])
        c0 = net.channels_between(0, 1)[0]
        c1 = net.channels_between(1, 2)[0]
        state = (((c0.cid, c1.cid), 2, 0, 0),)
        occ = system.occupied(state)
        assert occ == {c0.cid: 0, c1.cid: 0}


class TestDeadlockVerdicts:
    def test_adaptive_ring_overload_deadlock_reachable(self):
        """Both VC layers can be filled: the knot is reachable."""
        net = ring(3, vcs=2)
        fn = AdaptiveRing(net, 3)
        msgs = [
            AdaptiveMessage(i, (i + 2) % 3, 2, tag=f"m{i}{j}")
            for i in range(3)
            for j in range(2)
        ]
        res = search_adaptive_deadlock(fn, msgs, max_states=400_000)
        assert res.deadlock_reachable
        assert len(res.deadlocked_tags) >= 3

    def test_single_layer_load_is_safe(self):
        """With one message per source the second VC layer always offers an
        escape: no schedule deadlocks (exhaustively verified)."""
        net = ring(3, vcs=2)
        fn = AdaptiveRing(net, 3)
        msgs = [AdaptiveMessage(i, (i + 2) % 3, 2, tag=f"m{i}") for i in range(3)]
        res = search_adaptive_deadlock(fn, msgs, max_states=400_000)
        assert not res.deadlock_reachable

    def test_agrees_with_oblivious_checker_on_degenerate_case(self):
        """Single-candidate adaptive == oblivious: verdicts must coincide."""
        from repro.analysis import CheckerMessage, SystemSpec, search_deadlock
        from repro.routing import RoutingAlgorithm, clockwise_ring

        n = 4
        net = ring(n)  # one VC: the adaptive ring degenerates to oblivious
        fn = AdaptiveRing(net, n)
        msgs = [AdaptiveMessage(i, (i + 3) % n, 3, tag=f"m{i}") for i in range(n)]
        # (single-candidate adaptive: state space stays small)
        adaptive = search_adaptive_deadlock(fn, msgs, max_states=400_000)

        alg = RoutingAlgorithm(clockwise_ring(net, n))
        omsgs = [
            CheckerMessage.from_channels(alg.path(i, (i + 3) % n), 3, tag=f"m{i}")
            for i in range(n)
        ]
        oblivious = search_deadlock(SystemSpec.uniform(omsgs), find_witness=False)
        assert adaptive.deadlock_reachable == oblivious.deadlock_reachable is True

    def test_budget_search_terminates(self):
        """A small stall budget keeps the search finite and sound."""
        net = ring(3, vcs=2)
        fn = AdaptiveRing(net, 3)
        msgs = [AdaptiveMessage(i, (i + 2) % 3, 2, tag=f"m{i}") for i in range(3)]
        res = search_adaptive_deadlock(fn, msgs, budget=1, max_states=400_000)
        assert not res.deadlock_reachable  # single layer: still safe


class TestGuards:
    def test_state_cap(self):
        net = ring(3, vcs=2)
        fn = AdaptiveRing(net, 3)
        msgs = [
            AdaptiveMessage(i, (i + 2) % 3, 2, tag=f"m{i}{j}")
            for i in range(3)
            for j in range(2)
        ]
        with pytest.raises(SearchLimitExceeded):
            search_adaptive_deadlock(fn, msgs, max_states=50)


class TestWitness:
    """A reachable adaptive answer carries a replayable witness."""

    @pytest.fixture(scope="class")
    def four_corners(self):
        fn, msgs = build_scenario(
            "adaptive-mesh", {"routing": "full", "dims": (2, 2), "msgs": 4}
        ).adaptive
        return fn, msgs, search_adaptive_deadlock(fn, msgs, certificates="off")

    def test_witness_replays_through_the_successor_relation(self, four_corners):
        _fn, _msgs, res = four_corners
        assert res.deadlock_reachable and res.states_explored == 12
        assert isinstance(res.witness.spec, AdaptiveSystem)
        assert validate_witness(res.witness)

    def test_final_step_deadlocks_the_reported_tags(self, four_corners):
        _fn, msgs, res = four_corners
        wit = res.witness
        assert wit.spec.deadlocked_set(wit.states[-1]) == wit.deadlocked
        assert tuple(msgs[i].tag for i in wit.deadlocked) == res.deadlocked_tags
        assert res.deadlocked_tags == ("c0", "c1", "c2", "c3")

    def test_route_choice_names_the_channel_taken(self, four_corners):
        _fn, _msgs, res = four_corners
        prev = res.witness.spec.initial_state()
        for acts, state in zip(res.witness.steps, res.witness.states):
            for act, before, after in zip(acts, prev, state):
                if act.startswith("adv:"):
                    assert after[0] == before[0] + (int(act[4:]),)
            prev = state

    def test_a_wrong_route_label_fails_validation(self, four_corners):
        _fn, _msgs, res = four_corners
        wit = res.witness
        row = list(wit.steps[0])
        other = next(
            c for c in wit.spec._chan if f"adv:{c}" not in row
        )
        row[0] = f"adv:{other}"
        forged = Witness(
            spec=wit.spec,
            steps=[tuple(row)] + wit.steps[1:],
            states=wit.states,
            deadlocked=wit.deadlocked,
        )
        assert not validate_witness(forged)

    def test_unreachable_answer_has_no_witness(self):
        fn, msgs = build_scenario(
            "adaptive-mesh", {"routing": "full", "dims": (2, 2), "msgs": 2}
        ).adaptive
        res = search_adaptive_deadlock(fn, msgs, certificates="off")
        assert not res.deadlock_reachable and res.witness is None
        assert res.deadlocked_tags == ()
