"""Cycle classification (classify_cycle / classify_configuration) tests."""

import pytest

from repro.analysis.classify import (
    MAX_SCENARIOS,
    classify_configuration,
    classify_cycle,
    messages_for_cycle,
)
from repro.analysis.reachability import SearchLimitExceeded
from repro.cdg import build_cdg, find_cycles
from repro.core.cyclic_dependency import build_cyclic_dependency_network
from repro.lint.tiling import cycle_runs, enumerate_tilings
from repro.routing import RoutingAlgorithm, clockwise_ring
from repro.topology import ring


@pytest.fixture(scope="module")
def ring_setup():
    net = ring(4)
    alg = RoutingAlgorithm(clockwise_ring(net, 4))
    cdg = build_cdg(alg)
    cycle = find_cycles(cdg).cycles[0]
    return alg, cycle


def _cids(channels):
    return [ch.cid for ch in channels]


class TestCycleRuns:
    def test_full_run(self, ring_setup):
        alg, cycle = ring_setup
        path = alg.path(0, 3)
        runs = cycle_runs(_cids(cycle), _cids(path))
        assert len(runs) == 1
        assert runs[0][1] == 3

    def test_empty_path_returns_empty(self, ring_setup):
        _alg, cycle = ring_setup
        assert cycle_runs(_cids(cycle), []) == []

    def test_non_cycle_channels_skipped(self):
        """Approach channels of Fig. 1 do not contribute runs."""
        cdn = build_cyclic_dependency_network()
        alg = cdn.algorithm
        path = alg.path(*cdn.message_pairs["M1"])
        runs = cycle_runs(_cids(cdn.cycle_channels), _cids(path))
        assert len(runs) == 1
        assert runs[0] == (0, 4)  # M1 enters at ring position 0, uses 4 channels


class TestMessagesForCycle:
    def test_all_pairs_intersect_ring_cycle(self, ring_setup):
        alg, cycle = ring_setup
        cands = messages_for_cycle(alg, cycle)
        assert len(cands) == 12  # every ordered pair crosses the ring


class TestEnumerateTilings:
    def test_ring_has_tilings(self, ring_setup):
        alg, cycle = ring_setup
        cands = messages_for_cycle(alg, cycle)
        tilings = enumerate_tilings(len(cycle), cands)
        assert tilings
        for t in tilings:
            assert sum(t.held_lengths) == len(cycle)
            assert len(set(t.members)) == len(t.members)

    def test_empty_candidates(self, ring_setup):
        _alg, cycle = ring_setup
        assert enumerate_tilings(len(cycle), {}) == []


class TestClassifyCycle:
    def test_ring_cycle_is_reachable_deadlock(self, ring_setup):
        alg, cycle = ring_setup
        cls = classify_cycle(alg, cycle, length_slack=0, extra_copies=1)
        assert cls.deadlock_reachable
        assert not cls.is_false_resource_cycle
        assert cls.tilings_tested >= 1

    def test_fig1_cycle_is_false_resource_cycle(self):
        cdn = build_cyclic_dependency_network()
        alg = cdn.algorithm
        cdg = build_cdg(alg)
        cycle = find_cycles(cdg).cycles[0]
        cls = classify_cycle(
            alg,
            cycle,
            pairs=list(cdn.message_pairs.values()),
            length_slack=0,
            extra_copies=1,
        )
        assert cls.is_false_resource_cycle
        assert cls.scenarios_tested >= 1

    def test_scenario_cap_is_a_named_failure_not_a_verdict(self):
        """Figure 1's cycle at ``length_slack=4`` asks for 625 scenarios;
        none of the first 256 deadlocks, which says nothing about the
        rest, so the classifier names the cap rather than calling the
        cycle a false resource cycle."""
        cdn = build_cyclic_dependency_network()
        cycle = find_cycles(build_cdg(cdn.algorithm)).cycles[0]
        with pytest.raises(SearchLimitExceeded, match=f"first {MAX_SCENARIOS} cycle scenarios"):
            classify_cycle(cdn.algorithm, cycle, length_slack=4)
        # 256 scenarios exactly fit the cap and decide the cycle
        cls = classify_cycle(cdn.algorithm, cycle, length_slack=3)
        assert cls.is_false_resource_cycle
        assert cls.scenarios_tested == MAX_SCENARIOS

    @pytest.mark.parametrize(
        "options",
        [{"length_slack": -1}, {"extra_copies": 0}, {"budget": -1},
         {"max_states": 0}],
        ids=["length-slack", "extra-copies", "budget", "max-states"],
    )
    @pytest.mark.parametrize("certificates", ["on", "off"])
    def test_empty_range_raises_instead_of_a_verdict(
        self, ring_setup, options, certificates
    ):
        alg, cycle = ring_setup
        name = next(iter(options))
        with pytest.raises(ValueError, match=f"{name} must be >= "):
            classify_cycle(alg, cycle, certificates=certificates, **options)


class TestClassifyConfiguration:
    def test_copy_augmentation_finds_interposed_deadlock(self):
        """Panel (c)'s deadlock needs an interposed copy; base alone does not."""
        from repro.analysis import SystemSpec, search_deadlock
        from repro.core.three_message import FIG3_PANELS, build_three_message_config

        c = build_three_message_config(FIG3_PANELS["c"])
        base = search_deadlock(
            SystemSpec.uniform(c.checker_messages()), find_witness=False
        )
        assert not base.deadlock_reachable
        reachable, _ = classify_configuration(c.checker_messages(), copy_depth=1)
        assert reachable

    @pytest.mark.parametrize(
        "options",
        [{"length_slack": -1}, {"budget": -1}, {"max_states": 0}],
        ids=["length-slack", "budget", "max-states"],
    )
    def test_empty_range_raises_instead_of_a_verdict(self, options):
        from repro.core.two_message import build_two_message_config

        messages = build_two_message_config().checker_messages()
        name = next(iter(options))
        with pytest.raises(ValueError, match=f"{name} must be >= "):
            classify_configuration(messages, **options)

    def test_zero_copy_depth_is_plain_search(self):
        from repro.core.two_message import build_two_message_config

        c = build_two_message_config()
        reachable, res = classify_configuration(c.checker_messages(), copy_depth=0)
        assert reachable
        assert res.deadlock_reachable
