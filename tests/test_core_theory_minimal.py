"""Analytic timing model (Theorem 1) and Theorem 3 minimal-routing tests."""

import pytest

from repro.core.cyclic_dependency import FIG1_MESSAGES
from repro.core.minimal_search import fig1_nonminimality_certificate
from repro.core.specs import CycleMessageSpec
from repro.core.theory import (
    analytic_schedule_feasible,
    earliest_blocking_analysis,
)
from repro.experiments.theorem3 import run_theorem3_experiment


def fig1_cycle_specs():
    return [
        CycleMessageSpec(
            approach_len=len(info["approach"]) + 1,
            hold_len=info["min_length"],
            label=tag,
        )
        for tag, info in FIG1_MESSAGES.items()
    ]


class TestAnalyticModel:
    def test_fig1_infeasible(self):
        """Theorem 1's core claim, in closed form."""
        res = analytic_schedule_feasible(fig1_cycle_specs())
        assert not res.feasible

    def test_two_message_feasible(self):
        specs = [
            CycleMessageSpec(approach_len=3, hold_len=4, label="M1"),
            CycleMessageSpec(approach_len=2, hold_len=4, label="M2"),
        ]
        res = analytic_schedule_feasible(specs)
        assert res.feasible
        # the schedule injects M1 (longer approach) first
        assert res.schedule["M1"] < res.schedule["M2"]

    def test_analytic_soundness_vs_search(self):
        """Analytic-feasible implies exhaustively-reachable (soundness)."""
        from repro.analysis import SystemSpec, search_deadlock
        from repro.core.specs import build_shared_cycle

        import itertools

        count = 0
        for ds in itertools.product((1, 2, 3), repeat=2):
            for hs in itertools.product((2, 3), repeat=2):
                specs = [
                    CycleMessageSpec(approach_len=d, hold_len=h, label=f"S{i}")
                    for i, (d, h) in enumerate(zip(ds, hs))
                ]
                if analytic_schedule_feasible(specs).feasible:
                    c = build_shared_cycle(specs)
                    r = search_deadlock(
                        SystemSpec.uniform(c.checker_messages()), find_witness=False
                    )
                    assert r.deadlock_reachable, (ds, hs)
                    count += 1
        assert count > 0  # the sweep exercised real cases

    def test_rejects_non_shared(self):
        specs = [
            CycleMessageSpec(approach_len=1, hold_len=2),
            CycleMessageSpec(approach_len=1, hold_len=2, uses_shared=False),
        ]
        with pytest.raises(ValueError, match="all-shared"):
            analytic_schedule_feasible(specs)

    def test_narrative_mentions_the_fig1_asymmetry(self):
        lines = earliest_blocking_analysis(fig1_cycle_specs())
        text = "\n".join(lines)
        # M2 must be injected before M1; M4 before M3 (Theorem 1's prose)
        assert "M2 must be injected before M1" in text
        assert "M4 must be injected before M3" in text
        assert "M3 may follow M2" in text
        assert "M1 may follow M4" in text


class TestTheorem3:
    def test_fig1_certified_nonminimal(self):
        slack = fig1_nonminimality_certificate()
        assert len(slack) == 4
        assert all(v > 0 for v in slack.values())

    def test_sweep_no_minimal_unreachable(self):
        """Theorem 3 over a small family: minimal AND unreachable never co-occur."""
        res = run_theorem3_experiment(
            num_messages=2,
            approach_range=(1, 2),
            hold_range=(1, 2, 3),
        ).sweep
        assert not res.any_violation
        summary = res.summary()
        assert summary["theorem3_holds"]
        # degenerate geometries (hold spanning the ring) are skipped
        assert summary["configs"] == 16

    def test_sweep_limit(self):
        res = run_theorem3_experiment(
            num_messages=2, approach_range=(1, 2), hold_range=(2, 3), limit=5
        ).sweep
        assert len(res.records) == 5
        assert [(r.params, r.states_explored) for r in res.records] == [
            (((1, 2), (1, 2)), 25),
            (((1, 2), (1, 3)), 30),
            (((1, 2), (2, 2)), 28),
            (((1, 2), (2, 3)), 34),
            (((1, 3), (1, 2)), 30),
        ]
