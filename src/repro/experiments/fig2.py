"""Experiment E2 -- Figure 2 + Theorem 4.

Theorem 4: a shared channel outside the cycle used by only *two* messages
always yields a reachable deadlock.  The experiment:

1. verifies the default Figure 2 configuration deadlocks at stall budget 0;
2. confirms the minimum witness follows the proof's schedule shape -- the
   message with the longer approach is injected first;
3. sweeps a family of (approach, hold) parameters and checks *every*
   two-message configuration deadlocks (the theorem is universal) -- the
   battery's grid, run through the campaign runner;
4. replays a witness on the flit-level simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import SystemSpec, search_deadlock
from repro.analysis.schedules import replay_witness
from repro.campaign.specs import fig2_grid_tasks
from repro.core.two_message import build_two_message_config
from repro.experiments.grid import run_grid


@dataclass
class Fig2Result:
    default_deadlocks: bool
    longer_approach_injected_first: bool
    replay_deadlocked: bool
    sweep_rows: list[dict[str, object]] = field(default_factory=list)

    @property
    def all_sweep_deadlock(self) -> bool:
        return all(r["deadlock"] for r in self.sweep_rows)

    @property
    def matches_paper(self) -> bool:
        return self.default_deadlocks and self.all_sweep_deadlock and self.replay_deadlocked


def run_fig2_experiment(
    *,
    approach_range: tuple[int, ...] = (1, 2, 3, 4),
    hold_range: tuple[int, ...] = (2, 3, 4),
) -> Fig2Result:
    """Run the E2 battery; the sweep covers ~dozens of configurations.

    The sweep is ``paper-battery``'s own Theorem 4 grid
    (:func:`repro.campaign.specs.fig2_grid_tasks`), run through the
    campaign runner.
    """
    default = build_two_message_config()
    res = search_deadlock(SystemSpec.uniform(default.checker_messages(), budget=0))
    default_dead = res.deadlock_reachable

    first_ok = False
    replay_ok = False
    if res.witness is not None:
        # which message successfully injected first?
        first: str | None = None
        for actions in res.witness.steps:
            for i, act in enumerate(actions):
                if act == "try":
                    first = res.witness.spec.messages[i].tag
                    break
            if first:
                break
        first_ok = first == "M1"  # M1 has the longer approach by construction
        sim = replay_witness(
            res.witness, default.network, default.routing, default.message_pairs
        )
        replay_ok = sim.deadlocked

    rows = [
        {
            "d1": r.params["d1"],
            "d2": r.params["d2"],
            "hold": r.params["hold"],
            "deadlock": r.verdict == "deadlock",
            "states": r.detail["states_explored"],
        }
        for r in run_grid(fig2_grid_tasks(approach_range, hold_range), spec_name="fig2")
    ]
    return Fig2Result(
        default_deadlocks=default_dead,
        longer_approach_injected_first=first_ok,
        replay_deadlocked=replay_ok,
        sweep_rows=rows,
    )
