"""Experiment E1 -- Figure 1 + Theorem 1.

Reproduces, on the reconstructed Cyclic Dependency network:

1. the CDG contains exactly one cycle (the 14-channel ring);
2. the routing algorithm is connected and oblivious but *not* coherent,
   *not* suffix-closed, *not* minimal and *not* of the ``N x N -> C`` form
   (so none of Corollaries 1-3 apply to it);
3. no Dally--Seitz numbering exists (the classical certificate fails);
4. exhaustive search at stall budget 0 finds **no** reachable deadlock --
   Theorem 1 -- including with extra message copies and longer messages;
5. the analytic Theorem 1 timing model agrees (no simple schedule exists);
6. a small positive stall budget makes the very same cycle deadlock
   (the property Section 6 then engineers away), and the found witness
   replays to a real deadlock on the flit-level simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campaign.tasks import CampaignTask
from repro.cdg import build_cdg, cycle_summary
from repro.core.cyclic_dependency import FIG1_MESSAGES, build_cyclic_dependency_network
from repro.core.specs import CycleMessageSpec
from repro.core.theory import analytic_schedule_feasible, earliest_blocking_analysis
from repro.experiments.grid import run_grid
from repro.routing.properties import analyze_properties


@dataclass
class Fig1Result:
    cdg_summary: dict[str, object]
    properties: dict[str, object]
    unreachable_at_sync: bool
    unreachable_with_copies: bool
    unreachable_longer_messages: bool
    analytic_feasible: bool
    min_delay_to_deadlock: int | None
    replay_deadlocked: bool
    states_explored: int
    flow_model_certifies: bool = False  # Lin-McKinley-Ni must come up short
    narrative: list[str] = field(default_factory=list)

    @property
    def matches_paper(self) -> bool:
        """The headline claims of Section 4 all hold."""
        return (
            not self.cdg_summary["acyclic"]
            and self.cdg_summary["num_cycles"] == 1
            and self.unreachable_at_sync
            and self.unreachable_with_copies
            and not self.analytic_feasible
            and self.min_delay_to_deadlock is not None
            and self.replay_deadlocked
            and not self.flow_model_certifies
        )

    def summary_rows(self) -> list[dict[str, object]]:
        return [
            {"check": "CDG has exactly one cycle (len 14)",
             "paper": True,
             "measured": (not self.cdg_summary["acyclic"]) and self.cdg_summary["num_cycles"] == 1},
            {"check": "routing coherent", "paper": False,
             "measured": self.properties["coherent"]},
            {"check": "routing suffix-closed", "paper": False,
             "measured": self.properties["suffix-closed"]},
            {"check": "routing NxN->C form", "paper": False,
             "measured": self.properties["NxN->C form"]},
            {"check": "deadlock reachable at sync (Thm 1)", "paper": False,
             "measured": not self.unreachable_at_sync},
            {"check": "deadlock reachable with extra copies", "paper": False,
             "measured": not self.unreachable_with_copies},
            {"check": "analytic schedule exists", "paper": False,
             "measured": self.analytic_feasible},
            {"check": "deadlock with small in-flight delay (Sec 6)", "paper": True,
             "measured": self.min_delay_to_deadlock is not None},
            {"check": "flow model (Lin et al.) certifies it", "paper": False,
             "measured": self.flow_model_certifies},
        ]


def run_fig1_experiment(
    *,
    max_delay: int = 6,
    with_copies: bool = True,
) -> Fig1Result:
    """Run the full E1 battery.  Takes a few seconds.

    The searches and the witness replay (``cross_check`` at budget Δ*) are
    ``fig1`` campaign tasks; at ``max_delay=3`` (the CLI default) all are
    ``paper-battery`` tasks.  The CDG summary, the property scan, the
    analytic model and the flow model run in-process.
    """
    cdn = build_cyclic_dependency_network()
    alg = cdn.algorithm
    summary = cycle_summary(build_cdg(alg))

    pairs = list(cdn.message_pairs.values())
    props = analyze_properties(alg, pairs + [("P3", "D1"), ("Src", "X1"), ("N*", "D2")])

    tasks = [
        CampaignTask.make("reachability", "fig1"),
        CampaignTask.make("reachability", "fig1", extra_length=1),
        CampaignTask.make("min_delay", "fig1", max_delay=max_delay),
    ]
    if with_copies:
        tasks.append(
            CampaignTask.make("reachability", "fig1", with_copies=True, max_states=8_000_000)
        )
    sync, longer, delay, *copies = run_grid(tasks, spec_name="fig1")
    min_delay = delay.detail["min_delay"]
    replay_ok = False
    if min_delay is not None:
        task = CampaignTask.make("cross_check", "fig1", budget=min_delay, max_states=8_000_000)
        (cross,) = run_grid([task], spec_name="fig1")
        replay_ok = bool(
            cross.detail.get("witness_valid") and cross.detail.get("replay_deadlocked")
        )

    # analytic model on the sparse geometry
    cycle_specs = [
        CycleMessageSpec(
            approach_len=len(info["approach"]) + 1,
            hold_len=info["min_length"],
            label=tag,
        )
        for tag, info in FIG1_MESSAGES.items()
    ]

    from repro.cdg.flow_model import deadlock_immune_channels

    return Fig1Result(
        cdg_summary=summary,
        properties=props.summary_row(),
        unreachable_at_sync=sync.verdict == "unreachable",
        unreachable_with_copies=all(r.verdict == "unreachable" for r in copies),
        unreachable_longer_messages=longer.verdict == "unreachable",
        analytic_feasible=analytic_schedule_feasible(cycle_specs).feasible,
        min_delay_to_deadlock=min_delay,
        replay_deadlocked=replay_ok,
        states_explored=sync.detail["states_explored"],
        flow_model_certifies=deadlock_immune_channels(alg).certifies_deadlock_freedom,
        narrative=earliest_blocking_analysis(cycle_specs),
    )
