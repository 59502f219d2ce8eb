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

from repro.analysis import SystemSpec, search_deadlock
from repro.analysis.delay import min_delay_to_deadlock
from repro.analysis.schedules import replay_witness
from repro.analysis.state import CheckerMessage
from repro.cdg import build_cdg, cycle_summary
from repro.core.cyclic_dependency import FIG1_MESSAGES, build_cyclic_dependency_network
from repro.core.specs import CycleMessageSpec
from repro.core.theory import analytic_schedule_feasible, earliest_blocking_analysis
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
    """Run the full E1 battery.  Takes a few seconds."""
    cdn = build_cyclic_dependency_network()
    alg = cdn.algorithm
    cdg = build_cdg(alg)
    summary = cycle_summary(cdg)

    pairs = list(cdn.message_pairs.values())
    props = analyze_properties(alg, pairs + [("P3", "D1"), ("Src", "X1"), ("N*", "D2")])

    msgs = cdn.checker_messages()
    sync = search_deadlock(SystemSpec.uniform(msgs, budget=0))

    copies_ok = True
    if with_copies:
        extra = msgs + [
            CheckerMessage(msgs[1].path, msgs[1].length, "M2copy"),
            CheckerMessage(msgs[3].path, msgs[3].length, "M4copy"),
        ]
        copies_ok = not search_deadlock(
            SystemSpec.uniform(extra, budget=0),
            max_states=8_000_000,
            find_witness=False,
        ).deadlock_reachable

    longer = [CheckerMessage(m.path, m.length + 1, m.tag) for m in msgs]
    longer_ok = not search_deadlock(
        SystemSpec.uniform(longer, budget=0),
        find_witness=False,
    ).deadlock_reachable

    # analytic model on the sparse geometry
    cycle_specs = [
        CycleMessageSpec(
            approach_len=len(info["approach"]) + 1,
            hold_len=info["min_length"],
            label=tag,
        )
        for tag, info in FIG1_MESSAGES.items()
    ]
    analytic = analytic_schedule_feasible(cycle_specs)

    delay = min_delay_to_deadlock(msgs, max_delay=max_delay)
    replay_ok = False
    if delay.min_delay is not None:
        witness = delay.results[delay.min_delay].witness
        res = replay_witness(witness, cdn.network, cdn.routing, pairs)
        replay_ok = res.deadlocked

    from repro.cdg.flow_model import deadlock_immune_channels

    flow = deadlock_immune_channels(alg)

    return Fig1Result(
        cdg_summary=summary,
        properties=props.summary_row(),
        unreachable_at_sync=not sync.deadlock_reachable,
        unreachable_with_copies=copies_ok,
        unreachable_longer_messages=longer_ok,
        analytic_feasible=analytic.feasible,
        min_delay_to_deadlock=delay.min_delay,
        replay_deadlocked=replay_ok,
        states_explored=sync.states_explored,
        flow_model_certifies=flow.certifies_deadlock_freedom,
        narrative=earliest_blocking_analysis(cycle_specs),
    )
