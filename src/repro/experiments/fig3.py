"""Experiment E3 -- Figure 3 + Theorem 5.

For each of the six reconstructed panels:

1. classify by exhaustive search (ground truth);
2. evaluate the eight Theorem 5 conditions;
3. compare both against the paper's stated classification
   ((a), (b) unreachable; (c)--(f) deadlock).

Additionally a random parameter sweep measures the agreement rate between
the condition set (partly reconstructed from OCR-damaged text -- see
``repro/core/conditions.py``) and the search, over configurations within
Theorem 5's hypotheses.  Both the panels and the sweep are
``paper-battery``'s own tasks, run through the campaign runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.specs import fig3_panel_tasks, fig3_sweep_tasks
from repro.experiments.grid import run_grid


@dataclass
class Fig3PanelResult:
    panel: str
    expected_unreachable: bool
    search_unreachable: bool
    conditions_predict_unreachable: bool
    failed_conditions: list[int]
    states_explored: int

    @property
    def search_matches_paper(self) -> bool:
        return self.search_unreachable == self.expected_unreachable

    @property
    def conditions_match_search(self) -> bool:
        return self.conditions_predict_unreachable == self.search_unreachable

    def row(self) -> dict[str, object]:
        return {
            "panel": self.panel,
            "paper": "unreachable" if self.expected_unreachable else "deadlock",
            "search": "unreachable" if self.search_unreachable else "deadlock",
            "thm5-conds": "unreachable" if self.conditions_predict_unreachable else "deadlock",
            "failed conds": ",".join(map(str, self.failed_conditions)) or "-",
            "states": self.states_explored,
        }


def run_fig3_experiment(
    *, jobs: int = 1, cache_dir: str | Path | None = None
) -> list[Fig3PanelResult]:
    """Classify all six panels: ``paper-battery``'s panel tasks."""
    return [
        Fig3PanelResult(
            panel=r.params["panel"],
            expected_unreachable=r.expect == "unreachable",
            search_unreachable=r.verdict == "unreachable",
            conditions_predict_unreachable=r.detail["conditions_unreachable"],
            failed_conditions=list(r.detail["failed_conditions"]),
            states_explored=r.detail["states_explored"],
        )
        for r in run_grid(
            fig3_panel_tasks(), jobs=jobs, cache_dir=cache_dir, spec_name="fig3"
        )
    ]


@dataclass
class SweepAgreement:
    total: int
    agree: int
    disagreements: list[dict[str, object]] = field(default_factory=list)

    @property
    def rate(self) -> float:
        return self.agree / self.total if self.total else 1.0


def run_condition_sweep(
    *,
    samples: int = 40,
    seed: int = 7,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
) -> SweepAgreement:
    """Random three-shared-message configurations: conditions vs search.

    Configurations are drawn within Theorem 5's hypotheses (three messages
    sharing the channel, distinct approach distances) by
    :func:`repro.campaign.specs.fig3_sweep_tasks`, whose first 20 samples
    at seed 7 are ``paper-battery``'s sweep.  Reports the agreement rate --
    EXPERIMENTS.md records it honestly since conditions 6-8 are
    reconstructions.
    """
    results = run_grid(
        fig3_sweep_tasks(samples, seed=seed),
        jobs=jobs,
        cache_dir=cache_dir,
        spec_name="fig3-sweep",
    )
    agree = 0
    disagreements: list[dict[str, object]] = []
    for r in results:
        conds = bool(r.detail["conditions_unreachable"])
        if conds == (r.verdict == "unreachable"):
            agree += 1
        else:
            disagreements.append(
                {
                    "d": tuple(r.params["approaches"]),
                    "hold": tuple(r.params["holds"]),
                    "search": r.verdict,
                    "conds": "unreachable" if conds else "deadlock",
                    "failed": list(r.detail["failed_conditions"]),
                }
            )
    return SweepAgreement(total=len(results), agree=agree, disagreements=disagreements)
