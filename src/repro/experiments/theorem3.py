"""Experiment E5 -- Theorem 3 (minimal oblivious routing).

Theorem 3 says minimal oblivious routing admits no single-shared-channel
unreachable cycle when every cycle message uses the shared channel.  The
experiment (a) sweeps the shared-cycle family recording
(minimal?, classification) per configuration and asserts the conjunction
*minimal AND unreachable* never occurs, and (b) certifies the Figure 1
algorithm as nonminimal, which is why it may -- and does -- have one.

The sweep is ``paper-battery``'s own Theorem 3 grid
(:func:`repro.campaign.specs.theorem3_tasks`), run through the campaign
runner.  Caveat (EXPERIMENTS.md §E5): this shared-cycle family contains no
minimal configuration at the ranges swept, so (a) holds vacuously there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.specs import theorem3_tasks
from repro.core.minimal_search import fig1_nonminimality_certificate
from repro.experiments.grid import run_grid


@dataclass
class MinimalSweepRecord:
    """One configuration's verdicts."""

    params: tuple[tuple[int, int], ...]  # (approach, hold) per message
    minimal: bool
    deadlock_reachable: bool
    states_explored: int

    @property
    def violates_theorem3(self) -> bool:
        return self.minimal and not self.deadlock_reachable


@dataclass
class MinimalSweepResult:
    records: list[MinimalSweepRecord] = field(default_factory=list)

    @property
    def any_violation(self) -> bool:
        return any(r.violates_theorem3 for r in self.records)

    @property
    def num_minimal(self) -> int:
        return sum(1 for r in self.records if r.minimal)

    @property
    def num_unreachable(self) -> int:
        return sum(1 for r in self.records if not r.deadlock_reachable)

    def summary(self) -> dict[str, int | bool]:
        return {
            "configs": len(self.records),
            "minimal": self.num_minimal,
            "unreachable": self.num_unreachable,
            "minimal_and_unreachable": sum(
                1 for r in self.records if r.violates_theorem3
            ),
            "theorem3_holds": not self.any_violation,
        }


@dataclass
class Theorem3Result:
    sweep: MinimalSweepResult
    fig1_slack: dict[str, int]

    @property
    def theorem_holds(self) -> bool:
        return not self.sweep.any_violation

    @property
    def fig1_certified_nonminimal(self) -> bool:
        return all(v > 0 for v in self.fig1_slack.values())

    def summary(self) -> dict[str, object]:
        out: dict[str, object] = dict(self.sweep.summary())
        out["fig1 nonminimal"] = self.fig1_certified_nonminimal
        return out


def run_theorem3_experiment(
    *,
    num_messages: int = 3,
    approach_range: tuple[int, ...] = (1, 2, 3),
    hold_range: tuple[int, ...] = (1, 2, 3),
    limit: int | None = None,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
) -> Theorem3Result:
    """Sweep the family; ``limit`` caps the configurations enumerated.

    Degenerate geometries (a walk through its own destination) count
    toward ``limit`` but are skipped, so a sweep may hold fewer records.
    """
    tasks = theorem3_tasks(
        num_messages=num_messages,
        approach_range=approach_range,
        hold_range=hold_range,
        limit=limit,
    )
    sweep = MinimalSweepResult(
        [
            MinimalSweepRecord(
                params=tuple(zip(r.params["approaches"], r.params["holds"])),
                minimal=bool(r.detail["minimal"]),
                deadlock_reachable=r.verdict == "deadlock",
                states_explored=int(r.detail["states_explored"]),
            )
            for r in run_grid(tasks, jobs=jobs, cache_dir=cache_dir, spec_name="theorem3")
        ]
    )
    return Theorem3Result(sweep=sweep, fig1_slack=fig1_nonminimality_certificate())
