"""Experiment E6 -- Section 6 generalisation.

Measures, for the family ``Gen(m)`` (``Gen(1)`` = Figure 1 geometry), the
minimum per-message stall budget Δ*(m) at which a deadlock becomes
reachable.  The paper's claim: the configuration "requires at least one
message in the cycle to be delayed at least m clock cycles", i.e. Δ*(m)
grows linearly without bound.  Measured result (recorded in
EXPERIMENTS.md): Δ*(m) = m exactly for m = 1..4.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.specs import gen_tasks
from repro.experiments.grid import run_grid


@dataclass
class GeneralizationResult:
    profile: dict[int, int | None] = field(default_factory=dict)

    @property
    def strictly_increasing(self) -> bool:
        vals = [v for _, v in sorted(self.profile.items())]
        return all(v is not None for v in vals) and all(
            b > a for a, b in zip(vals, vals[1:])  # type: ignore[operator]
        )

    @property
    def deadlock_free_under_synchrony(self) -> bool:
        """Every tested Gen(m) is a false resource cycle at Δ = 0."""
        return all(v is None or v > 0 for v in self.profile.values())

    def rows(self) -> list[dict[str, object]]:
        return [
            {"m": m, "min delay to deadlock": d if d is not None else f">max"}
            for m, d in sorted(self.profile.items())
        ]


def run_generalization_experiment(
    params: Sequence[int] = (1, 2, 3),
    *,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
) -> GeneralizationResult:
    """Sweep Δ*(m) over ``paper-battery``'s ``gen`` tasks (stall budgets up
    to ``m + 3``).  Gen(3) takes about 0.3 s; each further ``m`` costs
    about four times the last.

    ``m = 0`` degenerates (even holds equal even approaches, so the
    odd/even asymmetry the construction relies on disappears and the cycle
    deadlocks under synchrony); the family is meaningful for ``m >= 1``.
    """
    results = run_grid(
        gen_tasks(tuple(params)),
        jobs=jobs,
        cache_dir=cache_dir,
        spec_name="gen",
    )
    return GeneralizationResult(
        profile={int(r.params["m"]): r.detail["min_delay"] for r in results}
    )
