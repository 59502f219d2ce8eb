"""Run a paper grid through the campaign runner.

Each grid-shaped experiment (E2, E3, E5, E6) takes its tasks from the
``repro.campaign.specs`` builder that ``paper-battery`` uses, so the grid
is defined once, a sweep warms the cache for a later battery run (and vice
versa), and ``jobs``/``cache_dir`` parallelise and memoise it.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

from repro.campaign.cache import ResultCache
from repro.campaign.runner import RunnerConfig, run_campaign
from repro.campaign.tasks import CampaignTask, TaskResult


def run_grid(
    tasks: Sequence[CampaignTask],
    *,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    spec_name: str = "",
) -> list[TaskResult]:
    """Results in task order; a failed task raises, naming the task."""
    cache = ResultCache(Path(cache_dir)) if cache_dir else None
    results, _ = run_campaign(
        tasks,
        cache=cache,
        config=RunnerConfig(max_workers=jobs),
        spec_name=spec_name,
    )
    for res in results:
        if not res.ok:
            raise RuntimeError(f"{spec_name} task failed: {res.name}: {res.error}")
    return results
