"""Run a paper command's tasks through the campaign runner.

Every paper command (E1-E6, V1) runs tasks of the kinds and scenarios
``paper-battery`` uses (E2, E3, E5 and E6 take the battery's own
``repro.campaign.specs`` builders), so each question has one code path, a
command warms the cache for a later battery run (and vice versa), and
``jobs``/``cache_dir`` parallelise and memoise it.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

from repro.campaign.cache import ResultCache
from repro.campaign.runner import RunnerConfig, run_campaign
from repro.campaign.tasks import CampaignTask, TaskResult


class GridTaskFailed(RuntimeError):
    """A task of a paper grid failed, or the grid is empty, so the grid
    has no answer."""


def run_grid(
    tasks: Sequence[CampaignTask],
    *,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    spec_name: str = "",
) -> list[TaskResult]:
    """One result per task, in task order.  A failed task raises
    :class:`GridTaskFailed` naming the task and its error (tasks are
    deterministic, so none is re-run); so does an empty grid, whose
    verdict would say nothing."""
    if not tasks:
        raise GridTaskFailed(f"{spec_name} grid is empty: no task to run")
    cache = ResultCache(Path(cache_dir)) if cache_dir else None
    results, _ = run_campaign(
        tasks,
        cache=cache,
        config=RunnerConfig(max_workers=jobs, retries=0),
        spec_name=spec_name,
    )
    for res in results:
        if not res.ok:
            raise GridTaskFailed(f"{spec_name} task {res.name} failed: {res.error}")
    by_hash = {res.task_hash: res for res in results}
    return [by_hash[task.task_hash] for task in tasks]
