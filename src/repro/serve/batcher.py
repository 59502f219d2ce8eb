"""Lane batching and in-flight dedup in front of the campaign runner.

The serve hot path has three outcomes, fastest first:

1. **cache hit** -- answered synchronously on the event loop (the
   backend read is microseconds for the memory tier, sub-millisecond
   for sqlite/directory), never queued;
2. **in-flight dedup** -- an identical task is already queued or
   executing: the request awaits the same future, so N concurrent
   identical cold queries run the underlying task exactly once;
3. **batched execution** -- a genuine cold miss joins the queue.  The
   batcher has one execution lane: when the lane is idle, the queue
   runs on the next loop tick (so misses submitted in the same tick
   share a batch); misses that arrive while a batch runs form the next
   batch, which starts as soon as the lane frees.  Each batch runs as
   *one* :func:`~repro.campaign.runner.run_campaign` call in a worker
   thread (inheriting its retry/telemetry machinery), and every
   waiter's future resolves with its task's result.

Each cold task is looked up in the cache exactly once, by
:meth:`MicroBatcher.submit`; the batch runs without a cache and the
batcher writes its results back (backends refuse failed results).
With ``max_workers > 1`` the batcher owns one
:class:`~repro.campaign.runner.WorkerPool` for its whole life and hands
it to every batch, so a cold miss does not pay a pool start-up; the pool
is rebuilt only after it breaks, and :meth:`MicroBatcher.close` shuts it
down.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor
from dataclasses import dataclass

import repro.obs as obs
from repro.campaign.cache import CacheBackend
from repro.campaign.runner import RunnerConfig, WorkerPool, run_campaign
from repro.campaign.tasks import CampaignTask, TaskResult

#: how a submit was answered (also the span attr / response header value)
SOURCE_CACHE = "cache"
SOURCE_INFLIGHT = "inflight"
SOURCE_LIVE = "live"


@dataclass
class BatcherStats:
    submitted: int = 0
    cache_hits: int = 0
    inflight_hits: int = 0
    batches: int = 0
    batched_tasks: int = 0
    executed_live: int = 0
    failures: int = 0

    def to_json(self) -> dict[str, int]:
        return {
            "submitted": self.submitted,
            "cache_hits": self.cache_hits,
            "inflight_hits": self.inflight_hits,
            "batches": self.batches,
            "batched_tasks": self.batched_tasks,
            "executed_live": self.executed_live,
            "failures": self.failures,
        }


class MicroBatcher:
    """Runs cache misses in batches on one execution lane.

    Single event loop only; construct it from within the loop that will
    call :meth:`submit`.
    """

    def __init__(
        self,
        *,
        cache: CacheBackend | None,
        config: RunnerConfig | None = None,
        executor: Executor | None = None,
        spec_name: str = "serve",
    ) -> None:
        self.cache = cache
        self.config = config or RunnerConfig(retries=0)
        self.executor = executor
        #: the process pool every batch shares (``None``: batches run serially)
        self.pool = (
            WorkerPool(self.config.max_workers) if self.config.max_workers > 1 else None
        )
        self.spec_name = spec_name
        self.stats = BatcherStats()
        self._pending: dict[str, asyncio.Future[TaskResult]] = {}
        self._queue: list[CampaignTask] = []
        #: the lane: the task running batches while the queue refills
        self._lane: asyncio.Task[None] | None = None
        #: task_hash -> traceparent carrier of the request that queued it.
        #: Captured at submit time because the batch thread (and one batch
        #: mixing tasks from different requests) cannot see the submitting
        #: request's contextvars.
        self._trace_carriers: dict[str, str] = {}

    def close(self) -> None:
        """Shut the process pool down, waiting for its workers to exit."""
        if self.pool is not None:
            self.pool.close()

    @property
    def inflight(self) -> int:
        """Tasks queued or executing right now."""
        return len(self._pending)

    async def submit(self, task: CampaignTask) -> tuple[TaskResult, str]:
        """Answer one task; returns ``(result, source)``.

        ``source`` is one of :data:`SOURCE_CACHE` (answered from the
        backend without executing), :data:`SOURCE_INFLIGHT` (shared an
        execution already underway), or :data:`SOURCE_LIVE` (this call
        put the task into a batch).
        """
        self.stats.submitted += 1
        if self.cache is not None:
            hit = self.cache.get(task)
            if hit is not None:
                self.stats.cache_hits += 1
                return hit, SOURCE_CACHE

        fut = self._pending.get(task.task_hash)
        if fut is not None:
            self.stats.inflight_hits += 1
            # shield: one waiter's cancellation must not kill the shared run
            return await asyncio.shield(fut), SOURCE_INFLIGHT

        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        self._pending[task.task_hash] = fut
        self._queue.append(task)
        tel = obs.get()
        if tel is not None:
            ctx = tel.current_context()
            if ctx is not None:
                self._trace_carriers[task.task_hash] = obs.format_traceparent(ctx)
        if self._lane is None:
            # a task starts on the next tick: same-tick misses share a batch
            self._lane = loop.create_task(self._drain())
        return await asyncio.shield(fut), SOURCE_LIVE

    async def _drain(self) -> None:
        """Run queued batches back to back until the queue is empty."""
        try:
            while self._queue:
                batch, self._queue = self._queue, []
                await self._flush(batch)
        finally:
            self._lane = None

    async def _flush(self, batch: list[CampaignTask]) -> None:
        self.stats.batches += 1
        self.stats.batched_tasks += len(batch)
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                self.executor, self._run_batch, batch
            )
        except Exception as exc:  # noqa: BLE001 - infra failure -> every waiter
            for task in batch:
                fut = self._pending.pop(task.task_hash, None)
                self._trace_carriers.pop(task.task_hash, None)
                if fut is not None and not fut.done():
                    fut.set_exception(exc)
            return
        # run_campaign returns unique-task-order results; the batch is
        # already unique by hash (dupes were deduped via _pending above)
        for task, result in zip(batch, results):
            if not result.ok:
                self.stats.failures += 1
            fut = self._pending.pop(task.task_hash, None)
            self._trace_carriers.pop(task.task_hash, None)
            if fut is not None and not fut.done():
                fut.set_result(result)

    def _run_batch(self, batch: list[CampaignTask]) -> list[TaskResult]:
        traces = {
            task.task_hash: carrier
            for task in batch
            if (carrier := self._trace_carriers.get(task.task_hash)) is not None
        }
        # submit() already missed the cache for every task here
        results, summary = run_campaign(
            batch,
            config=self.config,
            spec_name=self.spec_name,
            traces=traces or None,
            pool=self.pool,
        )
        if self.cache is not None:
            for task, result in zip(batch, results):
                self.cache.put(task, result)
        self.stats.executed_live += summary.live
        return results
