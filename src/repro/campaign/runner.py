"""Parallel campaign execution: process pool, timeout, retry, serial fallback.

Execution model:

* tasks are deduplicated by content hash (first occurrence wins) and
  looked up in the configured :class:`~repro.campaign.cache.CacheBackend` first;
* cache misses run in waves: wave 1 is every miss, wave ``k+1`` is the
  failures of wave ``k``, up to ``retries`` extra attempts with
  exponential backoff between waves (task-level errors are captured into
  results by :func:`~repro.campaign.tasks.execute_task`, so one crashing
  configuration cannot abort the campaign);
* with ``max_workers > 1`` a wave runs on a fresh
  ``concurrent.futures.ProcessPoolExecutor`` -- task payloads cross the
  process boundary as plain JSON dicts and the worker entry point
  :func:`_pool_worker` is module-level, so everything pickles;
* per-task wall-clock ``task_timeout`` bounds how long the collector waits
  on each future (measured from when collection reaches it, so it is a
  lenient upper bound, and only enforceable under the pool -- a serial
  run cannot preempt a task);
* if the pool cannot be created (sandboxes without ``fork``/semaphores) or
  breaks mid-wave, execution degrades to the in-process serial path, which
  produces identical verdicts -- equivalence is pinned by
  ``tests/test_campaign_runner.py``.

Results stream into the ledger/cache/progress reporter the moment they are
known; a killed campaign leaves a readable partial ledger behind.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from contextlib import nullcontext
from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from typing import ContextManager

from repro.campaign.cache import CacheBackend
from repro.campaign.ledger import CampaignSummary, RunLedger
from repro.campaign.progress import ProgressReporter
from repro.campaign.tasks import CampaignTask, TaskResult, execute_task


@dataclass
class RunnerConfig:
    """Execution knobs for :func:`run_campaign`."""

    max_workers: int = 1
    task_timeout: float | None = None  # seconds; pool mode only
    retries: int = 1  # extra attempts after a failed/timed-out task
    backoff: float = 0.5  # seconds before the first retry wave, then doubled
    #: search engine (kernel/reference) used inside tasks; ``None``
    #: defers to ``REPRO_SEARCH_ENGINE``/the default.  Execution-only
    #: (never part of task identity or the cache key): the engines are
    #: pinned bit-identical.
    engine: str | None = None

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        if self.engine is not None:
            # lazy: configuring a run needs none of the search stack
            from repro.analysis.reachability import SEARCH_ENGINES

            if self.engine not in SEARCH_ENGINES:
                raise ValueError(
                    f"unknown search engine {self.engine!r}; "
                    "use 'kernel' or 'reference'"
                )


def _trace_scope(carrier: str | None) -> ContextManager[None]:
    """A scope adopting ``carrier`` (a traceparent string) as the remote
    trace parent -- a no-op when telemetry is off or the carrier is
    missing/malformed.  Falls back to the ``REPRO_TRACE`` environment
    carrier, which spawned processes inherit from a traced parent."""
    from repro.obs import get as _obs_get
    from repro.obs.trace import extract_env, extract_traceparent

    tel = _obs_get()
    if tel is None:
        return nullcontext()
    ctx = extract_traceparent(carrier) if carrier else extract_env()
    return nullcontext() if ctx is None else tel.activate(ctx)


def _pool_worker(
    payload: dict,
    engine: str | None = None,
    trace_carrier: str | None = None,
) -> dict:
    """Worker-process entry: JSON in, JSON out (always picklable).

    ``trace_carrier`` joins the task's events to the submitting request's
    trace (the serve batcher passes one per task); without it the
    ``REPRO_TRACE`` environment carrier inherited from a traced parent
    process applies.
    """
    task = CampaignTask.from_json(payload)
    with _trace_scope(trace_carrier):
        return execute_task(task, worker=f"pid{os.getpid()}", engine=engine).to_json()


def _infra_failure(task: CampaignTask, error: str) -> TaskResult:
    return TaskResult(
        task_hash=task.task_hash,
        name=task.name,
        kind=task.kind,
        scenario=task.scenario,
        params=task.params_dict(),
        verdict="error",
        ok=False,
        error=error,
        worker="pool",
        expect=task.expect,
    )


class _WaveExecutor:
    """Runs one wave of tasks, degrading from pool to serial when needed."""

    def __init__(self, config: RunnerConfig) -> None:
        self.config = config
        self.serial_forced = config.max_workers <= 1

    def run(
        self,
        tasks: Sequence[CampaignTask],
        traces: dict[str, str] | None = None,
    ) -> list[TaskResult]:
        if not tasks:
            return []
        if self.serial_forced:
            return [self._run_serial(t, "serial", traces) for t in tasks]
        return self._run_pool(tasks, traces)

    def _run_serial(
        self,
        task: CampaignTask,
        worker: str,
        traces: dict[str, str] | None,
    ) -> TaskResult:
        with _trace_scope(traces.get(task.task_hash) if traces else None):
            return execute_task(
                task,
                worker=worker,
                engine=self.config.engine,
            )

    def _run_pool(
        self,
        tasks: Sequence[CampaignTask],
        traces: dict[str, str] | None,
    ) -> list[TaskResult]:
        engine = self.config.engine
        try:
            from concurrent.futures import ProcessPoolExecutor

            executor = ProcessPoolExecutor(max_workers=self.config.max_workers)
        except Exception:  # noqa: BLE001 - environment without process support
            self.serial_forced = True
            return [self._run_serial(t, "serial", traces) for t in tasks]

        results: list[TaskResult] = []
        broken = False
        try:
            futures = [
                (
                    executor.submit(
                        _pool_worker,
                        t.to_json(),
                        engine,
                        traces.get(t.task_hash) if traces else None,
                    ),
                    t,
                )
                for t in tasks
            ]
            for fut, task in futures:
                if broken:
                    results.append(
                        self._run_serial(task, "serial-fallback", traces)
                    )
                    continue
                try:
                    results.append(
                        TaskResult.from_json(
                            fut.result(timeout=self.config.task_timeout)
                        )
                    )
                except FuturesTimeoutError:
                    fut.cancel()
                    results.append(
                        _infra_failure(
                            task, f"timeout after {self.config.task_timeout}s"
                        )
                    )
                except Exception as exc:  # noqa: BLE001 - e.g. BrokenProcessPool
                    broken = True
                    self.serial_forced = True
                    results.append(
                        _infra_failure(task, f"{type(exc).__name__}: {exc}")
                    )
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        return results


def run_campaign(
    tasks: Iterable[CampaignTask],
    *,
    cache: CacheBackend | None = None,
    ledger: RunLedger | None = None,
    progress: ProgressReporter | None = None,
    config: RunnerConfig | None = None,
    spec_name: str = "",
    traces: dict[str, str] | None = None,
) -> tuple[list[TaskResult], CampaignSummary]:
    """Execute a batch of tasks; returns (results in task order, summary).

    ``traces`` maps ``task_hash`` to the traceparent carrier of the
    request that submitted the task (the serve batcher's batches mix
    requests): each task's events and its ``campaign.task`` span then
    join the submitting trace instead of this campaign's own.
    """
    from repro.obs import get as _obs_get

    tel = _obs_get()
    if tel is None:
        return _run_campaign_impl(
            tasks,
            cache=cache,
            ledger=ledger,
            progress=progress,
            config=config,
            spec_name=spec_name,
            tel=None,
            traces=traces,
        )
    with tel.span("campaign.run", spec=spec_name) as sp:
        results, summary = _run_campaign_impl(
            tasks,
            cache=cache,
            ledger=ledger,
            progress=progress,
            config=config,
            spec_name=spec_name,
            tel=tel,
            traces=traces,
        )
        sp.set(
            tasks=summary.total,
            ok=summary.ok,
            failed=summary.failed,
            from_cache=summary.from_cache,
            workers=summary.workers,
        )
        if summary.cache is not None:
            sp.set(cache_hit_rate=round(summary.cache.hit_rate, 4))
    return results, summary


def _run_campaign_impl(
    tasks: Iterable[CampaignTask],
    *,
    cache: CacheBackend | None,
    ledger: RunLedger | None,
    progress: ProgressReporter | None,
    config: RunnerConfig | None,
    spec_name: str,
    tel,
    traces: dict[str, str] | None = None,
) -> tuple[list[TaskResult], CampaignSummary]:
    config = config or RunnerConfig()
    t0 = time.perf_counter()

    unique: list[CampaignTask] = []
    seen: set[str] = set()
    for task in tasks:
        if task.task_hash not in seen:
            seen.add(task.task_hash)
            unique.append(task)

    summary = CampaignSummary(spec=spec_name, workers=config.max_workers)
    by_hash: dict[str, TaskResult] = {}

    def finalize(task: CampaignTask, result: TaskResult) -> None:
        by_hash[task.task_hash] = result
        summary.add(result)
        if tel is not None:
            from repro.obs.trace import extract_traceparent

            trace_ctx = (
                extract_traceparent(traces.get(task.task_hash))
                if traces
                else None
            )
            # one span per task, emitted by the coordinating process so
            # cache hits, serial runs and pool workers all look alike;
            # the duration is the task's own measured wall time
            tel.point_span(
                "campaign.task",
                result.wall_time,
                trace_ctx=trace_ctx,
                task_hash=result.task_hash,
                name=result.name,
                kind=result.kind,
                scenario=result.scenario,
                verdict=result.verdict,
                ok=result.ok,
                source=result.source,
                states_explored=result.detail.get("states_explored"),
                certificate=result.detail.get("certificate"),
            )
            tel.incr("campaign.tasks")
            tel.observe(
                "campaign.task.wall_s", result.wall_time, kind=result.kind
            )
            if not result.ok:
                tel.incr("campaign.tasks.failed")
            # exactly one cache lookup happens per unique task, so these
            # two counters reproduce CacheStats.hit_rate from events alone
            if cache is not None:
                if result.source == "cache":
                    tel.incr("campaign.cache.hits")
                else:
                    tel.incr("campaign.cache.misses")
        if ledger is not None:
            ledger.record(result)
        if progress is not None:
            progress.update(result)
        if cache is not None and result.source == "live":
            cache.put(task, result)

    wave: list[CampaignTask] = []
    for task in unique:
        hit = cache.get(task) if cache is not None else None
        if hit is not None:
            finalize(task, hit)
        else:
            wave.append(task)

    executor = _WaveExecutor(config)
    for attempt in range(1, config.retries + 2):
        if not wave:
            break
        if attempt > 1:
            time.sleep(config.backoff * (2 ** (attempt - 2)))
        retry_wave: list[CampaignTask] = []
        for task, result in zip(wave, executor.run(wave, traces)):
            result.attempts = attempt
            if not result.ok and attempt <= config.retries:
                retry_wave.append(task)
            else:
                finalize(task, result)
        wave = retry_wave

    summary.wall_time = time.perf_counter() - t0
    if cache is not None:
        summary.cache = cache.stats
    if ledger is not None:
        ledger.record_summary(summary)
    if progress is not None:
        progress.close()
    return [by_hash[t.task_hash] for t in unique], summary
