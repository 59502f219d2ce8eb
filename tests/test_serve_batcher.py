"""MicroBatcher: lane batching, in-flight dedup, cache fast path."""

import asyncio
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.campaign.cache import MemoryLRUCache
from repro.campaign.runner import RunnerConfig
from repro.campaign.tasks import CampaignTask
from repro.serve.batcher import (
    SOURCE_CACHE,
    SOURCE_INFLIGHT,
    SOURCE_LIVE,
    MicroBatcher,
)


def _task(tag, seconds=0.0):
    """Distinct cheap tasks via the debug-sleep scenario (tag only
    differentiates the content hash)."""
    return CampaignTask.make(
        "reachability", "debug-sleep", seconds=seconds, tag=str(tag)
    )


@pytest.fixture()
def executor():
    pool = ThreadPoolExecutor(max_workers=1)
    yield pool
    pool.shutdown(wait=False, cancel_futures=True)


def test_same_tick_misses_share_one_batch(executor):
    async def run():
        batcher = MicroBatcher(cache=MemoryLRUCache(64), executor=executor)
        results = await asyncio.gather(
            *(batcher.submit(_task(i)) for i in range(4))
        )
        return batcher, results

    batcher, results = asyncio.run(run())
    assert batcher.stats.batches == 1
    assert batcher.stats.batched_tasks == 4
    assert batcher.stats.executed_live == 4
    assert all(source == SOURCE_LIVE for _, source in results)
    assert all(result.ok for result, _ in results)


def test_identical_concurrent_submits_execute_exactly_once(executor):
    async def run():
        batcher = MicroBatcher(cache=MemoryLRUCache(64), executor=executor)
        task = _task("shared", seconds=0.1)
        results = await asyncio.gather(*(batcher.submit(task) for _ in range(6)))
        return batcher, results

    batcher, results = asyncio.run(run())
    sources = [source for _, source in results]
    assert sources.count(SOURCE_LIVE) == 1
    assert sources.count(SOURCE_INFLIGHT) == 5
    assert batcher.stats.executed_live == 1  # the dedup guarantee
    verdicts = {result.verdict for result, _ in results}
    assert verdicts == {"unreachable"}
    assert batcher.inflight == 0


def test_cache_hit_never_queues(executor):
    async def run():
        batcher = MicroBatcher(cache=MemoryLRUCache(64), executor=executor)
        task = _task("warm")
        await batcher.submit(task)  # cold: queued and executed
        # a slow miss holds the lane; the hit must not wait behind it
        slow = asyncio.ensure_future(batcher.submit(_task("slow", seconds=0.5)))
        await asyncio.sleep(0.05)
        t0 = time.perf_counter()
        result, source = await batcher.submit(task)
        elapsed = time.perf_counter() - t0
        await slow
        return batcher, source, elapsed, result

    batcher, source, elapsed, result = asyncio.run(run())
    assert source == SOURCE_CACHE
    assert elapsed < 0.25  # far below the busy lane's 0.5 s batch
    assert result.source == "cache"
    assert batcher.stats.cache_hits == 1
    assert batcher.stats.batches == 2  # the hit formed no batch


def test_task_failures_are_results_not_exceptions(executor, tmp_path):
    """A failing task resolves every waiter with ok=False (the campaign
    contract) rather than raising."""
    token_dir = tmp_path / "tokens"
    token_dir.mkdir()

    async def run():
        batcher = MicroBatcher(cache=MemoryLRUCache(64), executor=executor)
        task = CampaignTask.make(
            "reachability",
            "debug-flaky",
            token_dir=str(token_dir),
            fail_times=99,
        )
        result, source = await batcher.submit(task)
        return batcher, result, source

    batcher, result, source = asyncio.run(run())
    assert source == SOURCE_LIVE
    assert not result.ok
    assert "flaky failure" in (result.error or "")
    assert batcher.stats.failures == 1


def test_infra_failure_rejects_every_waiter(executor):
    async def run():
        batcher = MicroBatcher(cache=MemoryLRUCache(64), executor=executor)
        batcher._run_batch = lambda batch: (_ for _ in ()).throw(
            RuntimeError("executor died")
        )
        waits = [
            asyncio.ensure_future(batcher.submit(_task(f"boom{i}")))
            for i in range(3)
        ]
        outcomes = await asyncio.gather(*waits, return_exceptions=True)
        return batcher, outcomes

    batcher, outcomes = asyncio.run(run())
    assert all(isinstance(o, RuntimeError) for o in outcomes)
    assert batcher.inflight == 0  # nothing leaks for future submits


def test_failed_results_are_not_cached(executor, tmp_path):
    """ok=False never enters the cache, so the next submit retries live."""
    token_dir = tmp_path / "tokens"
    token_dir.mkdir()
    cache = MemoryLRUCache(64)

    async def run():
        batcher = MicroBatcher(cache=cache, executor=executor)
        task = CampaignTask.make(
            "reachability",
            "debug-flaky",
            token_dir=str(token_dir),
            fail_times=1,
        )
        first, _ = await batcher.submit(task)
        second, source = await batcher.submit(task)  # attempt #2 succeeds
        return first, second, source

    first, second, source = asyncio.run(run())
    assert not first.ok
    assert second.ok and source == SOURCE_LIVE
    assert len(cache) == 1  # only the success was stored


def test_misses_during_a_running_batch_form_the_next_batch(executor):
    async def run():
        batcher = MicroBatcher(cache=MemoryLRUCache(64), executor=executor)
        first = asyncio.ensure_future(batcher.submit(_task("lane", seconds=0.3)))
        await asyncio.sleep(0.1)  # the first batch now holds the lane
        assert batcher.stats.batches == 1
        later = await asyncio.gather(
            *(batcher.submit(_task(f"queued{i}")) for i in range(3))
        )
        return batcher, [await first, *later]

    batcher, results = asyncio.run(run())
    assert batcher.stats.batches == 2
    assert batcher.stats.batched_tasks == 4
    assert batcher.stats.executed_live == 4
    assert all(source == SOURCE_LIVE for _, source in results)
    assert batcher.inflight == 0


def _pool_pids(batcher):
    return set(batcher.pool._executor._processes)


def _wait_for(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


def _exited(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_batches_share_one_process_pool(executor):
    """With two workers every batch runs on the batcher's one pool: two
    sequential cold batches land on the same worker processes, a killed
    worker is replaced by a fresh pool on the next batch, and close()
    leaves no child process behind."""
    config = RunnerConfig(max_workers=2, retries=0)

    async def run():
        batcher = MicroBatcher(cache=MemoryLRUCache(64), config=config, executor=executor)
        first, _ = await batcher.submit(_task("pool-a"))
        pids = _pool_pids(batcher)
        second, _ = await batcher.submit(_task("pool-b"))
        assert _pool_pids(batcher) == pids
        old = batcher.pool._executor
        os.kill(int(first.worker.removeprefix("pid")), signal.SIGKILL)
        assert _wait_for(lambda: old._broken), "the pool never saw its worker die"
        third, _ = await batcher.submit(_task("pool-c"))
        fresh = _pool_pids(batcher)
        batcher.close()
        return batcher, [first, second, third], pids, fresh

    batcher, results, pids, fresh = asyncio.run(run())
    assert batcher.stats.batches == 3
    assert all(r.ok for r in results)
    assert {int(r.worker.removeprefix("pid")) for r in results[:2]} <= pids
    third = int(results[2].worker.removeprefix("pid"))
    assert third in fresh and not fresh & pids
    assert all(_exited(pid) for pid in fresh)  # close() waited for them
    assert _wait_for(lambda: all(_exited(pid) for pid in pids))
