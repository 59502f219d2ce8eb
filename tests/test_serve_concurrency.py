"""Cache backends under concurrency: racing threads and processes.

The serve event loop, its batch executor thread, and (for sqlite/dir)
whole worker fleets share one backend; these tests hammer get/put from
many threads per backend and from multiple processes for the two
durable stores.
"""

import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.campaign.cache import (
    MemoryLRUCache,
    ResultCache,
    SqliteCache,
    TieredCache,
    make_backend,
)
from repro.campaign.tasks import CampaignTask, TaskResult

THREADS = 8
TASKS_PER_THREAD = 12


def _task(i):
    return CampaignTask.make("reachability", "fig2-pair", d1=1, d2=1, hold=i + 2)


def _result(task):
    return TaskResult(
        task_hash=task.task_hash,
        name=task.name,
        kind=task.kind,
        scenario=task.scenario,
        params=task.params_dict(),
        verdict="deadlock",
        detail={"states_explored": 7},
    )


def _backend(kind, tmp_path):
    if kind == "dir":
        return ResultCache(tmp_path / "dir")
    if kind == "memory":
        return MemoryLRUCache(256)
    if kind == "sqlite":
        return SqliteCache(tmp_path / "cache.db")
    return TieredCache(MemoryLRUCache(256), ResultCache(tmp_path / "cold"))


@pytest.mark.parametrize("kind", ("dir", "memory", "sqlite", "tiered"))
def test_threads_racing_get_put(kind, tmp_path):
    """N threads all put+get the same task set; every get that returns
    must return a well-formed cached result, and no call may raise."""
    cache = _backend(kind, tmp_path)
    tasks = [_task(i) for i in range(TASKS_PER_THREAD)]
    errors = []
    barrier = threading.Barrier(THREADS)

    def hammer():
        try:
            barrier.wait(timeout=10)
            for task in tasks:
                cache.put(task, _result(task))
                hit = cache.get(task)
                # a racing clear/evict could miss, but a returned hit
                # must be intact
                if hit is not None:
                    assert hit.verdict == "deadlock"
                    assert hit.source == "cache"
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    workers = [threading.Thread(target=hammer) for _ in range(THREADS)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60)
    assert errors == []
    assert len(cache) == TASKS_PER_THREAD
    for task in tasks:
        hit = cache.get(task)
        assert hit is not None and hit.detail["states_explored"] == 7


def _process_hammer(spec: str, n: int) -> int:
    """Module-level worker (must pickle): put+get n tasks, count hits."""
    cache = make_backend(spec)
    hits = 0
    for i in range(n):
        task = _task(i)
        cache.put(task, _result(task))
        if cache.get(task) is not None:
            hits += 1
    close = getattr(cache, "close", None)
    if callable(close):
        close()
    return hits


@pytest.mark.parametrize("scheme", ("dir", "sqlite"))
def test_processes_racing_get_put(scheme, tmp_path):
    """The durable backends are shared across real processes (shards,
    CI runners): racing writers must corrupt nothing."""
    if scheme == "dir":
        spec = f"dir:{tmp_path / 'shared'}"
    else:
        spec = f"sqlite:{tmp_path / 'shared.db'}"
    try:
        pool = ProcessPoolExecutor(max_workers=3)
    except Exception:  # pragma: no cover - sandbox without process support
        pytest.skip("process pools unavailable in this environment")
    with pool:
        futures = [pool.submit(_process_hammer, spec, TASKS_PER_THREAD) for _ in range(3)]
        counts = [f.result(timeout=120) for f in futures]
    assert all(c == TASKS_PER_THREAD for c in counts)

    merged = make_backend(spec)
    assert len(merged) == TASKS_PER_THREAD
    report = merged.integrity()
    assert report.entries == TASKS_PER_THREAD
    assert report.healthy, report.to_json()
    for i in range(TASKS_PER_THREAD):
        assert merged.get(_task(i)) is not None


#: the barrier the opener processes meet at (set by the pool initializer)
_OPEN_BARRIER = None

#: rounds of three processes creating one new sqlite file at once
OPEN_ROUNDS = 40


def _init_open_barrier(barrier) -> None:
    global _OPEN_BARRIER
    _OPEN_BARRIER = barrier


def _open_sqlite_behind_barrier(path: str) -> str | None:
    """Module-level worker: meet the other openers, then build a
    SqliteCache on ``path``; the error it raised, or None."""
    _OPEN_BARRIER.wait(timeout=60)
    try:
        SqliteCache(path).close()
    except Exception as exc:  # noqa: BLE001 - collected for the assert
        return f"{type(exc).__name__}: {exc}"
    return None


def test_processes_racing_sqlite_open(tmp_path):
    """Processes opening one *new* sqlite cache file at the same moment
    (shards started together on a fresh ``--cache-backend sqlite:``) all
    succeed: switching a new database to WAL can meet ``database is
    locked``, which the constructor waits out within its timeout."""
    import multiprocessing

    try:
        pool = ProcessPoolExecutor(
            max_workers=3,
            initializer=_init_open_barrier,
            initargs=(multiprocessing.Barrier(3),),
        )
    except Exception:  # pragma: no cover - sandbox without process support
        pytest.skip("process pools unavailable in this environment")
    errors = []
    with pool:
        for r in range(OPEN_ROUNDS):
            path = str(tmp_path / f"fresh{r}.db")
            futures = [
                pool.submit(_open_sqlite_behind_barrier, path) for _ in range(3)
            ]
            errors += [err for f in futures if (err := f.result(timeout=120))]
    assert errors == []


def test_sqlite_open_gives_up_after_its_timeout(tmp_path):
    """A lock held past the constructor's timeout is still an error."""
    import sqlite3
    import time

    path = tmp_path / "held.db"
    holder = sqlite3.connect(path, isolation_level=None)
    holder.execute("BEGIN EXCLUSIVE")
    t0 = time.monotonic()
    with pytest.raises(sqlite3.OperationalError, match="database is locked"):
        SqliteCache(path, timeout=0.2)
    assert time.monotonic() - t0 < 10
    holder.close()


def test_sqlite_instance_shared_between_threads(tmp_path):
    """One SqliteCache instance is documented as thread-safe (the serve
    loop and its executor thread share one)."""
    cache = SqliteCache(tmp_path / "cache.db")
    errors = []

    def worker(offset):
        try:
            for i in range(offset, offset + 6):
                task = _task(i)
                cache.put(task, _result(task))
                assert cache.get(task) is not None
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    workers = [threading.Thread(target=worker, args=(k * 6,)) for k in range(4)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60)
    assert errors == []
    assert len(cache) == 24
    cache.close()
