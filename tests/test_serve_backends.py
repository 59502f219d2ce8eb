"""CacheBackend conformance: dir / memory LRU / sqlite / tiered behave alike."""

import json
import os

import pytest

from repro.campaign.cache import (
    CacheBackend,
    MemoryLRUCache,
    ResultCache,
    SqliteCache,
    TieredCache,
    make_backend,
    schema_salt,
)
from repro.campaign.tasks import CampaignTask, TaskResult

TASK = CampaignTask.make(
    "reachability", "fig2-pair", d1=2, d2=1, hold=2, expect="deadlock"
)

BACKENDS = ("dir", "memory", "sqlite", "tiered")


def _result(task=TASK, **kw):
    base = dict(
        task_hash=task.task_hash,
        name=task.name,
        kind=task.kind,
        scenario=task.scenario,
        params=task.params_dict(),
        verdict="deadlock",
        detail={"states_explored": 123},
    )
    base.update(kw)
    return TaskResult(**base)


def _backend(kind, tmp_path):
    if kind == "dir":
        return ResultCache(tmp_path / "dir")
    if kind == "memory":
        return MemoryLRUCache(8)
    if kind == "sqlite":
        return SqliteCache(tmp_path / "cache.db")
    return TieredCache(MemoryLRUCache(8), ResultCache(tmp_path / "cold"))


@pytest.mark.parametrize("kind", BACKENDS)
def test_satisfies_protocol(kind, tmp_path):
    assert isinstance(_backend(kind, tmp_path), CacheBackend)


@pytest.mark.parametrize("kind", BACKENDS)
def test_miss_put_hit_roundtrip(kind, tmp_path):
    cache = _backend(kind, tmp_path)
    assert cache.get(TASK) is None
    cache.put(TASK, _result())
    assert len(cache) == 1
    hit = cache.get(TASK)
    assert hit is not None
    assert hit.verdict == "deadlock"
    assert hit.source == "cache"
    assert hit.detail["states_explored"] == 123
    assert cache.stats.hits == 1


@pytest.mark.parametrize("kind", BACKENDS)
def test_hit_keeps_the_result_key_order(kind, tmp_path):
    """A hit serialises to the live result's bytes: ``/v1/lint`` returns
    a stored lint report as is, and must match ``repro lint --json``."""
    detail = {"report": {"target": "t", "verdict": "undecided",
                         "evidence": {"worst": 1, "max_slack": 2}}}
    cache = _backend(kind, tmp_path)
    cache.put(TASK, _result(detail=detail))
    assert json.dumps(cache.get(TASK).detail) == json.dumps(detail)


@pytest.mark.parametrize("kind", BACKENDS)
def test_hits_are_independent_objects(kind, tmp_path):
    """Two gets must never share one mutable TaskResult (the runner
    rewrites source/expect on hits)."""
    cache = _backend(kind, tmp_path)
    cache.put(TASK, _result())
    a, b = cache.get(TASK), cache.get(TASK)
    a.source = "mutated"
    a.detail["states_explored"] = -1
    assert b.source == "cache"
    assert b.detail["states_explored"] == 123


@pytest.mark.parametrize("kind", BACKENDS)
def test_failed_results_are_not_cached(kind, tmp_path):
    cache = _backend(kind, tmp_path)
    cache.put(TASK, _result(ok=False, verdict="error", error="boom"))
    assert len(cache) == 0
    assert cache.get(TASK) is None


@pytest.mark.parametrize("kind", BACKENDS)
def test_salt_mismatch_is_stale_not_hit(kind, tmp_path):
    cache = _backend(kind, tmp_path)
    cache.put(TASK, _result())
    cache.salt = "campaign-v0"  # simulate a schema bump
    if kind == "tiered":
        cache.hot.salt = cache.cold.salt = "campaign-v0"
    assert cache.get(TASK) is None
    assert cache.stats.hits == 0


@pytest.mark.parametrize("kind", BACKENDS)
def test_clear_and_expectation_rehydration(kind, tmp_path):
    cache = _backend(kind, tmp_path)
    cache.put(TASK, _result(expect=None))
    hit = cache.get(TASK)
    assert hit.expect == "deadlock"  # the *current* task's expectation
    assert cache.clear() >= 1
    assert len(cache) == 0
    assert cache.get(TASK) is None


@pytest.mark.parametrize("kind", BACKENDS)
def test_integrity_healthy_after_writes(kind, tmp_path):
    cache = _backend(kind, tmp_path)
    for hold in (2, 3, 4):
        task = CampaignTask.make("reachability", "fig2-pair", d1=1, d2=1, hold=hold)
        cache.put(task, _result(task))
    report = cache.integrity()
    assert report.entries == 3
    assert report.corrupt == 0 and report.stale_salt == 0
    assert report.healthy
    assert report.salt == schema_salt()


def test_lru_evicts_oldest():
    cache = MemoryLRUCache(2)
    tasks = [
        CampaignTask.make("reachability", "fig2-pair", d1=1, d2=1, hold=h)
        for h in (2, 3, 4)
    ]
    for t in tasks:
        cache.put(t, _result(t))
    assert len(cache) == 2
    assert cache.evictions == 1
    assert cache.get(tasks[0]) is None  # oldest fell out
    assert cache.get(tasks[2]) is not None


def test_lru_get_refreshes_recency():
    cache = MemoryLRUCache(2)
    t1, t2, t3 = (
        CampaignTask.make("reachability", "fig2-pair", d1=1, d2=1, hold=h)
        for h in (2, 3, 4)
    )
    cache.put(t1, _result(t1))
    cache.put(t2, _result(t2))
    assert cache.get(t1) is not None  # t1 is now most-recent
    cache.put(t3, _result(t3))  # evicts t2, not t1
    assert cache.get(t1) is not None
    assert cache.get(t2) is None


def test_sqlite_persists_across_instances(tmp_path):
    path = tmp_path / "cache.db"
    first = SqliteCache(path)
    first.put(TASK, _result())
    first.close()
    second = SqliteCache(path)
    hit = second.get(TASK)
    assert hit is not None and hit.verdict == "deadlock"
    second.close()


def test_sqlite_shared_between_instances(tmp_path):
    path = tmp_path / "cache.db"
    writer, reader = SqliteCache(path), SqliteCache(path)
    writer.put(TASK, _result())
    assert reader.get(TASK) is not None
    writer.close()
    reader.close()


def test_sqlite_corrupt_row_is_stale(tmp_path):
    cache = SqliteCache(tmp_path / "cache.db")
    cache.put(TASK, _result())
    with cache._conn:
        cache._conn.execute(
            "UPDATE entries SET entry = '{broken' WHERE task_hash = ?",
            (TASK.task_hash,),
        )
    assert cache.get(TASK) is None
    assert cache.stats.stale == 1
    report = cache.integrity()
    assert report.corrupt == 1 and not report.healthy
    cache.close()


def test_dir_corrupt_file_visible_in_integrity(tmp_path):
    cache = ResultCache(tmp_path / "c")
    cache.put(TASK, _result())
    (path,) = list((tmp_path / "c").glob("*/*.json"))
    path.write_text("{not json", encoding="utf-8")
    report = cache.integrity()
    assert report.entries == 1 and report.corrupt == 1
    assert not report.healthy


def test_dir_stale_salt_visible_in_integrity(tmp_path):
    old = ResultCache(tmp_path / "c", salt="campaign-v0")
    old.put(TASK, _result())
    fresh = ResultCache(tmp_path / "c")
    report = fresh.integrity()
    assert report.stale_salt == 1 and report.corrupt == 0
    assert not report.healthy


def test_memory_self_heals_corrupt_entry():
    cache = MemoryLRUCache(4)
    cache.put(TASK, _result())
    cache._entries[TASK.task_hash] = "{broken"
    assert cache.get(TASK) is None
    assert cache.stats.stale == 1
    assert len(cache) == 0  # the bad entry was dropped


def test_tiered_promotes_cold_hits(tmp_path):
    hot = MemoryLRUCache(8)
    cold = ResultCache(tmp_path / "cold")
    cold.put(TASK, _result())
    tiered = TieredCache(hot, cold)
    assert len(hot) == 0
    assert tiered.get(TASK) is not None
    assert len(hot) == 1  # promoted
    hot_hits_before = hot.stats.hits
    assert tiered.get(TASK) is not None
    assert hot.stats.hits == hot_hits_before + 1  # served by the hot tier


def test_tiered_put_writes_through(tmp_path):
    hot = MemoryLRUCache(8)
    cold = ResultCache(tmp_path / "cold")
    tiered = TieredCache(hot, cold)
    tiered.put(TASK, _result())
    assert len(hot) == 1 and len(cold) == 1
    assert tiered.stats.writes == 1


def test_tiered_rejects_salt_mismatch(tmp_path):
    with pytest.raises(ValueError, match="salt mismatch"):
        TieredCache(
            MemoryLRUCache(2, salt="campaign-v0"), ResultCache(tmp_path / "c")
        )


# ----------------------------------------------------------------------
# crash-safe directory writes
# ----------------------------------------------------------------------
def test_put_leaves_no_temp_files(tmp_path):
    cache = ResultCache(tmp_path / "c")
    for hold in range(2, 8):
        task = CampaignTask.make("reachability", "fig2-pair", d1=1, d2=1, hold=hold)
        cache.put(task, _result(task))
    assert list((tmp_path / "c").glob("**/*.tmp")) == []
    assert len(cache) == 6


def test_put_crash_publishes_nothing(tmp_path, monkeypatch):
    """A crash before the atomic rename must leave neither a truncated
    entry nor an orphan temp file."""
    cache = ResultCache(tmp_path / "c")

    def exploding_replace(src, dst):
        raise OSError("simulated crash at publish time")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(OSError, match="simulated crash"):
        cache.put(TASK, _result())
    monkeypatch.undo()
    assert list((tmp_path / "c").glob("**/*.tmp")) == []
    assert len(cache) == 0
    assert cache.get(TASK) is None


def test_clear_sweeps_orphan_tmp_files(tmp_path):
    cache = ResultCache(tmp_path / "c")
    cache.put(TASK, _result())
    orphan = (tmp_path / "c" / TASK.task_hash[:2]) / ".deadbeef-orphan.tmp"
    orphan.write_text("half-written", encoding="utf-8")
    cache.clear()
    assert not orphan.exists()


# ----------------------------------------------------------------------
# factory
# ----------------------------------------------------------------------
def test_make_backend_parsing(tmp_path):
    assert isinstance(make_backend(f"dir:{tmp_path / 'a'}"), ResultCache)
    assert isinstance(make_backend(str(tmp_path / "b")), ResultCache)
    assert isinstance(make_backend(f"sqlite:{tmp_path / 'c.db'}"), SqliteCache)
    assert isinstance(make_backend("memory"), MemoryLRUCache)
    lru = make_backend("memory:7")
    assert isinstance(lru, MemoryLRUCache) and lru.capacity == 7
    fallback = make_backend(None, default_dir=str(tmp_path / "d"))
    assert isinstance(fallback, ResultCache)
    assert fallback.root == tmp_path / "d"


def test_make_backend_rejects_bad_specs():
    with pytest.raises(ValueError, match="sqlite backend needs a path"):
        make_backend("sqlite:")
    with pytest.raises(ValueError, match="capacity must be an integer"):
        make_backend("memory:lots")
    with pytest.raises(ValueError, match="dir backend needs a path"):
        make_backend("dir:")


def test_backends_store_identical_entry_shape(tmp_path):
    """All backends persist the same entry schema (salt + task + result),
    so a future migration tool can move entries between them."""
    dir_cache = ResultCache(tmp_path / "c")
    sql_cache = SqliteCache(tmp_path / "cache.db")
    dir_cache.put(TASK, _result())
    sql_cache.put(TASK, _result())
    (path,) = list((tmp_path / "c").glob("*/*.json"))
    dir_entry = json.loads(path.read_text(encoding="utf-8"))
    (row,) = sql_cache._conn.execute("SELECT entry FROM entries").fetchall()
    sql_entry = json.loads(row[0])
    assert set(dir_entry) == set(sql_entry)
    assert dir_entry["schema"] == sql_entry["schema"] == schema_salt()
    assert dir_entry["result"]["verdict"] == sql_entry["result"]["verdict"]
    sql_cache.close()
