"""Pluggable content-addressed result caches behind one ``CacheBackend`` shape.

Every backend stores the same *entry* -- the schema salt, the task
description (for human inspection; lookups never trust it), and the
serialised :class:`~repro.campaign.tasks.TaskResult` -- keyed by
``task_hash`` (canonical-JSON sha256 of kind/scenario/params).  The salt
``campaign-v<SCHEMA_VERSION>`` invalidates every entry at once when the
schema changes; a salt mismatch counts as *stale* rather than a miss so
re-verification pressure stays visible in the stats.  Corrupt or
unreadable entries are likewise stale, never fatal.  An entry keeps the
result's key order, so a hit prints the live result's bytes.  Failed
results (``ok=False``) are not cached: a crashed or timed-out task
should re-run, not replay its failure forever.

Backends (all satisfying the :class:`CacheBackend` protocol):

:class:`ResultCache`
    the original one-JSON-file-per-hash directory store
    (``<root>/<first 2 hash chars>/<task_hash>.json``).  Writes go
    through a unique temp file plus an atomic rename, so a worker killed
    mid-write can never publish a truncated entry.
:class:`MemoryLRUCache`
    a bounded in-process LRU -- the ``repro serve`` hot tier, where a
    repeated query must be answered in microseconds.
:class:`SqliteCache`
    a single-file sqlite store.  sqlite's own locking makes it safe to
    share between concurrent processes (CI runners pointing at one
    network file, campaign shards merging into one cache).
:class:`TieredCache`
    a hot tier over a durable tier: reads promote cold hits, writes go
    to both.

``make_backend("dir:PATH" | "sqlite:PATH" | "memory[:N]" | PATH)`` is the
CLI-facing factory; :meth:`CacheBackend.integrity` is the offline scan
behind ``campaign status --json`` that makes shared-cache drift
(corrupt entries, stale salts) visible across backends.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Protocol, runtime_checkable

from repro.campaign.tasks import SCHEMA_VERSION, CampaignTask, TaskResult

DEFAULT_CACHE_DIR = ".campaign-cache"

#: default entry capacity of the in-memory LRU tier
DEFAULT_LRU_CAPACITY = 4096


def schema_salt() -> str:
    return f"campaign-v{SCHEMA_VERSION}"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stale: int = 0
    writes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.stale

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_json(self) -> dict[str, int | float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
            "writes": self.writes,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class CacheIntegrity:
    """Offline scan of one backend's stored entries.

    ``corrupt`` counts entries that do not parse or lack the required
    fields; ``stale_salt`` counts parseable entries whose schema salt
    differs from the backend's current one.  Both are served as misses
    at lookup time -- the scan exists so shared-cache drift (a CI runner
    on an old schema, a half-written file from a killed worker) is
    *visible* before it turns into silent re-verification pressure.
    """

    backend: str
    salt: str
    entries: int = 0
    corrupt: int = 0
    stale_salt: int = 0

    @property
    def healthy(self) -> bool:
        return self.corrupt == 0 and self.stale_salt == 0

    def to_json(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "salt": self.salt,
            "entries": self.entries,
            "corrupt": self.corrupt,
            "stale_salt": self.stale_salt,
            "healthy": self.healthy,
        }


@runtime_checkable
class CacheBackend(Protocol):
    """What the campaign runner and the serve layer require of a cache."""

    salt: str
    stats: CacheStats

    def get(self, task: CampaignTask) -> TaskResult | None: ...

    def put(self, task: CampaignTask, result: TaskResult) -> None: ...

    def integrity(self) -> CacheIntegrity: ...

    def clear(self) -> int: ...

    def __len__(self) -> int: ...


# ----------------------------------------------------------------------
# shared entry codec
# ----------------------------------------------------------------------
class _StaleEntry(Exception):
    """Entry exists but cannot be served (corrupt or wrong-salt)."""


def _encode_entry(salt: str, task: CampaignTask, result: TaskResult) -> dict[str, Any]:
    return {
        "schema": salt,
        "task_hash": task.task_hash,
        "task": task.to_json(),
        "saved_at": time.time(),
        "result": result.to_json(),
    }


def _decode_entry(entry: Any, salt: str, task: CampaignTask) -> TaskResult:
    """Entry dict -> fresh TaskResult; raises :class:`_StaleEntry` otherwise.

    Always builds a new ``TaskResult`` (never hands out a shared mutable
    object), marks it ``source="cache"``, and rehydrates the *current*
    task's advisory expectation.
    """
    if not isinstance(entry, dict):
        raise _StaleEntry("entry is not an object")
    if entry.get("schema") != salt:
        raise _StaleEntry(f"salt {entry.get('schema')!r} != {salt!r}")
    try:
        result = TaskResult.from_json(entry["result"])
    except (TypeError, ValueError, KeyError) as exc:
        raise _StaleEntry(str(exc)) from None
    result.source = "cache"
    result.expect = task.expect
    return result


def _entry_defect(entry_text: str, salt: str) -> str | None:
    """``"corrupt"`` / ``"stale_salt"`` / None, for integrity scans."""
    try:
        entry = json.loads(entry_text)
    except ValueError:
        return "corrupt"
    if not isinstance(entry, dict) or "result" not in entry:
        return "corrupt"
    if entry.get("schema") != salt:
        return "stale_salt"
    try:
        TaskResult.from_json(entry["result"])
    except (TypeError, ValueError, KeyError):
        return "corrupt"
    return None


# ----------------------------------------------------------------------
# directory backend (the original store)
# ----------------------------------------------------------------------
@dataclass
class ResultCache:
    """One JSON file per task hash under ``root`` (see module docstring)."""

    root: Path
    salt: str = field(default_factory=schema_salt)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, task_hash: str) -> Path:
        return self.root / task_hash[:2] / f"{task_hash}.json"

    def get(self, task: CampaignTask) -> TaskResult | None:
        """Cached result, or None (accounting the miss/stale reason)."""
        path = self._path(task.task_hash)
        if not path.exists():
            self.stats.misses += 1
            return None
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
            result = _decode_entry(entry, self.salt, task)
        except (OSError, ValueError, _StaleEntry):
            self.stats.stale += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, task: CampaignTask, result: TaskResult) -> None:
        if not result.ok:
            return
        path = self._path(task.task_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = _encode_entry(self.salt, task, result)
        # Crash-safe publish: a *unique* temp file (two racing workers
        # must never interleave writes into one), fsynced, then atomically
        # renamed -- a killed worker leaves at worst an orphan *.tmp that
        # lookups and __len__ never see, never a truncated .json entry.
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{task.task_hash[:8]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, indent=1)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.writes += 1

    def integrity(self) -> CacheIntegrity:
        report = CacheIntegrity(backend="dir", salt=self.salt)
        for path in self.root.glob("*/*.json"):
            report.entries += 1
            try:
                text = path.read_text(encoding="utf-8")
            except OSError:
                report.corrupt += 1
                continue
            defect = _entry_defect(text, self.salt)
            if defect == "corrupt":
                report.corrupt += 1
            elif defect == "stale_salt":
                report.stale_salt += 1
        return report

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.root.glob("*/*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        for path in self.root.glob("*/*.tmp"):  # orphans from killed writers
            path.unlink(missing_ok=True)
        for sub in self.root.iterdir():
            if sub.is_dir() and not any(sub.iterdir()):
                sub.rmdir()
        return removed


# ----------------------------------------------------------------------
# in-memory LRU backend (serve hot tier)
# ----------------------------------------------------------------------
class MemoryLRUCache:
    """Bounded, thread-safe, in-process LRU of serialised entries.

    Entries are stored as JSON text and re-parsed on every ``get`` so
    concurrent readers never share one mutable ``TaskResult`` (the
    runner rewrites ``source``/``expect`` on hits).  Eviction is strict
    LRU on lookups and writes; ``evictions`` counts what fell out.
    """

    def __init__(self, capacity: int = DEFAULT_LRU_CAPACITY, *, salt: str | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.salt = salt or schema_salt()
        self.stats = CacheStats()
        self.evictions = 0
        self._entries: OrderedDict[str, str] = OrderedDict()
        self._lock = threading.RLock()

    def get(self, task: CampaignTask) -> TaskResult | None:
        with self._lock:
            text = self._entries.get(task.task_hash)
            if text is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(task.task_hash)
        try:
            result = _decode_entry(json.loads(text), self.salt, task)
        except (ValueError, _StaleEntry):
            with self._lock:
                self.stats.stale += 1
                self._entries.pop(task.task_hash, None)  # self-heal
            return None
        with self._lock:
            self.stats.hits += 1
        return result

    def put(self, task: CampaignTask, result: TaskResult) -> None:
        if not result.ok:
            return
        text = json.dumps(_encode_entry(self.salt, task, result))
        with self._lock:
            self._entries[task.task_hash] = text
            self._entries.move_to_end(task.task_hash)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            self.stats.writes += 1

    def integrity(self) -> CacheIntegrity:
        report = CacheIntegrity(backend="memory", salt=self.salt)
        with self._lock:
            texts = list(self._entries.values())
        for text in texts:
            report.entries += 1
            defect = _entry_defect(text, self.salt)
            if defect == "corrupt":
                report.corrupt += 1
            elif defect == "stale_salt":
                report.stale_salt += 1
        return report

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> int:
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
        return removed


# ----------------------------------------------------------------------
# sqlite backend (shared across processes / CI runners)
# ----------------------------------------------------------------------
class SqliteCache:
    """Single-file sqlite entry store, shareable between processes.

    WAL journaling keeps readers unblocked by writers; every ``put`` is
    one transaction, so a killed process can never publish a torn entry
    (sqlite's journal replays or rolls back).  One connection per
    instance, guarded by an RLock so a serve event loop and its batch
    executor thread can share the instance.
    """

    def __init__(
        self, path: str | Path, *, salt: str | None = None, timeout: float = 30.0
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.salt = salt or schema_salt()
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            str(self.path), timeout=timeout, check_same_thread=False
        )
        self._enable_wal(timeout)
        with self._lock, self._conn:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                " task_hash TEXT PRIMARY KEY,"
                " salt TEXT NOT NULL,"
                " entry TEXT NOT NULL,"
                " saved_at REAL NOT NULL)"
            )

    def _enable_wal(self, timeout: float) -> None:
        """Switch the database to WAL journaling.

        On a new file opened by several processes at once the switch can
        fail with ``database is locked`` at once, without waiting on the
        connection's busy timeout; retry it until ``timeout`` seconds have
        passed, then re-raise.
        """
        deadline = time.monotonic() + timeout
        pause = 0.001
        while True:
            try:
                with self._lock, self._conn:
                    self._conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if "database is locked" not in str(exc) or time.monotonic() >= deadline:
                    raise
            time.sleep(pause)
            pause = min(pause * 2, 0.05)

    def get(self, task: CampaignTask) -> TaskResult | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT entry FROM entries WHERE task_hash = ?", (task.task_hash,)
            ).fetchone()
        if row is None:
            self.stats.misses += 1
            return None
        try:
            result = _decode_entry(json.loads(row[0]), self.salt, task)
        except (ValueError, _StaleEntry):
            self.stats.stale += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, task: CampaignTask, result: TaskResult) -> None:
        if not result.ok:
            return
        entry = _encode_entry(self.salt, task, result)
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO entries (task_hash, salt, entry, saved_at)"
                " VALUES (?, ?, ?, ?)",
                (task.task_hash, self.salt, json.dumps(entry),
                 entry["saved_at"]),
            )
        self.stats.writes += 1

    def integrity(self) -> CacheIntegrity:
        report = CacheIntegrity(backend="sqlite", salt=self.salt)
        with self._lock:
            rows = self._conn.execute("SELECT entry FROM entries").fetchall()
        for (text,) in rows:
            report.entries += 1
            defect = _entry_defect(text, self.salt)
            if defect == "corrupt":
                report.corrupt += 1
            elif defect == "stale_salt":
                report.stale_salt += 1
        return report

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute("SELECT COUNT(*) FROM entries").fetchone()
        return int(count)

    def clear(self) -> int:
        with self._lock, self._conn:
            removed = len(self)
            self._conn.execute("DELETE FROM entries")
        return removed

    def close(self) -> None:
        with self._lock:
            self._conn.close()


# ----------------------------------------------------------------------
# tiered composition (serve: memory LRU over a durable shared store)
# ----------------------------------------------------------------------
class TieredCache:
    """A fast lossy ``hot`` tier over a durable ``cold`` tier.

    ``get`` promotes cold hits into the hot tier; ``put`` writes through
    to both.  ``stats`` accounts at the *tier* level (a hit in either
    tier is one hit), while each member keeps its own per-backend stats
    for the serve status endpoint.
    """

    def __init__(self, hot: CacheBackend, cold: CacheBackend) -> None:
        if hot.salt != cold.salt:
            raise ValueError(
                f"tier salt mismatch: hot={hot.salt!r} cold={cold.salt!r}"
            )
        self.hot = hot
        self.cold = cold
        self.salt = cold.salt
        self.stats = CacheStats()

    def get(self, task: CampaignTask) -> TaskResult | None:
        result = self.hot.get(task)
        if result is None:
            result = self.cold.get(task)
            if result is not None:
                self.hot.put(task, result)
        if result is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, task: CampaignTask, result: TaskResult) -> None:
        if not result.ok:
            return
        self.hot.put(task, result)
        self.cold.put(task, result)
        self.stats.writes += 1

    def integrity(self) -> CacheIntegrity:
        """The durable tier's scan (the hot tier is derived data)."""
        return self.cold.integrity()

    def __len__(self) -> int:
        return len(self.cold)

    def clear(self) -> int:
        """Entries dropped across both tiers (hot holds duplicates)."""
        return self.hot.clear() + self.cold.clear()


# ----------------------------------------------------------------------
# factory
# ----------------------------------------------------------------------
def make_backend(
    spec: str | None,
    *,
    default_dir: str = DEFAULT_CACHE_DIR,
    salt: str | None = None,
) -> CacheBackend:
    """Build a backend from a CLI spec string.

    ``dir:PATH`` (or a bare path) -> :class:`ResultCache`;
    ``sqlite:PATH`` -> :class:`SqliteCache`;
    ``memory`` / ``memory:N`` -> :class:`MemoryLRUCache` holding N entries.
    ``None``/empty falls back to the directory store at ``default_dir``.
    """
    spec = spec or default_dir
    scheme, _, rest = spec.partition(":")
    if scheme == "sqlite":
        if not rest:
            raise ValueError("sqlite backend needs a path: sqlite:PATH")
        return SqliteCache(rest, salt=salt)
    if scheme == "memory":
        try:
            capacity = int(rest) if rest else DEFAULT_LRU_CAPACITY
        except ValueError:
            raise ValueError(
                f"memory backend capacity must be an integer, got {rest!r}"
            ) from None
        return MemoryLRUCache(capacity, salt=salt)
    if scheme == "dir":
        if not rest:
            raise ValueError("dir backend needs a path: dir:PATH")
        return ResultCache(Path(rest), salt=salt or schema_salt())
    return ResultCache(Path(spec), salt=salt or schema_salt())
