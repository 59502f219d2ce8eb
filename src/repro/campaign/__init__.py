"""Verification-campaign orchestration: fan sweeps out, cache verdicts, keep books.

Every paper artifact is reproduced by an exhaustive state-space search or a
traffic simulation.  A *campaign* is a batch of such unit verifications
described declaratively, executed in parallel, memoised on disk, and
recorded in an append-only ledger:

:mod:`tasks`      -- :class:`CampaignTask`, the frozen content-addressed unit
                     of work, and :func:`execute_task`, its interpreter.
:mod:`scenarios`  -- the registry mapping scenario names to constructions
                     (Figure 1--3 families, Theorem 2/3 sweeps, ``Gen(m)``,
                     baseline topologies, traffic workloads).
:mod:`runner`     -- :func:`run_campaign`, a ``ProcessPoolExecutor`` pool
                     with per-task timeout, bounded retry, and a serial
                     in-process fallback.
:mod:`cache`      -- the :class:`CacheBackend` protocol and its backends:
                     :class:`ResultCache` (JSON files keyed by task hash +
                     schema salt), :class:`MemoryLRUCache` (serve hot
                     tier), :class:`SqliteCache` (shareable across
                     processes/CI runners), :class:`TieredCache`, all
                     with hit/miss/stale accounting + integrity scans.
:mod:`ledger`     -- :class:`RunLedger` (JSONL) + :class:`CampaignSummary`.
:mod:`progress`   -- periodic done/total/rate/ETA reporting.
:mod:`specs`      -- built-in campaign specs (``paper-battery``, ``quick``).
:mod:`trend`      -- per-task wall-time regression detection across ledgers.

See ``docs/CAMPAIGN.md`` for the task model, cache keying, and ledger
schema.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

#: public name -> the submodule defining it, imported on first access
_EXPORTS = {
    "CampaignTask": "tasks",
    "TaskResult": "tasks",
    "execute_task": "tasks",
    "parse_shard": "tasks",
    "shard_tasks": "tasks",
    "SCHEMA_VERSION": "tasks",
    "TrendReport": "trend",
    "compare_ledgers": "trend",
    "CacheBackend": "cache",
    "CacheIntegrity": "cache",
    "CacheStats": "cache",
    "MemoryLRUCache": "cache",
    "ResultCache": "cache",
    "SqliteCache": "cache",
    "TieredCache": "cache",
    "make_backend": "cache",
    "schema_salt": "cache",
    "RunLedger": "ledger",
    "CampaignSummary": "ledger",
    "read_ledger": "ledger",
    "RunnerConfig": "runner",
    "run_campaign": "runner",
    "ProgressReporter": "progress",
    "build_spec": "specs",
    "spec_names": "specs",
}

if TYPE_CHECKING:  # pragma: no cover - the static view of _EXPORTS
    from repro.campaign.cache import (
        CacheBackend,
        CacheIntegrity,
        CacheStats,
        MemoryLRUCache,
        ResultCache,
        SqliteCache,
        TieredCache,
        make_backend,
        schema_salt,
    )
    from repro.campaign.ledger import CampaignSummary, RunLedger, read_ledger
    from repro.campaign.progress import ProgressReporter
    from repro.campaign.runner import RunnerConfig, run_campaign
    from repro.campaign.specs import build_spec, spec_names
    from repro.campaign.tasks import (
        SCHEMA_VERSION,
        CampaignTask,
        TaskResult,
        execute_task,
        parse_shard,
        shard_tasks,
    )
    from repro.campaign.trend import TrendReport, compare_ledgers

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
