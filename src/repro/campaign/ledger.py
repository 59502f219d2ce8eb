"""Append-only JSONL run ledger + campaign summary.

Every task outcome -- cache hit or live, success or failure -- becomes one
``{"type": "result", ...}`` line the moment it is known (flushed, so a
killed campaign leaves a readable partial ledger).  A finished campaign
appends one ``{"type": "summary", ...}`` line.  Ledgers accumulate across
runs of the same spec; ``read_ledger`` returns everything (``campaign
status`` merges shard ledgers from it).

Result line fields: ``task_hash``, ``name``, ``kind``, ``scenario``,
``params``, ``verdict``, ``detail`` (states explored etc.), ``ok``,
``error``, ``wall_time``, ``worker``, ``source`` ("cache"/"live"),
``attempts``, ``expect``.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TextIO

from repro.campaign.cache import CacheStats
from repro.campaign.tasks import TaskResult


@dataclass
class CampaignSummary:
    """Aggregate view of one campaign run."""

    spec: str = ""
    total: int = 0
    ok: int = 0
    failed: int = 0
    from_cache: int = 0
    live: int = 0
    verdicts: Counter = field(default_factory=Counter)
    expect_mismatches: list[str] = field(default_factory=list)
    wall_time: float = 0.0
    workers: int = 1
    cache: CacheStats | None = None

    def add(self, result: TaskResult) -> None:
        self.total += 1
        if result.ok:
            self.ok += 1
        else:
            self.failed += 1
        if result.source == "cache":
            self.from_cache += 1
        else:
            self.live += 1
        self.verdicts[result.verdict] += 1
        if result.expect_matches is False:
            self.expect_mismatches.append(
                f"{result.name}: expected {result.expect}, got {result.verdict}"
            )

    @property
    def all_expected(self) -> bool:
        return not self.expect_mismatches and self.failed == 0

    def to_json(self) -> dict[str, Any]:
        return {
            "spec": self.spec,
            "total": self.total,
            "ok": self.ok,
            "failed": self.failed,
            "from_cache": self.from_cache,
            "live": self.live,
            "verdicts": dict(self.verdicts),
            "expect_mismatches": list(self.expect_mismatches),
            "wall_time": round(self.wall_time, 3),
            "workers": self.workers,
            "cache": self.cache.to_json() if self.cache else None,
        }

    def rows(self) -> dict[str, Any]:
        """Key/value rows for ``repro.experiments.report.render_kv``."""
        out: dict[str, Any] = {
            "spec": self.spec,
            "tasks": self.total,
            "ok": self.ok,
            "failed": self.failed,
            "cache hits": self.from_cache,
            "live runs": self.live,
            "workers": self.workers,
            "wall time (s)": round(self.wall_time, 2),
        }
        for verdict, n in sorted(self.verdicts.items()):
            out[f"verdict[{verdict}]"] = n
        out["matches expectations"] = self.all_expected
        return out


class RunLedger:
    """Append-only JSONL writer; one instance per campaign run."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: TextIO = open(self.path, "a", encoding="utf-8")

    def _write(self, obj: dict[str, Any]) -> None:
        self._fh.write(json.dumps(obj, sort_keys=True) + "\n")
        self._fh.flush()

    def record(self, result: TaskResult) -> None:
        line = {"type": "result", "time": time.time()}
        line.update(result.to_json())
        self._write(line)

    def record_summary(self, summary: CampaignSummary) -> None:
        line = {"type": "summary", "time": time.time()}
        line.update(summary.to_json())
        self._write(line)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_ledger(path: str | Path) -> tuple[list[TaskResult], list[dict[str, Any]]]:
    """All (results, summary dicts) recorded in a ledger file.

    Unparseable lines are skipped: an append-only log truncated by a crash
    must still be readable up to the damage.
    """
    results: list[TaskResult] = []
    summaries: list[dict[str, Any]] = []
    path = Path(path)
    if not path.exists():
        return results, summaries
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            try:
                line = json.loads(raw)
            except ValueError:
                continue
            if line.get("type") == "summary":
                summaries.append(line)
            elif line.get("type") == "result":
                results.append(TaskResult.from_json(line))
    return results, summaries
