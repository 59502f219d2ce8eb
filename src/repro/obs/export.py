"""Telemetry exporters: a JSONL event stream and a JSON metrics snapshot.

:class:`JsonlExporter` is a sink (attach with ``Telemetry.add_sink``)
that appends one JSON object per event, flushed per line so a killed run
leaves a readable partial stream -- the same contract as the campaign
ledger.

:func:`write_snapshot` serialises the final registry to a standalone
JSON report.  Field conventions deliberately match the committed search
benchmark (``BENCH_search.json`` / ``scripts/perf_report.py``): per-name
wall clock is ``wall_s``, the header carries ``schema`` / ``generated``
/ ``python`` / ``platform``, so the same diffing habits transfer.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Any, TextIO

from repro.obs.core import Telemetry

SNAPSHOT_SCHEMA = "repro-telemetry/v2"


class JsonlExporter:
    """Append-only JSONL sink; one instance per output path."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: TextIO = open(self.path, "a", encoding="utf-8")

    def __call__(self, event: dict[str, Any]) -> None:
        self._fh.write(json.dumps(event, sort_keys=True, default=str) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> JsonlExporter:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def snapshot_report(tel: Telemetry) -> dict[str, Any]:
    """The end-of-run metrics snapshot as a JSON-able dict."""
    report: dict[str, Any] = {
        "schema": SNAPSHOT_SCHEMA,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    if tel.run_id:
        report["run_id"] = tel.run_id
    report.update(tel.snapshot())
    return report


def write_snapshot(tel: Telemetry, path: str | Path) -> Path:
    """Write :func:`snapshot_report` to ``path``; returns the path."""
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(snapshot_report(tel), indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    return out
