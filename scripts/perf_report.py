"""N-engine A/B of the search core -> BENCH_search.json (bench-search/v2).

For every requested scenario this script launches
``benchmarks/bench_search_core.py`` once per engine under comparison in
fresh interpreter processes (cold engine tables; the kernel's one-time C
compile is warmed untimed), takes the best of
``--repeats`` runs per engine, cross-checks that every engine reports an
identical ``states`` count (the engines are pinned bit-identical; a
divergence here is a correctness bug, not a perf result), and writes a
machine-readable report.  See ``docs/PERF.md`` for the report format and
methodology.

Usage::

    PYTHONPATH=src python scripts/perf_report.py                  # full set
    PYTHONPATH=src python scripts/perf_report.py --quick          # CI smoke
    PYTHONPATH=src python scripts/perf_report.py \
        --scenarios fig1-sync --gate kernel:reference:1.0         # gate

``--gate FASTER:BASELINE:MIN`` (repeatable) turns the report into a
regression gate: exit 1 if FASTER's CPU-time speedup over BASELINE falls
below MIN on any measured scenario.  CPU time is the gated metric because
the engines are single-process and CI wall clocks are shared-runner
noise.  The CI benchmark-smoke job gates ``kernel:reference:1.0`` on the
Fig. 1 searches -- the compiled engine must never be slower than the
oracle it supersedes.

The program picks its engine itself, so each leg is set up the way real
runs reach that engine: the ``kernel`` leg runs with the environment as
given, and the ``reference`` leg runs with ``REPRO_CC`` naming a missing
compiler and ``REPRO_KERNEL_CACHE`` pointing at an empty directory, so no
compiled library loads and every search takes the loud fallback.  Each
run reports the engine that actually ran, and a leg that ran on the
wrong engine is an error.  The kernel engine appears in the default
engine list only when its compiled library loads (a C compiler, or a
cached build); without one it would just measure the reference twice.
The report records the resolved kernel tier (``kernel_tier``: ``"cc"``
or ``null``) next to ``cpu_count``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH = REPO_ROOT / "benchmarks" / "bench_search_core.py"

#: scenarios in the default (committed) report, cheapest first
DEFAULT_SCENARIOS = (
    "fig1-sync",
    "thm1-five",
    "fig1-copies",
    "fig1-b1",
    "fig1-delay",
    "gen2-delay",
    "battery-search",
)

QUICK_SCENARIOS = ("fig1-sync", "thm1-five")

#: engines in the default report, slowest first (speedups read downward)
DEFAULT_ENGINES = ("reference",)

#: a compiler name no PATH lookup finds: with it and an empty kernel
#: cache, no compiled library loads and searches fall back to reference
MISSING_CC = "repro-no-such-cc"


def kernel_tier() -> str | None:
    """The kernel backend tier searches resolve to here: ``"cc"``, or
    ``None`` when no compiled library loads or the package cannot be
    imported.

    Probing imports from ``src`` -- fine here, the subprocess runs get
    their own fresh interpreters either way.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.analysis.kernelpath import resolve_backend

        return resolve_backend()
    except Exception:
        return None
    finally:
        sys.path.pop(0)


def default_engines(tier: str | None) -> tuple[str, ...]:
    """The default comparison set, plus the kernel when its library loads."""
    return DEFAULT_ENGINES + ("kernel",) if tier == "cc" else DEFAULT_ENGINES


def run_one(scenario: str, engine: str) -> dict[str, Any]:
    """One fresh-process measurement of ``scenario`` under ``engine``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    with tempfile.TemporaryDirectory(prefix="repro-nokernel-") as empty:
        if engine == "reference":
            env["REPRO_CC"] = MISSING_CC
            env["REPRO_KERNEL_CACHE"] = empty
        proc = subprocess.run(
            [sys.executable, str(BENCH), "--scenario", scenario],
            env=env,
            capture_output=True,
            text=True,
            check=False,
        )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{scenario}/{engine} failed (exit {proc.returncode}):\n{proc.stderr}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result.get("engine") != engine:
        raise RuntimeError(
            f"{scenario}: the {engine} leg ran on {result.get('engine')!r}"
        )
    return result


def best_of(scenario: str, engine: str, repeats: int) -> dict[str, Any]:
    """Best (lowest CPU time) of ``repeats`` fresh-process runs."""
    runs = [run_one(scenario, engine) for _ in range(repeats)]
    return min(runs, key=lambda r: r["cpu_s"])


def bench_scenario(
    scenario: str, engines: list[str], repeats: int
) -> dict[str, Any]:
    """Measure every engine on one scenario; cross-check state counts.

    The entry maps each engine name to its best run plus a ``speedups``
    table with one ``"FASTER/BASELINE"`` key per ordered engine pair
    (list order), each holding wall and CPU ratios.
    """
    entry: dict[str, Any] = {
        eng: best_of(scenario, eng, repeats) for eng in engines
    }
    counts = {eng: entry[eng].get("states") for eng in engines}
    if len(set(counts.values())) > 1:
        raise RuntimeError(
            f"{scenario}: engines disagree on states explored -- {counts}; "
            "this is a search-correctness bug, refusing to write a report"
        )
    speedups: dict[str, dict[str, float]] = {}
    for i, base in enumerate(engines):
        for faster in engines[i + 1 :]:
            pair: dict[str, float] = {}
            if entry[faster]["wall_s"] > 0:
                pair["wall"] = round(
                    entry[base]["wall_s"] / entry[faster]["wall_s"], 2
                )
            if entry[faster]["cpu_s"] > 0:
                pair["cpu"] = round(
                    entry[base]["cpu_s"] / entry[faster]["cpu_s"], 2
                )
            speedups[f"{faster}/{base}"] = pair
    entry["speedups"] = speedups
    return entry


def parse_gate(text: str) -> tuple[str, str, float]:
    """``FASTER:BASELINE:MIN`` -> validated triple."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"--gate wants FASTER:BASELINE:MIN, got {text!r}"
        )
    try:
        floor = float(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"--gate minimum must be a number, got {parts[2]!r}"
        ) from exc
    return parts[0], parts[1], floor


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated scenario names (default: the full committed set)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"only {', '.join(QUICK_SCENARIOS)} (the CI smoke set)",
    )
    parser.add_argument(
        "--engines",
        default=None,
        help="comma-separated engines to compare, slowest first (default: "
        f"{','.join(DEFAULT_ENGINES)}, plus kernel when its compiled "
        "library loads)",
    )
    parser.add_argument("--repeats", type=int, default=1, help="best-of-N per engine")
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_search.json"),
        help="report path (default: BENCH_search.json at the repo root)",
    )
    parser.add_argument(
        "--gate", action="append", type=parse_gate, default=[],
        metavar="FASTER:BASELINE:MIN",
        help="exit 1 if FASTER's CPU speedup over BASELINE falls below MIN "
        "on any scenario (repeatable)",
    )
    args = parser.parse_args(argv)

    if args.scenarios:
        names = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    elif args.quick:
        names = list(QUICK_SCENARIOS)
    else:
        names = list(DEFAULT_SCENARIOS)
    tier = kernel_tier()
    if args.engines:
        engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    else:
        engines = list(default_engines(tier))

    report: dict[str, Any] = {
        "schema": "bench-search/v2",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "kernel_tier": tier,
        "repeats": args.repeats,
        "engines": engines,
        "scenarios": {},
    }
    failed_gate: list[str] = []
    for name in names:
        print(f"[bench] {name} ...", flush=True)
        entry = bench_scenario(name, engines, args.repeats)
        report["scenarios"][name] = entry
        times = "  ".join(f"{e} {entry[e]['cpu_s']:.3f}s" for e in engines)
        ratios = "  ".join(
            f"{k} {v.get('cpu', 'n/a')}x" for k, v in entry["speedups"].items()
        )
        print(f"[bench] {name}: {times}", flush=True)
        print(f"[bench] {name}: {ratios}", flush=True)
        for faster, base, floor in args.gate:
            pair = entry["speedups"].get(f"{faster}/{base}")
            got = None if pair is None else pair.get("cpu")
            if got is None:
                failed_gate.append(
                    f"{name}: no {faster}/{base} measurement for the gate"
                )
            elif got < floor:
                failed_gate.append(f"{name}: {faster}/{base} {got}x < {floor}x")

    out = Path(args.output)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[bench] wrote {out}")
    if failed_gate:
        for line in failed_gate:
            print(f"[bench] SPEEDUP GATE FAILED -- {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
