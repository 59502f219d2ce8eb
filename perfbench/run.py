"""End-to-end benchmark of the reproduction, measured from outside.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload battery-cold --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` and ``perfbench/describe.json``):

``battery-cold``  ``repro campaign run --spec paper-battery --jobs 1`` into an
                  empty cache: the reproduction's whole answer, 165 tasks.
``cli-fresh``     fresh ``python -m repro`` processes cycling five
                  search/classify/lint commands, one at a time.
``serve-mixed``   ``repro serve`` under a seeded closed loop of two clients,
                  about 80% cache hits and 20% cold misses.

``--trace 0`` prints the end-to-end metrics (tracing off), their timings
scaled to a reference host speed by a probe sampled between and inside
the measured work (``harness.HostSpeed``); ``--trace 1``
runs an untraced and a traced pass and prints the per-layer metrics,
with each workload's wall time split into non-overlapping layer self
times plus ``unattributed_s``.  Every answer is checked against golden
records; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything the run writes
goes under ``.perfbench/`` in the checkout and is removed afterwards,
except the shared bytecode cache.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

from harness import (
    PROBES,
    PYCACHE,
    WORK,
    BenchError,
    child_env,
    environment,
    load_manifest,
    require_program,
    result_line,
    run_child,
)
import workloads as wl

WORKLOADS = {
    "battery-cold": (wl.battery_measure, wl.battery_trace),
    "cli-fresh": (wl.cli_measure, wl.cli_trace),
    "serve-mixed": (wl.serve_measure, wl.serve_trace),
}

#: coarse layers for the "which layer dominates" line
GROUPS = {
    "startup": ("startup.spawn_s", "startup.import_s", "startup.import_third_party_s"),
    "scenario": ("scenario.build_s",),
    "lint": ("lint.certificate_s",),
    "search": ("search.table_build_s", "search.bfs_s", "search.witness_s"),
    "campaign": ("campaign.task_self_s", "ledger.append_s"),
    "sim": ("sim.run_s",),
    "cache": ("cache.get_s", "cache.put_s"),
    "unattributed": ("unattributed_s",),
}


def interp_control(ctx: wl.Context) -> float:
    """Bare ``python -c pass``: a control that no change to the program
    should move."""
    return statistics.median(
        run_child([sys.executable, "-c", "pass"], ctx.env, cwd=ctx.run_dir).wall_s
        for _ in range(5)
    )


def print_layers(workload: str, values: dict[str, float]) -> None:
    wall = values["trace.wall_s"]
    print(f"per-layer attribution ({workload}; wall = {wall:.6g} s)")
    for name in wl.SELF_LAYERS.values():
        print(f"  {name:<30} {values[name]:>12.6f} s  {values[name] / wall:6.1%}")
    print(f"  {'unattributed_s':<30} {values['unattributed_s']:>12.6f} s  "
          f"{values['unattributed_s'] / wall:6.1%}")
    total = sum(values[n] for n in wl.SELF_LAYERS.values()) + values["unattributed_s"]
    print(f"  {'= attributed + unattributed':<30} {total:>12.6f} s")
    print(f"  {'tracing_overhead_s':<30} {values['tracing_overhead_s']:>12.6f} s")
    shares = {g: sum(values[n] for n in names) for g, names in GROUPS.items()}
    top = max(shares, key=shares.get)
    print(f"dominant layer of {workload}: {top} ({shares[top] / wall:.0%} of wall)")
    print("other per-layer metrics")
    shown = set(wl.SELF_LAYERS.values()) | {
        "trace.wall_s", "unattributed_s", "tracing_overhead_s",
    }
    for name in sorted(set(values) - shown):
        print(f"  {name:<30} {values[name]:>14.6g}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops and reaps its children on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        require_program()
        manifest = load_manifest()
        run_dir = WORK / f"run-{os.getpid()}-{time.time_ns()}"
        run_dir.mkdir(parents=True)
        PYCACHE.mkdir(parents=True, exist_ok=True)
        try:
            env = child_env(run_dir)
            record = environment(env, run_dir)
            ctx = wl.Context(args.seed, args.seconds, run_dir, env)
            measure, trace = WORKLOADS[args.workload]
            outcome = (trace if args.trace else measure)(ctx)
            if args.trace:
                outcome.values["startup.interp_s"] = interp_control(ctx)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        line = result_line(
            correct=outcome.failed == 0,
            attempted=outcome.attempted,
            failed=outcome.failed,
            values=outcome.values,
            trace=bool(args.trace),
            manifest=manifest,
        )
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(record, sort_keys=True))
    for phase, speed in ctx.speeds.items():
        print(f"host speed in {phase}: {speed.kind} probe median "
              f"{speed.median_s() * 1e3:.4f} ms over {len(speed.samples)} samples; "
              f"its timings below are scaled by {speed.factor():.4f} to the "
              f"reference {PROBES[speed.kind][0] * 1e3:g} ms (raw ones say so)")
    if args.trace:
        print_layers(args.workload, outcome.values)
    else:
        for timing in outcome.report:
            print(timing.row())
    print(f"  {'error_rate':<24} {outcome.failed / outcome.attempted:>12.6g} ratio  "
          f"({outcome.failed} of {outcome.attempted} failed)")
    for error in outcome.errors:
        print(f"  MISMATCH {error}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
