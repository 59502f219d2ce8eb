"""Regenerate the benchmark's golden records from the current program.

    python3 perfbench/make_golden.py

Writes ``perfbench/golden/battery.json`` (per-task verdict and
``states_explored`` of a cold paper battery) and one
``perfbench/golden/cli/<command>.out`` per cli-fresh command (exact
stdout bytes).  Only regenerate when a change is *meant* to alter an
answer; the benchmark treats any difference as a failure.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from harness import GOLDEN, PYCACHE, WORK, child_env, repro_argv, run_child
import workloads as wl


def main() -> int:
    run_dir = WORK / f"golden-{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    PYCACHE.mkdir(parents=True, exist_ok=True)
    try:
        env = child_env(run_dir)
        cache_dir = run_dir / "battery"
        proc = run_child(
            repro_argv(*wl.BATTERY_ARGS, "--cache-dir", str(cache_dir)), env, cwd=run_dir
        )
        if proc.returncode != 0:
            print(proc.stdout.decode(), proc.stderr.decode(), file=sys.stderr)
            return 1
        record = {
            r["name"]: [r["verdict"], r["detail"].get("states_explored")]
            for r in wl.ledger_results(cache_dir)
        }
        (GOLDEN / "cli").mkdir(parents=True, exist_ok=True)
        (GOLDEN / "battery.json").write_text(json.dumps(record, indent=1) + "\n")
        for name, args in wl.CLI_COMMANDS.items():
            out = run_child(repro_argv(*args), env, cwd=run_dir)
            if out.returncode != 0:
                print(f"{name}: exit {out.returncode}", file=sys.stderr)
                return 1
            (GOLDEN / "cli" / f"{name}.out").write_bytes(out.stdout)
        print(f"wrote {len(record)} battery tasks and {len(wl.CLI_COMMANDS)} cli outputs")
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
