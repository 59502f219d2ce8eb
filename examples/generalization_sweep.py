#!/usr/bin/env python3
"""Section 6 generalisation: how much router delay does deadlock need?

Sweeps the ``Gen(m)`` family (``Gen(1)`` = Figure 1 geometry) and measures
the minimum per-message stall budget at which the exhaustive search can
reach a deadlock.  The paper's claim -- confirmed here -- is that the
threshold grows without bound, so the Figure 1 idea survives arbitrary
clock skew if the network is scaled accordingly.

The sweep goes through the campaign runner: ``--jobs`` fans the per-m
searches out across processes, and ``--cache-dir`` memoises verdicts so a
re-run (or a later ``python -m repro campaign run --spec paper-battery``,
which issues the identical tasks) is instant.

Run:  python examples/generalization_sweep.py [max_m] [--jobs N] [--cache-dir D]
(m = 3 takes well under a second cold; each further step is about four
times slower)
"""

import argparse
import time

from repro.campaign.specs import gen_tasks
from repro.core.generalized import build_generalized
from repro.experiments.grid import run_grid
from repro.viz import ascii_chart


def main(max_m: int = 3, *, jobs: int = 1, cache_dir: str | None = None):
    t0 = time.perf_counter()
    tasks = gen_tasks(tuple(range(1, max_m + 1)))
    results = run_grid(tasks, jobs=jobs, cache_dir=cache_dir, spec_name="gen-example")
    wall = time.perf_counter() - t0
    series = []
    print("m   ring  approaches  holds       min-delay  seconds    source")
    print("-" * 66)
    for task, res in zip(tasks, results):
        m = int(task.params_dict()["m"])
        c = build_generalized(m)
        min_delay = res.detail["min_delay"]
        assert min_delay != 0, "Gen(m) must be deadlock-free under synchrony"
        approaches = [s.approach_len for s in c.specs]
        holds = [s.hold_len for s in c.specs]
        print(
            f"{m:<3} {len(c.cycle_channels):<5} {str(approaches):<11} "
            f"{str(holds):<11} {str(min_delay):<10} {res.wall_time:<9.1f} "
            f"{res.source}"
        )
        if min_delay is not None:
            series.append((m, min_delay))
    if len(series) > 1:
        print()
        print(ascii_chart(series, x_label="m", y_label="min delay Δ*(m)"))
    live = sum(r.source == "live" for r in results)
    print(f"\n({live} searched live, {len(results) - live} from cache, "
          f"{jobs} worker(s), {wall:.1f}s)")
    print("\npaper: 'a network configuration can be constructed requiring any")
    print("amount of extra delay before deadlock can occur' -- measured Δ*(m) = m.")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("max_m", type=int, nargs="?", default=3)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--cache-dir", default=None)
    args = ap.parse_args()
    main(args.max_m, jobs=args.jobs, cache_dir=args.cache_dir)
