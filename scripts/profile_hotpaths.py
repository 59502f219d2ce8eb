"""Profile the hot paths (HPC-guide workflow: measure before tuning).

Usage::

    python scripts/profile_hotpaths.py sim      # flit-level engine
    python scripts/profile_hotpaths.py search   # exhaustive checker (fast engine)
    python scripts/profile_hotpaths.py kernel   # fused compiled-loop engine

Prints cProfile's top cumulative entries (``sim``/``search``), or the
kernel engine's backend tier + throughput against the fast engine on the
same search (``kernel``).  Findings that shaped the code (recorded here so
the next person doesn't re-derive them):

* engine: dominated by `_grant_round` dict lookups and `_cascade`; channel
  state lives in dicts keyed by int cid (O(1)); avoided per-flit objects
  (flits are ints).
* checker: dominated by `occupied_channels` tuple scans; states are plain
  tuples so hashing/dedup is cheap; successor generation allocates the
  option lists lazily per round.
* kernel: one fused compiled loop, so there is no per-phase split; the
  Python-side cost left is table construction (``KernelEngine.__init__``)
  and, for witness searches, label recovery on the chain states only.
"""

from __future__ import annotations

import cProfile
import pstats
import sys


def profile_sim() -> None:
    from repro.routing import dimension_order_mesh
    from repro.sim import SimConfig, Simulator
    from repro.sim.traffic import uniform_random_traffic
    from repro.topology import mesh

    net = mesh((8, 8))
    fn = dimension_order_mesh(net, 2)
    specs = uniform_random_traffic(net, rate=0.08, cycles=300, length=4, seed=3)

    def run() -> None:
        res = Simulator(net, fn, specs, config=SimConfig(max_cycles=50_000)).run()
        assert res.completed

    cProfile.runctx("run()", globals(), locals(), "/tmp/sim.prof")
    pstats.Stats("/tmp/sim.prof").sort_stats("cumulative").print_stats(18)


def profile_search() -> None:
    from repro.analysis import SystemSpec, search_deadlock
    from repro.core.cyclic_dependency import build_cyclic_dependency_network

    cdn = build_cyclic_dependency_network()
    msgs = cdn.checker_messages()

    def run() -> None:
        res = search_deadlock(
            SystemSpec.uniform(msgs, budget=2), find_witness=False, engine="fast"
        )
        assert res.deadlock_reachable

    cProfile.runctx("run()", globals(), locals(), "/tmp/search.prof")
    pstats.Stats("/tmp/search.prof").sort_stats("cumulative").print_stats(18)


def profile_kernel() -> None:
    """Kernel-vs-fast wall time on the fig1-copies search.

    The kernel core is one fused loop, so there is no per-phase split to
    report; the actionable numbers are the resolved backend tier, the
    states/sec, and the ratio over the fast (fallback) engine on the same
    spec.
    """
    import time

    from repro.analysis.fastpath import engine_for
    from repro.analysis.kernelpath import kernel_engine_for, resolve_backend
    from repro.analysis.state import CheckerMessage, SystemSpec
    from repro.core.cyclic_dependency import build_cyclic_dependency_network

    msgs = list(build_cyclic_dependency_network().checker_messages())
    donors = [msgs[1], msgs[3]]
    for k in range(2):
        d = donors[k % 2]
        msgs.append(CheckerMessage(d.path, d.length, f"copy{k}"))
    spec = SystemSpec.uniform(msgs, budget=1)
    keng = kernel_engine_for(spec)
    keng.search(max_states=40_000_000)  # warm: backend JIT/compile + tables
    t0 = time.perf_counter()
    deadlock, states = keng.search(max_states=40_000_000)
    kwall = time.perf_counter() - t0
    feng = engine_for(spec)
    feng.search(max_states=40_000_000)  # warm: tables + memo
    t0 = time.perf_counter()
    feng.search(max_states=40_000_000)
    fwall = time.perf_counter() - t0
    print(
        f"kernel search [{resolve_backend()}]: states={states} "
        f"deadlock={deadlock} wall={kwall:.3f}s "
        f"({states / kwall:,.0f} states/s)"
    )
    print(f"fast search: wall={fwall:.3f}s ({states / fwall:,.0f} states/s)")
    print(f"kernel/fast speedup: {fwall / kwall:.2f}x")


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else "sim"
    {
        "sim": profile_sim,
        "search": profile_search,
        "kernel": profile_kernel,
    }[what]()
