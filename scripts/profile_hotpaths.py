"""Profile the hot paths (HPC-guide workflow: measure before tuning).

Usage::

    python scripts/profile_hotpaths.py sim      # battery's hottest simulate task
    python scripts/profile_hotpaths.py search   # exhaustive checker (reference engine)
    python scripts/profile_hotpaths.py kernel   # fused compiled-loop engine
    python scripts/profile_hotpaths.py startup [-- <repro args>]

Prints cProfile's top cumulative entries (``sim``/``search``; CI keeps
the ``sim`` table in its ``bench-smoke`` artifact), the
kernel engine's backend tier + throughput against the reference engine on
the same search (``kernel``), or the import cost of one fresh ``python -m
repro`` process (``startup``; default ``search fig1 --json``): self time
per top-level package under ``-X importtime`` and which third-party
packages loaded.  Findings that shaped the code (recorded here so
the next person doesn't re-derive them):

* sim (west-first 8x8, rate 0.06: 1,138 messages, 605 cycles, 2,200
  grant rounds): 14,830 `_request_next` calls and 6,191 `route` calls --
  one per hop, since a blocked header reuses its candidates.  Before
  headers were parked, the first round of each cycle re-checked every
  hard-blocked header and every due PENDING message whose injection
  channel was held (~170 per cycle): 102 k `_request_next` calls, ~2/3 of
  the run.  Now a header whose candidates are all held is parked until a
  release wakes it, so the work left follows the flits that move:
  `_cascade`/`_release_tail` (10,743 calls each), `_grant_round` and
  `_request_next`, then `detect_deadlock` (605 calls over only the
  parked ACTIVE headers, ~19 per cycle).  Channel state lives in dicts
  keyed by int cid; flits are ints.
* checker: dominated by `occupied_channels` tuple scans; states are plain
  tuples so hashing/dedup is cheap; successor generation allocates the
  option lists lazily per round.
* kernel: one fused compiled loop, so there is no per-phase split; the
  Python-side cost left is table construction (``KernelEngine.__init__``)
  and, for witness searches, label recovery on the chain states only.
* startup (2-vCPU VM, Python 3.11): a fresh ``search fig1 --json`` used
  to import an array library (~94 ms) and networkx (~86 ms) plus the
  serve/asyncio/sqlite stack (~36 ms) for a ~10 ms search.  Now its third-party list is
  empty apart from whatever the environment's ``.pth`` hooks load under
  ``site``; the rest is the stdlib (dataclasses, ctypes, json) and repro's
  own modules.  So is ``lint``'s: the CDG is a stdlib
  ``repro.cdg.graph.DiGraph``.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import re
import subprocess
import sys
from pathlib import Path


def profile_sim() -> None:
    """The paper battery's hottest simulate task.

    West-first on an 8x8 mesh at rate 0.06: 1,138 messages over 605
    cycles, built exactly as the campaign builds it.
    """
    from repro.campaign.scenarios import build_scenario
    from repro.sim import SimConfig, Simulator

    net, fn, specs = build_scenario(
        "traffic", {"algorithm": "west-first", "dims": (8, 8), "rate": 0.06}
    ).sim

    def run() -> None:
        res = Simulator(net, fn, specs, config=SimConfig(max_cycles=60_000)).run()
        assert res.completed and res.cycles == 605, (res.delivered, res.cycles)

    prof = cProfile.Profile()
    prof.runcall(run)
    pstats.Stats(prof).sort_stats("cumulative").print_stats(18)


def profile_search() -> None:
    from repro.analysis import SystemSpec, search_deadlock
    from repro.core.cyclic_dependency import build_cyclic_dependency_network

    cdn = build_cyclic_dependency_network()
    msgs = cdn.checker_messages()

    def run() -> None:
        res = search_deadlock(
            SystemSpec.uniform(msgs, budget=2), find_witness=False,
            engine="reference",
        )
        assert res.deadlock_reachable

    cProfile.runctx("run()", globals(), locals(), "/tmp/search.prof")
    pstats.Stats("/tmp/search.prof").sort_stats("cumulative").print_stats(18)


def profile_kernel() -> None:
    """Kernel-vs-reference wall time on the fig1-copies search.

    The kernel core is one fused loop, so there is no per-phase split to
    report; the actionable numbers are the resolved backend tier (``cc``),
    the states/sec, and the ratio over the reference (fallback) engine on
    the same spec.
    """
    import time

    from repro.analysis.kernelpath import kernel_engine_for, resolve_backend
    from repro.analysis.reachability import search_deadlock
    from repro.analysis.state import CheckerMessage, SystemSpec
    from repro.core.cyclic_dependency import build_cyclic_dependency_network

    msgs = list(build_cyclic_dependency_network().checker_messages())
    donors = [msgs[1], msgs[3]]
    for k in range(2):
        d = donors[k % 2]
        msgs.append(CheckerMessage(d.path, d.length, f"copy{k}"))
    spec = SystemSpec.uniform(msgs, budget=1)
    keng = kernel_engine_for(spec)
    keng.search(max_states=40_000_000)  # warm: library build/load + tables
    t0 = time.perf_counter()
    deadlock, states, _depth = keng.search(max_states=40_000_000)
    kwall = time.perf_counter() - t0
    t0 = time.perf_counter()
    search_deadlock(
        spec, max_states=40_000_000, find_witness=False, engine="reference",
        certificates="off",
    )
    rwall = time.perf_counter() - t0
    print(
        f"kernel search [{resolve_backend()}]: states={states} "
        f"deadlock={deadlock} wall={kwall:.3f}s "
        f"({states / kwall:,.0f} states/s)"
    )
    print(f"reference search: wall={rwall:.3f}s ({states / rwall:,.0f} states/s)")
    print(f"kernel/reference speedup: {rwall / kwall:.2f}x")


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")
#: ``python -m repro`` that also reports the packages left in sys.modules
#: (importtime lists failed optional imports too, e.g. copy's Jython probe)
_CHILD = """
import json, sys
from repro.cli import main
try:
    rc = main(sys.argv[1:])
finally:
    top = sorted({m.split(".")[0] for m in sys.modules})
    print("loaded-packages " + json.dumps(top), file=sys.stderr)
sys.exit(rc)
"""


def profile_startup(args: list[str]) -> None:
    """Import self time per top-level package for one fresh process.

    Runs ``repro.cli.main(<args>)`` under ``python -X importtime`` with
    this checkout's ``src`` on ``PYTHONPATH`` and folds the per-module
    self times by top-level package.  Packages that are neither stdlib nor
    repro are flagged third party; those imported while ``site`` runs come
    from the environment's ``.pth`` hooks, not from repro.
    """
    args = args or ["search", "fig1", "--json"]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", _CHILD, *args],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    self_us: dict[str, int] = {}
    via_site: set[str] = set()
    block: set[str] = set()  # packages since the last top-level import
    loaded: set[str] = set()
    for line in proc.stderr.splitlines():
        if line.startswith("loaded-packages "):
            loaded = set(json.loads(line.split(" ", 1)[1]))
        m = _IMPORT_LINE.match(line)
        if m is None:
            continue
        pkg = m[4].split(".")[0]
        self_us[pkg] = self_us.get(pkg, 0) + int(m[1])
        block.add(pkg)
        if len(m[3]) == 1:  # a top-level import, listed after its children
            if m[4] == "site":
                via_site |= block
            block = set()
    stdlib = set(sys.stdlib_module_names) | {"__main__"}
    third = sorted(p for p in loaded if p not in stdlib and p != "repro")
    print(f"python -m repro {' '.join(args)}  (exit {proc.returncode})")
    print(f"{'package':<24} {'self ms':>8}  kind")
    for pkg, us in sorted(self_us.items(), key=lambda kv: -kv[1]):
        if pkg not in loaded:
            continue  # a failed optional import
        kind = "repro" if pkg == "repro" else (
            "stdlib" if pkg in stdlib else
            "third party (site .pth)" if pkg in via_site else "third party"
        )
        print(f"{pkg:<24} {us / 1000:8.2f}  {kind}")
    total = sum(us for pkg, us in self_us.items() if pkg in loaded)
    print(f"{'total':<24} {total / 1000:8.2f}")
    by_repro = [p for p in third if p not in via_site]
    print("third-party packages loaded: " + (", ".join(by_repro) or "none"))
    if via_site & set(third):
        print("loaded by site (.pth hooks): " + ", ".join(sorted(via_site & set(third))))


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else "sim"
    if what == "startup":
        rest = sys.argv[2:]
        profile_startup(rest[1:] if rest[:1] == ["--"] else rest)
    else:
        {
            "sim": profile_sim,
            "search": profile_search,
            "kernel": profile_kernel,
        }[what]()
