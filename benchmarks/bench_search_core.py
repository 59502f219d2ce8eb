"""Search-core benchmark payloads: one measured scenario per process.

Unlike the pytest-benchmark modules in this directory (which regenerate
paper artifacts), this file is a plain script used by
``scripts/perf_report.py`` to A/B the compiled kernel engine against
the reference implementation.  Each invocation measures exactly one
scenario in a *fresh* interpreter::

    PYTHONPATH=src REPRO_SEARCH_ENGINE=kernel \
        python benchmarks/bench_search_core.py --scenario thm1-five

and prints a single JSON object: ``{"scenario", "engine", "wall_s",
"cpu_s", "states", ...}``.  Fresh processes keep the measurements honest:
no warm engine tables, no allocator reuse between the engines under
comparison.  Each scenario is a *setup* (imports, network and message
construction -- identical for both engines, untimed) plus a *run*
(everything the engine switch affects -- timed, and for the kernel
engine that includes building the
:class:`~repro.analysis.kernelpath.KernelEngine` transition tables from
scratch).  ``REPRO_SEARCH_ENGINE`` selects the engine because that is the
same switch real runs use.

Scenarios (all search-bound; the flit-level simulator is out of scope):

``fig1-sync``      Figure 1 / Theorem 1 four-message verdict search.
``thm1-five``      the Theorem 1 five-message symmetry-reduction search
                   (Figure 1 plus one interposed copy).
``fig1-copies``    six messages (two copies) -- the largest Fig. 1 search.
``fig1-b1``        budget 1: the deadlock-positive early-exit search.
``fig1-delay``     the ``min_delay_to_deadlock`` sweep on Fig. 1 (one
                   witness-mode search per budget).
``gen2-delay``     the Section 6 ``Gen(2)`` delay sweep (the paper
                   battery's dominant search task).
``battery-search`` every search-bound task (reachability / classify /
                   min_delay) of the ``paper-battery`` campaign spec, run
                   cold through :func:`repro.campaign.tasks.execute_task`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Callable


def _fig1_messages():
    from repro.core.cyclic_dependency import build_cyclic_dependency_network

    return build_cyclic_dependency_network().checker_messages()


def _fig1_spec(extra_copies: int = 0, budget: int = 0):
    from repro.analysis.state import CheckerMessage, SystemSpec

    msgs = list(_fig1_messages())
    donors = [1, 3]  # M2 and M4, the copies Theorem 1's proof interposes
    for c in range(extra_copies):
        src = msgs[donors[c % len(donors)]]
        msgs.append(CheckerMessage(src.path, src.length, f"copy{c}"))
    return SystemSpec.uniform(msgs, budget=budget)


def _setup_verdict_search(extra_copies: int = 0, budget: int = 0):
    """Build the spec eagerly; return a closure that only searches."""
    from repro.analysis.reachability import search_deadlock

    spec = _fig1_spec(extra_copies=extra_copies, budget=budget)

    def run() -> dict[str, Any]:
        res = search_deadlock(spec, find_witness=False, max_states=40_000_000)
        return {"states": res.states_explored, "deadlock": res.deadlock_reachable}

    return run


def setup_fig1_sync():
    return _setup_verdict_search()


def setup_thm1_five():
    return _setup_verdict_search(extra_copies=1)


def setup_fig1_copies():
    return _setup_verdict_search(extra_copies=2)


def setup_fig1_b1():
    return _setup_verdict_search(budget=1)


def setup_fig1_delay():
    from repro.analysis.delay import min_delay_to_deadlock

    msgs = _fig1_messages()

    def run() -> dict[str, Any]:
        res = min_delay_to_deadlock(msgs, max_delay=3)
        states = sum(r.states_explored for r in res.results.values())
        return {"states": states, "min_delay": res.min_delay}

    return run


def setup_gen2_delay():
    from repro.analysis.delay import min_delay_to_deadlock
    from repro.core.generalized import generalized_messages

    msgs = generalized_messages(2)

    def run() -> dict[str, Any]:
        res = min_delay_to_deadlock(msgs, max_delay=8, max_states=8_000_000)
        states = sum(r.states_explored for r in res.results.values())
        return {"states": states, "min_delay": res.min_delay}

    return run


def setup_battery_search():
    from repro.campaign.specs import build_spec
    from repro.campaign.tasks import execute_task

    kinds = ("reachability", "classify", "min_delay")
    tasks = [t for t in build_spec("paper-battery") if t.kind in kinds]

    def run() -> dict[str, Any]:
        states = 0
        failures = []
        for task in tasks:
            result = execute_task(task)
            if not result.ok:
                failures.append(f"{result.name}: {result.error}")
            states += int(result.detail.get("states_explored", 0) or 0)
        return {"states": states, "tasks": len(tasks), "failures": failures}

    return run


SCENARIOS: dict[str, Callable[[], Callable[[], dict[str, Any]]]] = {
    "fig1-sync": setup_fig1_sync,
    "thm1-five": setup_thm1_five,
    "fig1-copies": setup_fig1_copies,
    "fig1-b1": setup_fig1_b1,
    "fig1-delay": setup_fig1_delay,
    "gen2-delay": setup_gen2_delay,
    "battery-search": setup_battery_search,
}


def _toy_spec():
    """One single-channel message: shares nothing with any scenario."""
    from repro.analysis.state import CheckerMessage, SystemSpec

    return SystemSpec(
        messages=(CheckerMessage(path=(0,), length=1, tag="warm"),),
        budgets=(0,),
    )


def _warm_kernel_backend() -> None:
    """Build or load the compiled kernel library on the toy spec, untimed.

    The disk-cached C build is a one-time artifact cost, not per-search
    work; on a cold cache it would otherwise charge the kernel engine
    about half a second of compiler time inside the measured window.  The
    measured search still builds its own tables from scratch.
    """
    from repro.analysis.kernelpath import clear_caches, kernel_engine_for

    kernel_engine_for(_toy_spec()).search()
    clear_caches()  # drop the toy engine; the compiled backend persists


def measure(scenario: str) -> dict[str, Any]:
    """Set up, then run + time one scenario (call in a fresh process)."""
    payload = SCENARIOS[scenario]()  # untimed: imports + spec construction
    from repro.analysis.reachability import resolve_engine

    # the engine that will actually run: REPRO_SEARCH_ENGINE, else the
    # default (the kernel when its compiled library loads; every scenario
    # fits the kernel's message limit, as the toy spec does)
    engine = resolve_engine(None, _toy_spec())
    if engine == "kernel":
        _warm_kernel_backend()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    detail = payload()
    cpu = time.process_time() - cpu0
    wall = time.perf_counter() - wall0
    out: dict[str, Any] = {
        "scenario": scenario,
        "engine": engine,
        "wall_s": round(wall, 4),
        "cpu_s": round(cpu, 4),
    }
    out.update(detail)
    states = out.get("states")
    if states:
        out["states_per_sec"] = round(states / wall) if wall > 0 else None
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    args = parser.parse_args(argv)
    result = measure(args.scenario)
    print(json.dumps(result))
    return 1 if result.get("failures") else 0


if __name__ == "__main__":
    sys.exit(main())
