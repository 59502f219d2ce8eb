"""Traced entry point: ``python perfbench/tracer.py OUT.json -- <repro args>``.

Runs ``repro.cli.main(<repro args>)`` exactly as ``python -m repro`` would,
after wrapping the program's public layer entry points with timing spans.
Each span charges its *self* time (its duration minus the part its child
spans cover) to one layer, so the layer times never overlap and their sum
plus the unattributed remainder is the process's wall time.  Every
``import`` statement is a span too, which keeps lazy imports out of the
layer that happened to trigger them.

Nothing is added inside ``src/``: the wrappers are installed from here,
on module attributes and class methods the program exposes.  On exit
(including SIGINT, which is how a traced ``serve`` is stopped) the
totals are written to ``OUT.json``; SIGUSR1 writes the totals so far to
``OUT.json.mark``.
"""

from __future__ import annotations

import time

T_SCRIPT = time.time()  # interpreter start-up ends here

import builtins  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import defaultdict  # noqa: E402
from time import perf_counter  # noqa: E402

#: packages whose import cost is "third party" (and everything they import)
THIRD_PARTY = frozenset({"numpy", "networkx", "scipy"})
IMPORT = "startup.import"
IMPORT_3P = "startup.import_third_party"


class Tracer:
    """Thread-safe self-time accounting over nested spans."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.calls: dict[str, list[float]] = defaultdict(list)

    def stack(self) -> list[list]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def top(self) -> str | None:
        st = self.stack()
        return st[-1][0] if st else None

    def call(self, layer: str, fn, args, kwargs, after=None):
        """Run ``fn`` inside a span; ``after(result, args, seconds, outer)``
        records counts (``outer``: no enclosing span of the same layer)."""
        st = self.stack()
        outer = all(frame[0] != layer for frame in st)
        frame = [layer, 0.0]
        st.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            st.pop()
            if st:
                st[-1][1] += dur
            with self._lock:
                self.self_s[layer] += dur - frame[1]
        if after is not None:
            with self._lock:
                after(result, args, dur, outer)
        return result

    def wrap(self, owner, attr: str, layer: str, after=None) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, fn, args, kwargs, after)

        setattr(owner, attr, wrapper)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "counts": dict(self.counts),
                "calls": {k: list(v) for k, v in self.calls.items()},
            }


def install(tracer: Tracer) -> None:
    """Time every import, and wrap each layer's entry points the moment
    its module has finished importing (so tracing imports nothing the
    untraced program would not)."""
    pending = dict(_installers(tracer))
    real_import = builtins.__import__

    def traced_import(name, globals=None, locals=None, fromlist=(), level=0):
        parent = tracer.top()
        layer = (
            IMPORT_3P
            if parent == IMPORT_3P or name.partition(".")[0] in THIRD_PARTY
            else IMPORT
        )
        module = tracer.call(
            layer, real_import, (name, globals, locals, fromlist, level), {}
        )
        if pending:
            # list() and pop() are atomic, so two importing threads never
            # patch one module twice
            for mod_name in list(pending):
                entry = pending.get(mod_name)
                mod = sys.modules.get(mod_name)
                # hasattr: finished executing, not mid-way through a cycle
                if entry and hasattr(mod, entry[0]) and pending.pop(mod_name, None):
                    entry[1](mod)
        return module

    builtins.__import__ = traced_import


def _installers(tracer: Tracer):
    """``(module, (attribute marking it loaded, patch))`` for each layer."""
    counts, calls = tracer.counts, tracer.calls

    def cert_done(result, args, dur, outer):
        if result is not None:
            counts["lint.certificate.decided"] += 1

    def searched(result, args, dur, outer):
        counts["search.calls"] += 1
        counts["search.states"] += result[1]

    def engine(mod, cls_name):
        cls = getattr(mod, cls_name)
        tracer.wrap(cls, "__init__", "search.table_build")
        tracer.wrap(cls, "search", "search.bfs", searched)
        tracer.wrap(cls, "search_witness", "search.bfs", searched)

    def fast(mod):
        engine(mod, "FastEngine")
        # witness recovery re-derives the labelled successors of the path
        tracer.wrap(mod.FastEngine, "successors_full", "search.witness")

    def task_done(result, args, dur, outer):
        if outer:
            counts[f"campaign.task.{args[0].kind}_s"] += dur

    def tasks(mod):
        tracer.wrap(mod, "execute_task", "campaign.task", task_done)

    def runner(mod):
        # binds execute_task at import time; rebind it to the wrapped one
        mod.execute_task = sys.modules["repro.campaign.tasks"].execute_task

    def simulated(result, args, dur, outer):
        counts["sim.cycles"] += result.cycles
        counts["sim.flit_moves"] += result.stats.flit_moves

    def cache_get(result, args, dur, outer):
        if outer:
            calls["cache.get"].append(dur)
            counts["cache.hits" if result is not None else "cache.misses"] += 1

    def cache_put(result, args, dur, outer):
        if outer:
            calls["cache.put"].append(dur)

    def cache(mod):
        for name in ("ResultCache", "MemoryLRUCache", "SqliteCache", "TieredCache"):
            tracer.wrap(getattr(mod, name), "get", "cache.get", cache_get)
            tracer.wrap(getattr(mod, name), "put", "cache.put", cache_put)

    def ledger(mod):
        tracer.wrap(mod.RunLedger, "record", "ledger.append")
        tracer.wrap(mod.RunLedger, "record_summary", "ledger.append")

    return {
        "repro.campaign.scenarios": (
            "build_scenario",
            lambda m: tracer.wrap(m, "build_scenario", "scenario.build"),
        ),
        "repro.lint.certificates": (
            "spec_certificate",
            lambda m: tracer.wrap(m, "spec_certificate", "lint.certificate", cert_done),
        ),
        "repro.analysis.fastpath": ("FastEngine", fast),
        "repro.analysis.kernelpath": (
            "KernelEngine", lambda m: engine(m, "KernelEngine")
        ),
        "repro.analysis.vectorpath": (
            "VectorEngine", lambda m: engine(m, "VectorEngine")
        ),
        "repro.campaign.tasks": ("execute_task", tasks),
        "repro.campaign.runner": ("run_campaign", runner),
        "repro.sim.engine": (
            "Simulator",
            lambda m: tracer.wrap(m.Simulator, "run", "sim.run", simulated),
        ),
        "repro.campaign.cache": ("TieredCache", cache),
        "repro.campaign.ledger": ("RunLedger", ledger),
    }


def main(argv: list[str]) -> int:
    out_path, sep, *repro_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json -- <repro args>")
    tracer = Tracer()

    def mark(signum, frame):
        # SIGUSR1: snapshot the totals so far (a server's boot, excluded
        # from the measured window by subtraction)
        with open(out_path + ".tmp", "w") as fh:
            json.dump(tracer.snapshot(), fh)
        os.replace(out_path + ".tmp", out_path + ".mark")

    signal.signal(signal.SIGUSR1, mark)
    install(tracer)
    import repro.cli

    rc = 1
    try:
        rc = repro.cli.main(repro_args)
    except KeyboardInterrupt:
        rc = 0
    finally:
        payload = tracer.snapshot()
        payload["script_start"] = T_SCRIPT
        payload["exit_at"] = time.time()
        with open(out_path, "w") as fh:
            json.dump(payload, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
