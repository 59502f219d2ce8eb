"""Differential pin: the kernel search core is bit-identical to its peers.

The compiled :class:`~repro.analysis.kernelpath.KernelEngine` -- the
default search engine -- runs the whole BFS as one fused
expand/arbitrate/dedup/deadlock-test loop (numba / C backend when
available, interpreted numpy otherwise).  These tests assert
equivalence against the reference oracle and the fast fallback engine on
paper-battery scenarios, and on randomly generated small specs four-way
(the interpreted numpy tier as the fourth core): identical
``deadlock_reachable`` verdicts, identical ``states_explored`` counts
(symmetry reduction on and off), identical :class:`SearchLimitExceeded`
behaviour, and witnesses equal step-for-step that replay to a genuine
deadlock under the *reference* dynamics.

The kernel has no per-spec width limit below ``MAX_KERNEL_MSGS``
messages, so this suite also pins specs with more than 62 channels as
bit-identical, and a 13-message ring's state-cap behaviour.

The default engine selection (kernel when an accelerated backend
resolves, else a loud fallback to fast) and the cc tier's disk cache
(self-healing a corrupt or stale library) are pinned here too.

The suite never requires numba: the interpreted tier is the correctness
floor and runs everywhere.  Tests for a specific accelerated tier skip
cleanly when that tier is unavailable.  The numpy tier's own battery pin,
forced multi-word rows and retired engine names live in
``tests/test_vectorpath_differential.py``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.analysis.kernelpath as kernelpath_mod
import repro.analysis.reachability as reachability_mod
from repro import obs
from repro.analysis.fastpath import engine_for
from repro.analysis.kernelpath import (
    COUNTERS,
    HAVE_NUMBA,
    KernelEngine,
    WideSpecFallbackWarning,
    kernel_engine_for,
    kernel_unavailable_reason,
    resolve_backend,
)
from repro.analysis.reachability import (
    ENGINE_COUNTERS,
    SEARCH_ENGINES,
    SearchLimitExceeded,
    Witness,
    resolve_engine,
    search_deadlock,
)
from repro.analysis.state import CheckerMessage, SystemSpec
from repro.campaign.scenarios import build_scenario
from repro.obs import Telemetry

ENGINES = ("reference", "fast", "kernel")
SRC = Path(__file__).resolve().parents[1] / "src"

_HAVE_CC = kernelpath_mod._load_cc_lib() is not None

requires_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
requires_cc = pytest.mark.skipif(not _HAVE_CC, reason="no working C compiler")


@pytest.fixture(autouse=True)
def _certificates_off(monkeypatch):
    """These tests pin BFS-engine equivalence; the static-certificate
    pre-pass would decide several battery specs with zero search states and
    mask the comparison."""
    monkeypatch.setenv("REPRO_STATIC_CERTIFICATES", "off")


def _battery_specs() -> list[tuple[str, SystemSpec]]:
    """Small paper-battery scenarios spanning both verdicts."""
    fig1 = build_scenario("fig1", {}).messages
    gen1 = build_scenario("gen", {"m": 1}).messages
    overlap = build_scenario(
        "theorem2-overlap", {"ring_n": 6, "entries": (0, 3), "run_lens": (4, 4)}
    ).messages
    return [
        ("fig1-b0", SystemSpec.uniform(fig1, budget=0)),  # unreachable
        ("fig1-b1", SystemSpec.uniform(fig1, budget=1)),  # deadlock
        ("gen1-b0", SystemSpec.uniform(gen1, budget=0)),
        ("gen1-b1", SystemSpec.uniform(gen1, budget=1)),
        ("thm2-overlap-b0", SystemSpec.uniform(overlap, budget=0)),
    ]


BATTERY = _battery_specs()


def _ring_spec(ring_n: int, entries: tuple[int, ...], run_lens: tuple[int, ...],
               budget: int) -> SystemSpec:
    msgs = build_scenario(
        "theorem2-overlap",
        {"ring_n": ring_n, "entries": entries, "run_lens": run_lens},
    ).messages
    return SystemSpec.uniform(msgs, budget=budget)


def _assert_valid_witness(spec: SystemSpec, wit: Witness) -> None:
    """Replay the witness through the *reference* successor relation."""
    cur = spec.initial_state()
    for actions, nxt in zip(wit.steps, wit.states):
        assert (nxt, actions) in spec.successors(cur), (cur, actions)
        cur = nxt
    dead = spec.deadlocked_set(cur)
    assert dead, "witness does not end in a deadlock"
    assert dead == wit.deadlocked


def _three_way(spec: SystemSpec, **kw):
    return {eng: search_deadlock(spec, engine=eng, **kw) for eng in ENGINES}


# ----------------------------------------------------------------------
# battery three-way differential
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label,spec", BATTERY, ids=[b[0] for b in BATTERY])
@pytest.mark.parametrize("symmetry", [False, True], ids=["nosym", "sym"])
def test_battery_verdicts_and_counts(label, spec, symmetry):
    res = _three_way(spec, find_witness=False, symmetry_reduction=symmetry)
    ref = res["reference"]
    for eng in ("fast", "kernel"):
        assert res[eng].deadlock_reachable == ref.deadlock_reachable, eng
        assert res[eng].states_explored == ref.states_explored, eng


@pytest.mark.parametrize("label,spec", BATTERY, ids=[b[0] for b in BATTERY])
def test_battery_witness_equality_and_replay(label, spec):
    res = _three_way(spec)
    ref = res["reference"]
    for eng in ("fast", "kernel"):
        got = res[eng]
        assert got.deadlock_reachable == ref.deadlock_reachable, eng
        assert got.states_explored == ref.states_explored, eng
        if not ref.deadlock_reachable:
            assert got.witness is None and ref.witness is None
            continue
        assert got.witness is not None and ref.witness is not None
        assert got.witness.steps == ref.witness.steps, eng
        assert got.witness.states == ref.witness.states, eng
        assert got.witness.deadlocked == ref.witness.deadlocked, eng
        _assert_valid_witness(spec, got.witness)


@pytest.mark.parametrize("cap", [2, 10, 50])
def test_state_cap_is_engine_independent(cap):
    """SearchLimitExceeded parity: all three engines raise at the same count."""
    spec = BATTERY[0][1]
    outcomes = {}
    for eng in ENGINES:
        try:
            res = search_deadlock(
                spec, engine=eng, find_witness=False, max_states=cap
            )
            outcomes[eng] = res.states_explored
        except SearchLimitExceeded:
            outcomes[eng] = "raised"
    for eng in ("fast", "kernel"):
        assert outcomes[eng] == outcomes["reference"], eng


def test_search_engine_names():
    """The engine set is compiled default + fallback + oracle, and the
    CLI's literal copy of it (kept to spare start-up an import) matches."""
    from repro.cli import SEARCH_ENGINES as CLI_ENGINES

    assert SEARCH_ENGINES == ("kernel", "fast", "reference")
    assert CLI_ENGINES == SEARCH_ENGINES


def test_env_var_selects_kernel(monkeypatch):
    """REPRO_SEARCH_ENGINE=kernel is the same switch as engine="kernel"."""
    spec = BATTERY[1][1]
    explicit = search_deadlock(spec, engine="kernel", find_witness=False)
    monkeypatch.setenv("REPRO_SEARCH_ENGINE", "kernel")
    via_env = search_deadlock(spec, find_witness=False)
    assert via_env.deadlock_reachable == explicit.deadlock_reachable
    assert via_env.states_explored == explicit.states_explored


# ----------------------------------------------------------------------
# wide specs: > 62 channels (multi-word occupancy), many movers
# ----------------------------------------------------------------------
WIDE_RINGS = [
    # (label, ring_n, entries, run_lens): num_bits 69..83, all > 62
    ("ring70", 70, (0, 35), (40, 40)),
    ("ring66", 66, (0, 22, 44), (25, 25, 25)),
]


@pytest.mark.parametrize(
    "label,ring_n,entries,run_lens", WIDE_RINGS, ids=[w[0] for w in WIDE_RINGS]
)
@pytest.mark.parametrize("budget", [0, 1], ids=["b0", "b1"])
def test_wide_channel_specs_bit_identical(label, ring_n, entries, run_lens, budget):
    """>62-channel specs run on the kernel (multi-word occupancy masks)
    bit-identically to the reference oracle."""
    spec = _ring_spec(ring_n, entries, run_lens, budget)
    assert engine_for(spec).num_bits > 62
    ref = search_deadlock(spec, engine="reference", find_witness=False)
    for eng in ("fast", "kernel"):
        got = search_deadlock(spec, engine=eng, find_witness=False)
        assert got.deadlock_reachable == ref.deadlock_reachable, eng
        assert got.states_explored == ref.states_explored, eng


def test_wide_channel_witnesses_bit_identical():
    spec = _ring_spec(70, (0, 35), (40, 40), budget=0)
    ref = search_deadlock(spec, engine="reference")
    assert ref.deadlock_reachable and ref.witness is not None
    for eng in ("fast", "kernel"):
        got = search_deadlock(spec, engine=eng)
        assert got.witness is not None
        assert got.witness.steps == ref.witness.steps, eng
        assert got.witness.states == ref.witness.states, eng
        assert got.witness.deadlocked == ref.witness.deadlocked, eng
        _assert_valid_witness(spec, got.witness)


def test_wide_channel_spec_no_kernel_fallback():
    """A ring whose *shared* channels alone need more than 62 bits (82
    channels in all) runs compiled: no WideSpecFallbackWarning, no
    fallback count, and the reference oracle's count and witness."""
    spec = _ring_spec(80, (0, 10), (75, 75), budget=0)
    assert engine_for(spec).num_bits > 62
    ref = search_deadlock(spec, engine="reference")
    before = COUNTERS["kernelpath.fallback.searches"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", WideSpecFallbackWarning)
        got = search_deadlock(spec, engine="kernel")
    assert COUNTERS["kernelpath.fallback.searches"] == before
    assert kernel_engine_for(spec).kernelizable
    assert got.states_explored == ref.states_explored
    assert got.witness is not None and ref.witness is not None
    assert got.witness.steps == ref.witness.steps
    assert got.witness.states == ref.witness.states
    _assert_valid_witness(spec, got.witness)


def test_wide_key_spec_cap_parity():
    """A 13-message ring with every message moving at once (13-wide rows
    in the kernel's raw-row hash table, 2^13 joint choices per state)
    hits a state cap identically on the fast and kernel engines.

    The reference engine sits this one out: its per-state joint-action
    enumeration is exponential in the 13 simultaneous movers, so it
    cannot reach even a 50-state cap in test time (its equivalence is
    pinned on small specs by the hypothesis differential below).
    """
    spec = _ring_spec(13, tuple(range(13)), (4,) * 13, budget=0)
    assert kernel_engine_for(spec).kernelizable
    for eng in ("fast", "kernel"):
        with pytest.raises(SearchLimitExceeded, match="2000"):
            search_deadlock(spec, engine=eng, find_witness=False, max_states=2000)


# ----------------------------------------------------------------------
# fallback behaviour: structured warning + counters
# ----------------------------------------------------------------------
def test_kernel_fallback_warns_with_size_requirement(monkeypatch):
    """A spec over MAX_KERNEL_MSGS falls back loudly: a structured
    WideSpecFallbackWarning carrying the spec's size, plus counters.

    Shrinking the limit stands in for a 65-message spec, which the
    fallback's own fast engine could not search in test time anyway.
    """
    monkeypatch.setattr(kernelpath_mod, "MAX_KERNEL_MSGS", 2)
    spec = BATTERY[0][1]  # fig1: 4 messages
    keng = KernelEngine(spec, fast=engine_for(spec))
    assert not keng.kernelizable
    before = COUNTERS["kernelpath.fallback.searches"]
    with pytest.warns(WideSpecFallbackWarning) as rec:
        got = keng.search()
    assert COUNTERS["kernelpath.fallback.searches"] == before + 1
    warning = rec[0].message
    assert warning.engine == "kernel"
    assert warning.n == 4
    assert warning.num_bits == keng.num_bits
    assert warning.max_msgs == 2
    assert "4" in str(warning) and "kernel" in str(warning)
    assert f"{keng.num_bits} channel bits" in str(warning)
    # the fallback result is the fast engine's, bit for bit
    assert got == engine_for(spec).search()
    # witness fallback warns too
    with pytest.warns(WideSpecFallbackWarning):
        wit = keng.search_witness()
    assert wit == engine_for(spec).search_witness()


# ----------------------------------------------------------------------
# backend tiers
# ----------------------------------------------------------------------
def test_resolve_backend_auto_never_fails():
    """auto always resolves to *something*; python is the floor."""
    assert resolve_backend("auto") in ("numba", "cc", "python")
    assert resolve_backend("python") == "python"
    assert resolve_backend(None) in ("numba", "cc", "python")


def test_resolve_backend_rejects_unknown():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        resolve_backend("fortran")


def test_resolve_backend_unavailable_tier_raises(monkeypatch):
    if not HAVE_NUMBA:
        with pytest.raises(RuntimeError, match="numba"):
            resolve_backend("numba")
    monkeypatch.setattr(kernelpath_mod, "_load_cc_lib", lambda: None)
    with pytest.raises(RuntimeError, match="no C compiler"):
        resolve_backend("cc")


def test_python_tier_matches_fast(monkeypatch):
    """Pin the interpreted tier explicitly -- the correctness floor that
    runs with no compiler and no numba."""
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "python")
    kernelpath_mod.clear_caches()
    try:
        spec = BATTERY[1][1]
        keng = kernel_engine_for(spec)
        before = COUNTERS["kernelpath.searches.python"]
        got = keng.search()
        assert keng.last_backend == "python"
        assert COUNTERS["kernelpath.searches.python"] == before + 1
        assert got == engine_for(spec).search()
    finally:
        kernelpath_mod.clear_caches()


@requires_cc
def test_cc_tier_matches_fast(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cc")
    kernelpath_mod.clear_caches()
    try:
        spec = BATTERY[1][1]
        keng = kernel_engine_for(spec)
        before = COUNTERS["kernelpath.searches.cc"]
        got = keng.search()
        assert keng.last_backend == "cc"
        assert COUNTERS["kernelpath.searches.cc"] == before + 1
        assert got == engine_for(spec).search()
        # witness path too: the C kernel returns the parent chain
        ref = search_deadlock(spec, engine="fast")
        wit = search_deadlock(spec, engine="kernel")
        assert wit.witness is not None and ref.witness is not None
        assert wit.witness.steps == ref.witness.steps
    finally:
        kernelpath_mod.clear_caches()


@requires_numba
def test_numba_tier_matches_fast(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
    kernelpath_mod.clear_caches()
    try:
        spec = BATTERY[1][1]
        keng = kernel_engine_for(spec)
        got = keng.search()
        assert keng.last_backend == "numba"
        assert got == engine_for(spec).search()
    finally:
        kernelpath_mod.clear_caches()


# ----------------------------------------------------------------------
# cc tier disk cache: architecture-keyed, self-healing
# ----------------------------------------------------------------------
_STALE_ABI_C = "int rk_abi_version(void) { return 999; }\n"


@requires_cc
@pytest.mark.parametrize("poison", ["garbage", "stale-abi"])
def test_cc_cache_self_heals_bad_library(poison, monkeypatch, tmp_path):
    """A corrupt (or foreign, or stale-ABI) cached library is rebuilt once
    instead of pinning every later process to the slow tiers."""
    cache = tmp_path / "kcache"
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(cache))
    monkeypatch.setattr(kernelpath_mod, "_cc_tried", False)
    monkeypatch.setattr(kernelpath_mod, "_cc_lib", None)
    monkeypatch.setattr(kernelpath_mod, "_cc_error", None)
    so = kernelpath_mod.cc_lib_path()
    assert so.parent == cache
    assert f"_{platform.machine()}_" in so.name  # architecture-keyed
    cache.mkdir()
    if poison == "garbage":
        so.write_bytes(b"\x7fELF but not really a shared library")
    else:
        src = tmp_path / "stale.c"
        src.write_text(_STALE_ABI_C)
        cc = kernelpath_mod._cc_compiler()
        subprocess.run(
            [cc, "-shared", "-fPIC", "-o", str(so), str(src)], check=True
        )
    before = dict(COUNTERS)
    assert resolve_backend("cc") == "cc"
    assert COUNTERS["kernelpath.cc.rebuilds"] == before["kernelpath.cc.rebuilds"] + 1
    assert COUNTERS["kernelpath.cc.compiles"] == before["kernelpath.cc.compiles"] + 1
    assert COUNTERS["kernelpath.cc.errors"] == before["kernelpath.cc.errors"]
    # a fresh process now loads the healed library straight from the cache
    probe = (
        "import json, repro.analysis.kernelpath as k; "
        "lib = k._load_cc_lib(); "
        "print(json.dumps([lib is not None, k.COUNTERS]))"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), REPRO_KERNEL_CACHE=str(cache))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    loaded, counters = json.loads(out.stdout)
    assert loaded
    assert counters["kernelpath.cc.cache_hits"] == 1
    assert counters["kernelpath.cc.rebuilds"] == 0
    assert counters["kernelpath.cc.compiles"] == 0


# ----------------------------------------------------------------------
# default engine selection: kernel, else a loud fallback to fast
# ----------------------------------------------------------------------
def test_resolve_engine_auto_prefers_kernel_when_accelerated(monkeypatch):
    """Automatic selection (no engine named) picks the compiled kernel
    when an accelerated backend resolves, without counting a fallback."""
    monkeypatch.delenv("REPRO_SEARCH_ENGINE", raising=False)
    if kernel_unavailable_reason() is not None:
        pytest.skip("no accelerated kernel backend here")
    before = dict(ENGINE_COUNTERS)
    assert resolve_engine(None) == "kernel"
    assert ENGINE_COUNTERS == before  # not a fallback


def test_resolve_engine_auto_without_kernel(monkeypatch):
    """Automatic selection without an accelerated backend: fast, counted
    on every search, warned once per process with the reason."""
    monkeypatch.delenv("REPRO_SEARCH_ENGINE", raising=False)
    monkeypatch.setattr(
        reachability_mod, "_kernel_unavailable", lambda: "no C compiler found (test)"
    )
    monkeypatch.setattr(reachability_mod, "_fallback_warned", False)
    before = ENGINE_COUNTERS["search.engine.fallback.fast"]
    with pytest.warns(RuntimeWarning, match="no C compiler found") as rec:
        assert resolve_engine(None) == "fast"
        assert resolve_engine(None) == "fast"
    assert sum(issubclass(w.category, RuntimeWarning) for w in rec) == 1
    assert ENGINE_COUNTERS["search.engine.fallback.fast"] == before + 2
    # a named engine is honoured as-is and never counted as a fallback
    assert resolve_engine("kernel") == "kernel"
    assert resolve_engine("fast") == "fast"
    assert ENGINE_COUNTERS["search.engine.fallback.fast"] == before + 2


def test_auto_engine_env_and_explicit_agree(monkeypatch):
    """The automatically selected engine, the same engine named through
    REPRO_SEARCH_ENGINE, and the reference oracle all agree."""
    spec = BATTERY[1][1]
    monkeypatch.delenv("REPRO_SEARCH_ENGINE", raising=False)
    default = search_deadlock(spec, find_witness=False)
    monkeypatch.setenv("REPRO_SEARCH_ENGINE", "kernel")
    via_env = search_deadlock(spec, find_witness=False)
    assert via_env.deadlock_reachable == default.deadlock_reachable
    assert via_env.states_explored == default.states_explored
    # and the default is bit-identical to the oracle
    ref = search_deadlock(spec, engine="reference", find_witness=False)
    assert default.states_explored == ref.states_explored


def _search_span(spec, **kw):
    """Run one telemetry-on search: its ``search.deadlock`` span-end
    attributes and the collector's counters."""
    events: list[dict] = []
    tel = Telemetry()
    tel.add_sink(events.append)
    with obs.scope(tel):
        search_deadlock(spec, **kw)
    ends = [
        e for e in events
        if e["name"] == "search.deadlock" and e["kind"] == "span_end"
    ]
    assert len(ends) == 1
    return ends[0]["attrs"], tel.counters


@requires_cc
def test_telemetry_names_the_engine_that_ran(monkeypatch):
    """The span says which engine actually ran -- the resolved default,
    not the request -- and carries that engine's phase timers."""
    monkeypatch.delenv("REPRO_SEARCH_ENGINE", raising=False)
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cc")
    spec = BATTERY[0][1]
    attrs, counters = _search_span(spec, find_witness=False)
    assert attrs["engine"] == "kernel"
    assert attrs["kernel_backend"] == "cc"
    assert counters.get("kernelpath.phase.kernel_s", 0) > 0
    assert "search.engine.fallback.fast" not in counters

    # forced fallback: the same default request is labelled fast
    monkeypatch.setattr(
        reachability_mod, "_kernel_unavailable", lambda: "no C compiler found (test)"
    )
    monkeypatch.setattr(reachability_mod, "_fallback_warned", True)
    attrs, counters = _search_span(spec, find_witness=False)
    assert attrs["engine"] == "fast"
    assert "kernel_backend" not in attrs
    assert counters["search.engine.fallback.fast"] == 1
    assert any(name.startswith("fastpath.phase.") for name in counters)


def test_default_engine_falls_back_loudly_without_compiler(tmp_path):
    """No compiler, an empty kernel cache and no numba: the default search
    warns once naming the reason, counts the fallback where ``telemetry
    report`` shows it, and answers exactly like the reference oracle."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_CC=str(tmp_path / "no-such-cc"),
        REPRO_KERNEL_CACHE=str(tmp_path / "kcache"),
    )
    events = tmp_path / "ev.jsonl"
    no_numba = (
        "import sys; sys.modules['numba'] = None; "
        "from repro.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", no_numba, "search", "fig1", "--json",
         "--telemetry", str(events)],
        env=env, capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("RuntimeWarning") == 1, proc.stderr
    assert "no-such-cc" in proc.stderr and "fast engine" in proc.stderr
    got = json.loads(proc.stdout)
    spec = SystemSpec.uniform(build_scenario("fig1", {}).messages, budget=0)
    ref = search_deadlock(spec, engine="reference", find_witness=False)
    assert got["deadlock_reachable"] == ref.deadlock_reachable
    assert got["states_explored"] == ref.states_explored

    report = subprocess.run(
        [sys.executable, "-m", "repro", "telemetry", "report", str(events)],
        env=env, capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert report.returncode == 0, report.stderr
    line = next(
        ln for ln in report.stdout.splitlines() if "engine fallbacks" in ln
    )
    assert "search.engine.fallback.fast=1" in line


# ----------------------------------------------------------------------
# integration: classify/delay/campaign plumbing
# ----------------------------------------------------------------------
def test_classify_and_delay_thread_kernel_engine():
    """The engine knob changes execution only: classify/delay results are
    identical under the kernel engine."""
    from repro.analysis.classify import classify_configuration
    from repro.analysis.delay import min_delay_to_deadlock

    msgs = build_scenario("fig1", {}).messages
    by_engine = {}
    for eng in ("fast", "kernel"):
        reachable, cls_res = classify_configuration(msgs, engine=eng)
        dly = min_delay_to_deadlock(msgs, max_delay=2, engine=eng)
        by_engine[eng] = (
            reachable,
            cls_res.states_explored,
            dly.min_delay,
            {k: r.states_explored for k, r in dly.results.items()},
        )
    assert by_engine["kernel"] == by_engine["fast"]


def test_execute_task_engine_knob_not_in_hash():
    """engine is an execution knob: task identity (and thus the cache key)
    must not depend on it, while results must not differ either."""
    from repro.campaign.specs import build_spec
    from repro.campaign.tasks import execute_task

    task = next(t for t in build_spec("paper-battery") if t.kind == "reachability")
    fast = execute_task(task, engine="fast")
    for eng in (None, "kernel"):
        got = execute_task(task, engine=eng)
        assert got.task_hash == fast.task_hash, eng
        assert got.detail.get("states_explored") == fast.detail.get(
            "states_explored"
        ), eng


def test_kernel_counters_move():
    """A kernel search records which tier ran it."""
    spec = BATTERY[0][1]
    before = dict(COUNTERS)
    KernelEngine(spec, fast=engine_for(spec)).search()
    ran = sum(
        COUNTERS[k] - before[k]
        for k in (
            "kernelpath.searches.numba",
            "kernelpath.searches.cc",
            "kernelpath.searches.python",
        )
    )
    assert ran == 1


# ----------------------------------------------------------------------
# randomly generated small specs (four-way)
# ----------------------------------------------------------------------
@st.composite
def small_specs(draw) -> SystemSpec:
    num_channels = draw(st.integers(min_value=2, max_value=5))
    n_msgs = draw(st.integers(min_value=1, max_value=3))
    messages = []
    budgets = []
    for mi in range(n_msgs):
        plen = draw(st.integers(min_value=1, max_value=min(3, num_channels)))
        path = tuple(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=num_channels - 1),
                    min_size=plen,
                    max_size=plen,
                    unique=True,
                )
            )
        )
        length = draw(st.integers(min_value=1, max_value=3))
        messages.append(CheckerMessage(path=path, length=length, tag=f"M{mi}"))
        budgets.append(draw(st.integers(min_value=0, max_value=2)))
    return SystemSpec(messages=tuple(messages), budgets=tuple(budgets))


def _numpy_tier_search(spec: SystemSpec, **kw):
    """The kernel pinned to its interpreted numpy tier: the fourth core
    next to reference, fast and the kernel on its resolved tier."""
    old = os.environ.get("REPRO_KERNEL_BACKEND")
    os.environ["REPRO_KERNEL_BACKEND"] = "python"
    kernelpath_mod.clear_caches()
    try:
        return search_deadlock(spec, engine="kernel", **kw)
    finally:
        if old is None:
            del os.environ["REPRO_KERNEL_BACKEND"]
        else:
            os.environ["REPRO_KERNEL_BACKEND"] = old
        kernelpath_mod.clear_caches()


def _search_on(core: str, spec: SystemSpec, **kw):
    if core == "kernel-python":
        return _numpy_tier_search(spec, **kw)
    return search_deadlock(spec, engine=core, **kw)


@settings(max_examples=25, deadline=None)
@given(spec=small_specs(), symmetry=st.booleans())
def test_random_specs_four_way_counts(spec, symmetry):
    res = {}
    for eng in ENGINES + ("kernel-python",):
        try:
            got = _search_on(
                eng,
                spec,
                find_witness=False,
                symmetry_reduction=symmetry,
                max_states=60_000,
            )
            res[eng] = (got.deadlock_reachable, got.states_explored)
        except SearchLimitExceeded:
            res[eng] = "raised"
    for eng in ("fast", "kernel", "kernel-python"):
        assert res[eng] == res["reference"], eng


@settings(max_examples=15, deadline=None)
@given(spec=small_specs())
def test_random_specs_four_way_witnesses(spec):
    ref = search_deadlock(spec, engine="reference", max_states=60_000)
    for eng in ("fast", "kernel", "kernel-python"):
        got = _search_on(eng, spec, max_states=60_000)
        assert got.deadlock_reachable == ref.deadlock_reachable, eng
        assert got.states_explored == ref.states_explored, eng
        if ref.deadlock_reachable:
            assert got.witness is not None and ref.witness is not None
            assert got.witness.steps == ref.witness.steps, eng
            assert got.witness.states == ref.witness.states, eng
            _assert_valid_witness(spec, got.witness)
