"""Differential pin: the kernel search core is bit-identical to the oracle.

The compiled :class:`~repro.analysis.kernelpath.KernelEngine` -- the
default search engine -- runs the whole BFS as one fused
expand/arbitrate/dedup/deadlock-test loop in C (``_kernel.c``, built on
first use).  These tests assert equivalence against the reference oracle
on paper-battery scenarios and on randomly generated small specs:
identical ``deadlock_reachable`` verdicts, identical ``states_explored``
counts (symmetry reduction on and off), identical
:class:`SearchLimitExceeded` behaviour, and witnesses equal step-for-step
(the kernel recovers their action labels from
:meth:`SystemSpec.successors`) that replay to a genuine deadlock under
the *reference* dynamics.

The kernel has no per-spec width limit below ``MAX_KERNEL_MSGS``
messages, so this suite also pins specs with more than 62 channels as
bit-identical, and a 13-message ring's state-cap behaviour.

Engine selection (a kernel request, default or named, runs compiled when
the library loads and the spec fits, else falls back loudly to the
reference engine) and the cc tier's disk cache (self-healing a corrupt
or stale library) are pinned here too.  Tests that need the compiled
library skip cleanly without a C compiler.  The kernel's forced
multi-word occupancy rows and the retired engine names live in
``tests/test_kernel_wide_rows.py``.
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
from repro.analysis.kernelpath import (
    COUNTERS,
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

ENGINES = ("reference", "kernel")
SRC = Path(__file__).resolve().parents[1] / "src"

_HAVE_CC = kernelpath_mod._load_cc_lib() is not None

requires_cc = pytest.mark.skipif(not _HAVE_CC, reason="no working C compiler")


@pytest.fixture(autouse=True)
def _certificates_off(monkeypatch):
    """These tests pin BFS-engine equivalence; the static-certificate
    pre-pass would decide several battery specs with zero search states and
    mask the comparison."""
    monkeypatch.setenv("REPRO_STATIC_CERTIFICATES", "off")


def _battery_specs() -> list[tuple[str, SystemSpec]]:
    """Small paper-battery scenarios spanning both verdicts, and the row
    shapes of the kernel's dedup layer: 3 and 5 messages hash an odd
    tail entry, and the five-message spec's identical pair (Figure 1
    plus an M2 copy) keys a symmetry-reduced search by a separate store
    of canonical rows."""
    fig1 = build_scenario("fig1", {}).messages
    gen1 = build_scenario("gen", {"m": 1}).messages
    overlap = build_scenario(
        "theorem2-overlap", {"ring_n": 6, "entries": (0, 3), "run_lens": (4, 4)}
    ).messages
    five = fig1 + [CheckerMessage(fig1[1].path, fig1[1].length, "M2copy")]
    three = build_scenario("fig3-panel", {"panel": "a"}).messages
    return [
        ("fig1-b0", SystemSpec.uniform(fig1, budget=0)),  # unreachable
        ("fig1-b1", SystemSpec.uniform(fig1, budget=1)),  # deadlock
        ("gen1-b0", SystemSpec.uniform(gen1, budget=0)),
        ("gen1-b1", SystemSpec.uniform(gen1, budget=1)),
        ("thm2-overlap-b0", SystemSpec.uniform(overlap, budget=0)),
        ("five-b0", SystemSpec.uniform(five, budget=0)),
        ("fig3a-b1", SystemSpec.uniform(three, budget=1)),
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


# ----------------------------------------------------------------------
# battery differential
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label,spec", BATTERY, ids=[b[0] for b in BATTERY])
@pytest.mark.parametrize("symmetry", [False, True], ids=["nosym", "sym"])
def test_battery_verdicts_and_counts(label, spec, symmetry):
    ref = search_deadlock(
        spec, engine="reference", find_witness=False, symmetry_reduction=symmetry
    )
    got = search_deadlock(
        spec, engine="kernel", find_witness=False, symmetry_reduction=symmetry
    )
    assert got.deadlock_reachable == ref.deadlock_reachable
    assert got.states_explored == ref.states_explored


@pytest.mark.parametrize("label,spec", BATTERY, ids=[b[0] for b in BATTERY])
def test_battery_witness_equality_and_replay(label, spec):
    ref = search_deadlock(spec, engine="reference")
    got = search_deadlock(spec, engine="kernel")
    assert got.deadlock_reachable == ref.deadlock_reachable
    assert got.states_explored == ref.states_explored
    if not ref.deadlock_reachable:
        assert got.witness is None and ref.witness is None
        return
    assert got.witness is not None and ref.witness is not None
    assert got.witness.steps == ref.witness.steps
    assert got.witness.states == ref.witness.states
    assert got.witness.deadlocked == ref.witness.deadlocked
    _assert_valid_witness(spec, got.witness)


# ----------------------------------------------------------------------
# dedup-layer stress: visited-set growth (row shapes: see BATTERY)
# ----------------------------------------------------------------------
GEN3_COUNTS = {0: 4892, 1: 52211, 2: 239506, 3: 454725}


@requires_cc
@pytest.mark.parametrize("find_witness", [False, True], ids=["verdict", "witness"])
def test_gen3_counts_through_many_set_growths(find_witness):
    """Gen(3)'s per-budget counts (the battery's Δ* sweep sums them to
    751,334): the visited set grows six times, from 2^14 to 2^20 slots."""
    msgs = build_scenario("gen", {"m": 3}).messages
    got = {}
    for budget in GEN3_COUNTS:
        res = search_deadlock(
            SystemSpec.uniform(msgs, budget=budget),
            engine="kernel",
            find_witness=find_witness,
        )
        assert res.deadlock_reachable == (budget == 3)
        got[budget] = res.states_explored
    assert got == GEN3_COUNTS


@pytest.mark.parametrize("cap", [2, 10, 50])
def test_state_cap_is_engine_independent(cap):
    """SearchLimitExceeded parity: both engines raise at the same count."""
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
    assert outcomes["kernel"] == outcomes["reference"]


def test_search_engine_names():
    """The engine set is the compiled default plus the oracle, and the
    CLI's literal copy of it (kept to spare start-up an import) matches."""
    from repro.cli import SEARCH_ENGINES as CLI_ENGINES

    assert SEARCH_ENGINES == ("kernel", "reference")
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
    assert KernelEngine(spec).num_bits > 62
    ref = search_deadlock(spec, engine="reference", find_witness=False)
    got = search_deadlock(spec, engine="kernel", find_witness=False)
    assert got.deadlock_reachable == ref.deadlock_reachable
    assert got.states_explored == ref.states_explored


def test_wide_channel_witnesses_bit_identical():
    spec = _ring_spec(70, (0, 35), (40, 40), budget=0)
    ref = search_deadlock(spec, engine="reference")
    assert ref.deadlock_reachable and ref.witness is not None
    got = search_deadlock(spec, engine="kernel")
    assert got.witness is not None
    assert got.witness.steps == ref.witness.steps
    assert got.witness.states == ref.witness.states
    assert got.witness.deadlocked == ref.witness.deadlocked
    _assert_valid_witness(spec, got.witness)


@requires_cc
def test_wide_channel_spec_no_kernel_fallback():
    """A ring whose *shared* channels alone need more than 62 bits (82
    channels in all) runs compiled: no WideSpecFallbackWarning, no
    fallback count, and the reference oracle's count and witness."""
    spec = _ring_spec(80, (0, 10), (75, 75), budget=0)
    assert KernelEngine(spec).num_bits > 62
    ref = search_deadlock(spec, engine="reference")
    before = ENGINE_COUNTERS["search.engine.fallback.reference"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", WideSpecFallbackWarning)
        got = search_deadlock(spec, engine="kernel")
    assert ENGINE_COUNTERS["search.engine.fallback.reference"] == before
    assert got.states_explored == ref.states_explored
    assert got.witness is not None and ref.witness is not None
    assert got.witness.steps == ref.witness.steps
    assert got.witness.states == ref.witness.states
    _assert_valid_witness(spec, got.witness)


@requires_cc
def test_wide_key_spec_cap_parity():
    """A 13-message ring with every message moving at once (13-wide rows
    in the kernel's raw-row hash table, 2^13 joint choices per state)
    hits a 2,000-state cap on the kernel with the reference's error.

    The reference engine sits this one out: its per-state joint-action
    enumeration is exponential in the 13 simultaneous movers, so it
    cannot reach even a 50-state cap in test time (its equivalence is
    pinned on small specs by the hypothesis differential below), and
    without a compiled kernel the search would fall back to it.
    """
    spec = _ring_spec(13, tuple(range(13)), (4,) * 13, budget=0)
    with pytest.raises(SearchLimitExceeded, match="2000"):
        search_deadlock(spec, engine="kernel", find_witness=False, max_states=2000)


# ----------------------------------------------------------------------
# fallback behaviour: structured warning + counters
# ----------------------------------------------------------------------
def test_kernel_fallback_warns_with_size_requirement(monkeypatch):
    """A spec over MAX_KERNEL_MSGS runs on the reference engine, loudly: a
    structured WideSpecFallbackWarning carrying the spec's size, once per
    process, and the fallback counter on every search.  A direct
    KernelEngine refuses the spec by name.

    Shrinking the limit stands in for a 65-message spec, which the
    reference engine could not search in test time anyway.
    """
    monkeypatch.setattr(kernelpath_mod, "MAX_KERNEL_MSGS", 2)
    monkeypatch.setattr(reachability_mod, "_fallback_warned", set())
    spec = BATTERY[0][1]  # fig1: 4 messages
    num_bits = len({cid for m in spec.messages for cid in m.path})
    before = ENGINE_COUNTERS["search.engine.fallback.reference"]
    with pytest.warns(WideSpecFallbackWarning) as rec:
        got = search_deadlock(spec, engine="kernel", find_witness=False)
    assert ENGINE_COUNTERS["search.engine.fallback.reference"] == before + 1
    warning = rec[0].message
    assert warning.engine == "kernel"
    assert warning.n == 4
    assert warning.num_bits == num_bits
    assert warning.max_msgs == 2
    assert "4" in str(warning) and "reference engine" in str(warning)
    assert f"{num_bits} channel bits" in str(warning)
    ref = search_deadlock(spec, engine="reference", find_witness=False)
    assert got.states_explored == ref.states_explored
    # the next fallback is counted but not warned about again
    with warnings.catch_warnings():
        warnings.simplefilter("error", WideSpecFallbackWarning)
        wit = search_deadlock(spec, engine="kernel")
    assert ENGINE_COUNTERS["search.engine.fallback.reference"] == before + 2
    assert wit.witness == search_deadlock(spec, engine="reference").witness
    with pytest.raises(ValueError, match="1..2 messages"):
        KernelEngine(spec)


# ----------------------------------------------------------------------
# backend: the cc tier or nothing
# ----------------------------------------------------------------------
def test_resolve_backend_auto_never_fails():
    """The zero-argument probe never raises: ``"cc"`` exactly when the
    compiled library loads, else ``None`` with the reason on record."""
    got = resolve_backend()
    assert got == ("cc" if _HAVE_CC else None)
    assert (kernel_unavailable_reason() is None) == _HAVE_CC


def test_resolve_backend_rejects_unknown(monkeypatch):
    """There is no backend name to pass any more, and a stale backend
    environment variable from the retired tiers changes nothing."""
    with pytest.raises(TypeError):
        resolve_backend("numba")
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
    assert resolve_backend() == ("cc" if _HAVE_CC else None)
    got = search_deadlock(BATTERY[1][1], engine="kernel", find_witness=False)
    ref = search_deadlock(BATTERY[1][1], engine="reference", find_witness=False)
    assert got.states_explored == ref.states_explored


def test_resolve_backend_none_without_library(monkeypatch):
    """No loadable library: the probe answers ``None`` instead of raising,
    and the reason names the failed load."""
    monkeypatch.setattr(kernelpath_mod, "_load_cc_lib", lambda: None)
    monkeypatch.setattr(kernelpath_mod, "_cc_error", "no C compiler found (test)")
    assert resolve_backend() is None
    assert kernel_unavailable_reason() == "no C compiler found (test)"


@requires_cc
def test_cc_tier_matches_reference():
    kernelpath_mod.clear_caches()
    try:
        spec = BATTERY[1][1]
        keng = kernel_engine_for(spec)
        before = COUNTERS["kernelpath.searches.cc"]
        got = keng.search()
        assert keng.last_backend == "cc"
        assert COUNTERS["kernelpath.searches.cc"] == before + 1
        ref = search_deadlock(spec, engine="reference", find_witness=False)
        assert got == (ref.deadlock_reachable, ref.states_explored)
        # witness path too: the C kernel returns the parent chain
        ref = search_deadlock(spec, engine="reference")
        wit = search_deadlock(spec, engine="kernel")
        assert wit.witness is not None and ref.witness is not None
        assert wit.witness.steps == ref.witness.steps
    finally:
        kernelpath_mod.clear_caches()


def test_kernel_engine_without_library_raises(monkeypatch):
    """A direct KernelEngine user with no compiled library gets a named
    error (search_deadlock decides the fallback before it builds one)."""
    monkeypatch.setattr(kernelpath_mod, "_load_cc_lib", lambda: None)
    monkeypatch.setattr(kernelpath_mod, "_cc_error", "no C compiler found (test)")
    keng = KernelEngine(BATTERY[1][1])
    before = dict(COUNTERS)
    with pytest.raises(RuntimeError, match="no C compiler found"):
        keng.search()
    with pytest.raises(RuntimeError, match="no C compiler found"):
        keng.search_witness()
    assert COUNTERS == before
    assert keng.last_backend is None


# ----------------------------------------------------------------------
# cc tier disk cache: architecture-keyed, self-healing
# ----------------------------------------------------------------------
_STALE_ABI_C = "int rk_abi_version(void) { return 999; }\n"


@requires_cc
@pytest.mark.parametrize("poison", ["garbage", "stale-abi"])
def test_cc_cache_self_heals_bad_library(poison, monkeypatch, tmp_path):
    """A corrupt (or foreign, or stale-ABI) cached library is rebuilt once
    instead of pinning every later process to the reference fallback."""
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
    assert resolve_backend() == "cc"
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
# default engine selection: kernel, else a loud fallback to reference
# ----------------------------------------------------------------------
def test_resolve_engine_auto_prefers_kernel_when_accelerated(monkeypatch):
    """Automatic selection (no engine named) picks the compiled kernel
    when its library loads, without counting a fallback."""
    monkeypatch.delenv("REPRO_SEARCH_ENGINE", raising=False)
    if kernel_unavailable_reason() is not None:
        pytest.skip("no compiled kernel library here")
    before = dict(ENGINE_COUNTERS)
    assert resolve_engine(None, BATTERY[0][1]) == "kernel"
    assert ENGINE_COUNTERS == before  # not a fallback


def test_resolve_engine_auto_without_kernel(monkeypatch):
    """A kernel request without a compiled library -- the default or
    named -- runs on reference, counted on every search, warned once per
    process with the reason."""
    monkeypatch.delenv("REPRO_SEARCH_ENGINE", raising=False)
    monkeypatch.setattr(
        reachability_mod, "_kernel_unavailable", lambda: "no C compiler found (test)"
    )
    monkeypatch.setattr(reachability_mod, "_fallback_warned", set())
    spec = BATTERY[0][1]
    before = ENGINE_COUNTERS["search.engine.fallback.reference"]
    with pytest.warns(RuntimeWarning, match="no C compiler found") as rec:
        assert resolve_engine(None, spec) == "reference"
        assert resolve_engine("kernel", spec) == "reference"
    assert sum(issubclass(w.category, RuntimeWarning) for w in rec) == 1
    assert ENGINE_COUNTERS["search.engine.fallback.reference"] == before + 2
    # a reference request is honoured as-is and never counted as a fallback
    assert resolve_engine("reference", spec) == "reference"
    assert ENGINE_COUNTERS["search.engine.fallback.reference"] == before + 2
    with pytest.raises(ValueError, match="unknown search engine 'fast'"):
        resolve_engine("fast", spec)


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
    spec = BATTERY[0][1]
    attrs, counters = _search_span(spec, find_witness=False)
    assert attrs["engine"] == "kernel"
    assert attrs["kernel_backend"] == "cc"
    assert counters.get("kernelpath.phase.kernel_s", 0) > 0
    assert "search.engine.fallback.reference" not in counters

    # forced fallback: the same default request is labelled reference
    monkeypatch.setattr(
        reachability_mod, "_kernel_unavailable", lambda: "no C compiler found (test)"
    )
    monkeypatch.setattr(reachability_mod, "_fallback_warned", {RuntimeWarning})
    attrs, counters = _search_span(spec, find_witness=False)
    assert attrs["engine"] == "reference"
    assert "kernel_backend" not in attrs
    assert counters["search.engine.fallback.reference"] == 1
    assert not any(".phase." in name for name in counters)


@pytest.mark.parametrize(
    "engine_args", [[], ["--search-engine", "kernel"]], ids=["default", "kernel"]
)
def test_default_engine_falls_back_loudly_without_compiler(engine_args, tmp_path):
    """No compiler and an empty kernel cache: a kernel search -- the
    default or named -- warns once naming the missing compiler, labels its
    span ``engine=reference``, counts the fallback where ``telemetry report``
    shows it, and prints the reference oracle's answer byte for byte."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_CC=str(tmp_path / "no-such-cc"),
        REPRO_KERNEL_CACHE=str(tmp_path / "kcache"),
    )
    events = tmp_path / "ev.jsonl"
    repro = [sys.executable, "-m", "repro"]
    proc = subprocess.run(
        [*repro, "search", "fig1", "--json", *engine_args,
         "--telemetry", str(events)],
        env=env, capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("RuntimeWarning") == 1, proc.stderr
    assert "no-such-cc" in proc.stderr and "reference engine" in proc.stderr
    ref = subprocess.run(
        [*repro, "search", "fig1", "--json", "--search-engine", "reference"],
        env=env, capture_output=True, text=True, timeout=300, cwd=tmp_path,
        check=True,
    )
    assert proc.stdout == ref.stdout
    spans = [
        json.loads(line) for line in events.read_text().splitlines()
        if '"search.deadlock"' in line
    ]
    ends = [e for e in spans if e["kind"] == "span_end"]
    assert [e["attrs"]["engine"] for e in ends] == ["reference"]

    report = subprocess.run(
        [*repro, "telemetry", "report", str(events)],
        env=env, capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert report.returncode == 0, report.stderr
    line = next(
        ln for ln in report.stdout.splitlines() if "engine fallbacks" in ln
    )
    assert "search.engine.fallback.reference=1" in line


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
    for eng in ENGINES:
        reachable, cls_res = classify_configuration(msgs, engine=eng)
        dly = min_delay_to_deadlock(msgs, max_delay=2, engine=eng)
        by_engine[eng] = (
            reachable,
            cls_res.states_explored,
            dly.min_delay,
            {k: r.states_explored for k, r in dly.results.items()},
        )
    assert by_engine["kernel"] == by_engine["reference"]


def test_execute_task_engine_knob_not_in_hash():
    """engine is an execution knob: task identity (and thus the cache key)
    must not depend on it, while results must not differ either."""
    from repro.campaign.specs import build_spec
    from repro.campaign.tasks import execute_task

    task = next(t for t in build_spec("paper-battery") if t.kind == "reachability")
    ref = execute_task(task, engine="reference")
    for eng in (None, "kernel"):
        got = execute_task(task, engine=eng)
        assert got.task_hash == ref.task_hash, eng
        assert got.detail.get("states_explored") == ref.detail.get(
            "states_explored"
        ), eng


@requires_cc
def test_kernel_counters_move():
    """A compiled kernel search is counted on its tier."""
    spec = BATTERY[0][1]
    before = dict(COUNTERS)
    KernelEngine(spec).search()
    key = "kernelpath.searches.cc"
    assert COUNTERS[key] == before[key] + 1


# ----------------------------------------------------------------------
# randomly generated small specs
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


@settings(max_examples=25, deadline=None)
@given(spec=small_specs(), symmetry=st.booleans())
def test_random_specs_two_way_counts(spec, symmetry):
    res = {}
    for eng in ENGINES:
        try:
            got = search_deadlock(
                spec,
                engine=eng,
                find_witness=False,
                symmetry_reduction=symmetry,
                max_states=60_000,
            )
            res[eng] = (got.deadlock_reachable, got.states_explored)
        except SearchLimitExceeded:
            res[eng] = "raised"
    assert res["kernel"] == res["reference"]


@settings(max_examples=15, deadline=None)
@given(spec=small_specs())
def test_random_specs_two_way_witnesses(spec):
    ref = search_deadlock(spec, engine="reference", max_states=60_000)
    got = search_deadlock(spec, engine="kernel", max_states=60_000)
    assert got.deadlock_reachable == ref.deadlock_reachable
    assert got.states_explored == ref.states_explored
    if ref.deadlock_reachable:
        assert got.witness is not None and ref.witness is not None
        assert got.witness.steps == ref.witness.steps
        assert got.witness.states == ref.witness.states
        assert got.witness.deadlocked == ref.witness.deadlocked
        _assert_valid_witness(spec, got.witness)
