"""Differential pin: the numpy-vectorised search paths are bit-identical.

The pure-numpy path through the search is the kernel engine's
interpreted tier (``REPRO_KERNEL_BACKEND=python``): the same fused BFS as
the compiled tiers, run as numpy code on flat int32/uint64 tables.  It is
the correctness floor that runs with no compiler and no numba, and the
former whole-frontier vector engine's replacement.  These tests assert,
against the reference oracle and the fast engine, on paper-battery
scenarios and randomly generated specs: identical ``deadlock_reachable``
verdicts, identical ``states_explored`` counts (symmetry reduction on and
off), identical :class:`SearchLimitExceeded` behaviour, and witnesses
equal step-for-step that replay to a genuine deadlock under the
*reference* dynamics.

Wide rows are pinned here too: the kernel's multi-word occupancy masks
(the rows of specs with more than 64 channels) are forced onto small
battery specs and random specs.  The retired ``vector`` engine name is
rejected by name.

``tests/test_kernelpath_differential.py`` pins the compiled tiers and
the default engine selection.
"""

from __future__ import annotations

import copy
import warnings
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

import repro.analysis.kernelpath as kernelpath_mod
import repro.analysis.reachability as reachability_mod
from repro import obs
from repro.analysis.fastpath import engine_for
from repro.analysis.kernelpath import (
    COUNTERS,
    KernelEngine,
    WideSpecFallbackWarning,
    warn_wide_fallback,
)
from repro.analysis.reachability import (
    SearchLimitExceeded,
    Witness,
    search_deadlock,
)
from repro.analysis.state import CheckerMessage, SystemSpec
from repro.campaign.scenarios import build_scenario
from repro.obs import Telemetry

ENGINES = ("reference", "fast", "kernel")


@pytest.fixture(autouse=True)
def _certificates_off(monkeypatch):
    """These tests pin BFS-engine equivalence; the static-certificate
    pre-pass would decide several battery specs with zero search states and
    mask the comparison."""
    monkeypatch.setenv("REPRO_STATIC_CERTIFICATES", "off")


@pytest.fixture()
def numpy_tier(monkeypatch):
    """Run every kernel search on the interpreted numpy tier."""
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "python")
    kernelpath_mod.clear_caches()
    yield
    kernelpath_mod.clear_caches()


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
# battery differential on the numpy tier
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label,spec", BATTERY, ids=[b[0] for b in BATTERY])
@pytest.mark.parametrize("symmetry", [False, True], ids=["nosym", "sym"])
def test_battery_verdicts_and_counts(label, spec, symmetry, numpy_tier):
    res = _three_way(spec, find_witness=False, symmetry_reduction=symmetry)
    ref = res["reference"]
    for eng in ("fast", "kernel"):
        assert res[eng].deadlock_reachable == ref.deadlock_reachable, eng
        assert res[eng].states_explored == ref.states_explored, eng


@pytest.mark.parametrize("label,spec", BATTERY, ids=[b[0] for b in BATTERY])
def test_battery_witness_equality_and_replay(label, spec, numpy_tier):
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


@pytest.mark.parametrize("label,spec", BATTERY[:2], ids=["fig1-b0", "fig1-b1"])
def test_battery_default_thresholds_match(label, spec, monkeypatch):
    """Same pin with nothing forced: no engine named, no backend pinned,
    so the search runs on whatever the default selection resolves."""
    monkeypatch.delenv("REPRO_SEARCH_ENGINE", raising=False)
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
    ref = search_deadlock(spec, engine="reference", find_witness=False)
    got = search_deadlock(spec, find_witness=False)
    assert got.deadlock_reachable == ref.deadlock_reachable
    assert got.states_explored == ref.states_explored


@pytest.mark.parametrize("cap", [2, 10, 50])
def test_state_cap_is_engine_independent(cap, numpy_tier):
    """SearchLimitExceeded parity: all engines raise at the same count."""
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
    assert outcomes["fast"] == outcomes["reference"]


# ----------------------------------------------------------------------
# engine names
# ----------------------------------------------------------------------
def test_unknown_engine_rejected():
    """Unknown names -- including the retired ``vector`` and ``auto`` --
    are rejected by name, never silently mapped to another engine."""
    for name in ("warp", "vector", "auto"):
        with pytest.raises(ValueError, match="unknown search engine"):
            search_deadlock(BATTERY[0][1], engine=name, find_witness=False)


def test_env_var_selects_vector(monkeypatch):
    """REPRO_SEARCH_ENGINE=vector no longer selects an engine: the env
    switch rejects the retired name exactly as ``engine="vector"`` does."""
    spec = BATTERY[1][1]
    monkeypatch.setenv("REPRO_SEARCH_ENGINE", "vector")
    with pytest.raises(ValueError, match="unknown search engine 'vector'"):
        search_deadlock(spec, find_witness=False)
    # an explicit engine still wins over the env var
    explicit = search_deadlock(spec, engine="kernel", find_witness=False)
    ref = search_deadlock(spec, engine="reference", find_witness=False)
    assert explicit.states_explored == ref.states_explored


# ----------------------------------------------------------------------
# integration: classify/delay/campaign plumbing on the numpy tier
# ----------------------------------------------------------------------
def test_classify_and_delay_thread_vector_engine(numpy_tier):
    """The engine knob changes execution only: classify/delay results are
    identical with the kernel running on the numpy tier.

    classify runs on the small Theorem 2 ring (a full classification of
    Fig. 1 is tens of seconds on the interpreted tier); delay runs on
    Fig. 1, whose minimum delay to deadlock is 1."""
    from repro.analysis.classify import classify_configuration
    from repro.analysis.delay import min_delay_to_deadlock

    ring = build_scenario(
        "theorem2-overlap", {"ring_n": 6, "entries": (0, 3), "run_lens": (4, 4)}
    ).messages
    fig1 = build_scenario("fig1", {}).messages
    by_engine = {}
    for eng in ("fast", "kernel"):
        reachable, cls_res = classify_configuration(ring, engine=eng)
        dly = min_delay_to_deadlock(fig1, max_delay=2, engine=eng)
        by_engine[eng] = (
            reachable,
            cls_res.states_explored,
            dly.min_delay,
            {k: r.states_explored for k, r in dly.results.items()},
        )
    assert by_engine["kernel"] == by_engine["fast"]
    assert by_engine["fast"][1] > 0  # classify really searched
    assert by_engine["fast"][2] == 1


def test_execute_task_engine_knob_not_in_hash(numpy_tier):
    """engine is an execution knob: task identity (and thus the cache key)
    must not depend on it, while results must not differ either."""
    from repro.campaign.specs import build_spec
    from repro.campaign.tasks import execute_task

    task = next(t for t in build_spec("paper-battery") if t.kind == "reachability")
    ref = execute_task(task, engine="reference")
    got = execute_task(task, engine="kernel")
    assert got.task_hash == ref.task_hash
    assert got.detail.get("states_explored") == ref.detail.get(
        "states_explored"
    )


def test_telemetry_counters_move(numpy_tier):
    """A numpy-tier search records its tier, and under telemetry its
    phase timer and level widths."""
    spec = BATTERY[0][1]
    before = dict(COUNTERS)
    events: list[dict] = []
    tel = Telemetry()
    tel.add_sink(events.append)
    with obs.scope(tel):
        search_deadlock(spec, engine="kernel", find_witness=False)
    assert (
        COUNTERS["kernelpath.searches.python"]
        == before["kernelpath.searches.python"] + 1
    )
    assert tel.counters.get("kernelpath.phase.kernel_s", 0) > 0
    end = next(
        e for e in events
        if e["name"] == "search.deadlock" and e["kind"] == "span_end"
    )
    assert end["attrs"]["engine"] == "kernel"
    assert end["attrs"]["kernel_backend"] == "python"


# ----------------------------------------------------------------------
# wide rows: multi-word occupancy masks
# ----------------------------------------------------------------------
def _wide_kernel_engine(spec: SystemSpec) -> KernelEngine:
    """A kernel engine whose occupancy rows span four 64-bit words even
    when the spec's channels fit in one."""
    fast = engine_for(spec)
    wide = copy.copy(fast)  # engine_for is cached; never mutate its engine
    wide.num_bits = max(fast.num_bits, 200)
    return KernelEngine(spec, fast=wide)


@contextmanager
def _forced_wide():
    """Route ``search_deadlock(engine="kernel")`` through forced
    multi-word rows (a context manager, not a fixture, so hypothesis
    examples can use it)."""
    old = reachability_mod._kernel_engine_for
    reachability_mod._kernel_engine_for = _wide_kernel_engine
    try:
        yield
    finally:
        reachability_mod._kernel_engine_for = old


@pytest.mark.parametrize("label,spec", BATTERY, ids=[b[0] for b in BATTERY])
def test_forced_wide_keys_bit_identical(label, spec):
    """Force four 64-bit occupancy words onto specs that fit in one: the
    multi-word row path must not change a verdict, count or witness."""
    fast = engine_for(spec)
    keng = _wide_kernel_engine(spec)
    assert fast.num_bits <= 64 and keng._W == 4
    assert keng.search() == fast.search()
    assert keng.search_witness() == fast.search_witness()
    with _forced_wide():
        got = search_deadlock(spec, engine="kernel")
    ref = search_deadlock(spec, engine="fast")
    assert got.states_explored == ref.states_explored
    assert got.witness == ref.witness


def test_wide_spec_fallback_warning_is_structured():
    """The fallback warning carries the spec's size and the engine's limit
    as attributes, and is a UserWarning that filters can single out."""
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        warn_wide_fallback("kernel", 70, 83, 64)
    assert len(rec) == 1
    warning = rec[0].message
    assert isinstance(warning, WideSpecFallbackWarning)
    assert isinstance(warning, UserWarning)
    assert (warning.engine, warning.n, warning.num_bits, warning.max_msgs) == (
        "kernel", 70, 83, 64,
    )
    text = str(warning)
    assert "70 messages" in text and "83 channel bits" in text
    assert "64 messages" in text and "verdict unchanged" in text
    # an "error" filter on the class turns it into a hard failure
    with warnings.catch_warnings():
        warnings.simplefilter("error", WideSpecFallbackWarning)
        with pytest.raises(WideSpecFallbackWarning):
            warn_wide_fallback("kernel", 70, 83, 64)


# ----------------------------------------------------------------------
# randomly generated small specs, kernel on forced wide rows (three-way)
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


@settings(max_examples=30, deadline=None)
@given(spec=small_specs(), symmetry=st.booleans())
def test_random_specs_three_way_counts(spec, symmetry):
    res = {}
    with _forced_wide():
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
    for eng in ("fast", "kernel"):
        assert res[eng] == res["reference"], eng


@settings(max_examples=20, deadline=None)
@given(spec=small_specs())
def test_random_specs_three_way_witnesses(spec):
    ref = search_deadlock(spec, engine="reference", max_states=60_000)
    for eng in ("fast", "kernel"):
        with _forced_wide():
            got = search_deadlock(spec, engine=eng, max_states=60_000)
        assert got.deadlock_reachable == ref.deadlock_reachable, eng
        assert got.states_explored == ref.states_explored, eng
        if ref.deadlock_reachable:
            assert got.witness is not None and ref.witness is not None
            assert got.witness.steps == ref.witness.steps, eng
            assert got.witness.states == ref.witness.states, eng
            _assert_valid_witness(spec, got.witness)
