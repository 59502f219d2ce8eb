"""Differential pin: the kernel's multi-word occupancy rows are bit-identical.

A spec with more than 64 channels gives the compiled kernel occupancy rows
of several 64-bit words.  These tests force four-word rows onto small
specs whose channels fit in one word (``_forced_wide``, which patches the
table builder's ``num_bits``), so the multi-word path runs on the cc tier
for every paper-battery scenario, witness replay, state cap,
classify/delay run and campaign task below, and for randomly generated
specs.  Against the reference oracle they assert: identical
``deadlock_reachable`` verdicts, identical ``states_explored`` counts
(every search reduced over identical messages), identical
:class:`SearchLimitExceeded` behaviour, and witnesses equal step-for-step that replay to a genuine
deadlock under the *reference* dynamics.

The retired engine names (``vector``, ``auto``, ``fast``) are rejected
here too.  Tests that need the compiled library skip cleanly without a C
compiler.

``tests/test_kernelpath_differential.py`` pins the kernel on its natural
row width and the engine selection.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

import repro.analysis.kernelpath as kernelpath_mod
from repro import obs
from repro.analysis.kernelpath import (
    KernelEngine,
    WideSpecFallbackWarning,
)
from repro.analysis.reachability import (
    SearchLimitExceeded,
    Witness,
    search_deadlock,
)
from repro.analysis.state import CheckerMessage, SystemSpec
from repro.campaign.scenarios import build_scenario
from repro.obs import Telemetry

ENGINES = ("reference", "kernel")


@pytest.fixture(autouse=True)
def _certificates_off(monkeypatch):
    """These tests pin BFS-engine equivalence; the static-certificate
    pre-pass would decide several battery specs with zero search states and
    mask the comparison."""
    monkeypatch.setenv("REPRO_STATIC_CERTIFICATES", "off")


@contextmanager
def _forced_wide():
    """Build every kernel engine with occupancy rows of four 64-bit words,
    even when the spec's channels fit in one (a context manager, not a
    fixture, so hypothesis examples can use it)."""
    natural = kernelpath_mod._TableBuilder.num_bits
    kernelpath_mod.clear_caches()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            kernelpath_mod._TableBuilder,
            "num_bits",
            property(lambda self: max(natural.fget(self), 200)),
        )
        try:
            yield
        finally:
            kernelpath_mod.clear_caches()


@pytest.fixture()
def wide_rows():
    """Run every ``engine="kernel"`` search on the cc tier with four-word
    occupancy rows."""
    if kernelpath_mod.resolve_backend() != "cc":
        pytest.skip("no working C compiler")
    with _forced_wide():
        yield


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


def _both(spec: SystemSpec, **kw):
    return {eng: search_deadlock(spec, engine=eng, **kw) for eng in ENGINES}


# ----------------------------------------------------------------------
# battery differential on forced wide rows
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label,spec", BATTERY, ids=[b[0] for b in BATTERY])
def test_battery_verdicts_and_counts(label, spec, wide_rows):
    res = _both(spec, find_witness=False)
    ref = res["reference"]
    assert res["kernel"].deadlock_reachable == ref.deadlock_reachable
    assert res["kernel"].states_explored == ref.states_explored


@pytest.mark.parametrize("label,spec", BATTERY, ids=[b[0] for b in BATTERY])
def test_battery_witness_equality_and_replay(label, spec, wide_rows):
    res = _both(spec)
    ref, got = res["reference"], res["kernel"]
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


@pytest.mark.parametrize("label,spec", BATTERY[:2], ids=["fig1-b0", "fig1-b1"])
def test_battery_default_thresholds_match(label, spec):
    """Same pin with nothing forced: no engine named and natural row
    widths, so the search runs on whatever the default selection resolves."""
    ref = search_deadlock(spec, engine="reference", find_witness=False)
    got = search_deadlock(spec, find_witness=False)
    assert got.deadlock_reachable == ref.deadlock_reachable
    assert got.states_explored == ref.states_explored


@pytest.mark.parametrize("cap", [2, 10, 50])
def test_state_cap_is_engine_independent(cap, wide_rows):
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


# ----------------------------------------------------------------------
# engine names
# ----------------------------------------------------------------------
def test_unknown_engine_rejected():
    """Unknown names -- including the retired ``vector``, ``auto`` and
    ``fast`` -- are rejected by name, never silently mapped to another
    engine."""
    for name in ("warp", "vector", "auto", "fast"):
        with pytest.raises(ValueError, match="unknown search engine"):
            search_deadlock(BATTERY[0][1], engine=name, find_witness=False)


# ----------------------------------------------------------------------
# integration: classify/delay/campaign plumbing on forced wide rows
# ----------------------------------------------------------------------
def test_classify_and_delay_thread_kernel_wide_rows(wide_rows, running_on):
    """The engine changes execution only: classify/delay results are
    identical with the kernel running on forced wide rows and on the
    reference fallback.

    classify runs on the small Theorem 2 ring; delay runs on Fig. 1, whose
    minimum delay to deadlock is 1."""
    from repro.analysis.classify import classify_configuration
    from repro.analysis.delay import min_delay_to_deadlock

    ring = build_scenario(
        "theorem2-overlap", {"ring_n": 6, "entries": (0, 3), "run_lens": (4, 4)}
    ).messages
    fig1 = build_scenario("fig1", {}).messages
    by_engine = {}
    for eng in ENGINES:
        with running_on(eng):
            reachable, cls_res = classify_configuration(ring)
            dly = min_delay_to_deadlock(fig1, max_delay=2)
        by_engine[eng] = (
            reachable,
            cls_res.states_explored,
            dly.min_delay,
            {k: r.states_explored for k, r in dly.results.items()},
        )
    assert by_engine["kernel"] == by_engine["reference"]
    assert by_engine["reference"][1] > 0  # classify really searched
    assert by_engine["reference"][2] == 1


def test_execute_task_engine_knob_not_in_hash(wide_rows, running_on):
    """The engine is not part of a task: task identity (and thus the cache
    key) is the same on the default and on the forced fallback, and so
    are the results."""
    from repro.campaign.specs import build_spec
    from repro.campaign.tasks import execute_task

    task = next(t for t in build_spec("paper-battery") if t.kind == "reachability")
    with running_on("reference"):
        ref = execute_task(task)
    got = execute_task(task)
    assert got.task_hash == ref.task_hash
    assert got.detail.get("states_explored") == ref.detail.get(
        "states_explored"
    )


def test_telemetry_counters_move(wide_rows):
    """A forced-wide kernel search records its tier, and under telemetry
    its phase timer and the ``kernel_backend`` span attribute."""
    spec = BATTERY[0][1]
    events: list[dict] = []
    tel = Telemetry()
    tel.add_sink(events.append)
    with obs.scope(tel):
        search_deadlock(spec, engine="kernel", find_witness=False)
    assert tel.counters["kernelpath.searches.cc"] == 1
    assert tel.counters.get("kernelpath.phase.kernel_s", 0) > 0
    end = next(
        e for e in events
        if e["name"] == "search.deadlock" and e["kind"] == "span_end"
    )
    assert end["attrs"]["engine"] == "kernel"
    assert end["attrs"]["kernel_backend"] == "cc"


# ----------------------------------------------------------------------
# wide rows, engine level
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label,spec", BATTERY, ids=[b[0] for b in BATTERY])
def test_forced_wide_keys_bit_identical(label, spec, wide_rows):
    """Force four 64-bit occupancy words onto specs that fit in one: the
    multi-word row path must not change a verdict, count or witness."""
    keng = KernelEngine(spec)
    assert len(keng._tables.bit_of) <= 64 and keng._tables.W == 4
    ref = search_deadlock(spec, engine="reference", find_witness=False)
    assert keng.search()[:2] == (ref.deadlock_reachable, ref.states_explored)
    got = search_deadlock(spec, engine="kernel")
    ref = search_deadlock(spec, engine="reference")
    assert got.states_explored == ref.states_explored
    assert got.witness == ref.witness


def test_wide_spec_fallback_warning_is_structured():
    """The fallback warning carries the spec's size and the engine's limit
    as attributes, and is a UserWarning that filters can single out."""
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        warnings.warn(WideSpecFallbackWarning("kernel", 70, 83, 64))
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
            warnings.warn(WideSpecFallbackWarning("kernel", 70, 83, 64))


# ----------------------------------------------------------------------
# randomly generated small specs, kernel on forced wide rows
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
@given(spec=small_specs())
def test_random_specs_two_way_counts(spec):
    res = {}
    with _forced_wide():
        for eng in ENGINES:
            try:
                got = search_deadlock(
                    spec,
                    engine=eng,
                    find_witness=False,
                        max_states=60_000,
                )
                res[eng] = (got.deadlock_reachable, got.states_explored)
            except SearchLimitExceeded:
                res[eng] = "raised"
    assert res["kernel"] == res["reference"]


@settings(max_examples=20, deadline=None)
@given(spec=small_specs())
def test_random_specs_two_way_witnesses(spec):
    ref = search_deadlock(spec, engine="reference", max_states=60_000)
    with _forced_wide():
        got = search_deadlock(spec, engine="kernel", max_states=60_000)
    assert got.deadlock_reachable == ref.deadlock_reachable
    assert got.states_explored == ref.states_explored
    if ref.deadlock_reachable:
        assert got.witness is not None and ref.witness is not None
        assert got.witness.steps == ref.witness.steps
        assert got.witness.states == ref.witness.states
        assert got.witness.deadlocked == ref.witness.deadlocked
        _assert_valid_witness(spec, got.witness)
