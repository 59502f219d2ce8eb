"""Differential pin: the one-search-per-budget Δ* sweep equals the two-phase one.

:func:`repro.analysis.delay.min_delay_to_deadlock` searches each stall
budget once, in witness mode.  Every search is reduced over identical
messages, so a verdict search and a witness search explore the same
states.  The sweep it replaced decided every budget with a verdict-only
search and searched the deadlocking budget a second time for its
witness.  That sweep is kept here as :func:`two_phase_sweep`, the
oracle.  On the Figure 1 network, the Theorem 4 ``fig2-pair`` grid and
``Gen(1..3)`` both sweeps must agree on Δ*, on every per-budget verdict
and ``states_explored``, and on the witness, step for step; every
witness must also replay to a deadlock on the flit-level simulator.  A
spec with identical messages (Figure 1 with the Theorem 1 copies) is
searched once per budget too.
"""

from __future__ import annotations

import itertools

import pytest

import repro.analysis.delay as delay_mod
from repro.analysis.delay import DelayResult, min_delay_to_deadlock
from repro.analysis.reachability import SearchResult, search_deadlock
from repro.analysis.schedules import replay_witness
from repro.analysis.state import CheckerMessage, SystemSpec
from repro.core.cyclic_dependency import build_cyclic_dependency_network
from repro.core.generalized import build_generalized
from repro.core.two_message import build_two_message_config


def two_phase_sweep(
    messages, *, max_delay: int, max_states: int = 4_000_000, engine=None
) -> DelayResult:
    """The sweep before one-pass budgets: a verdict-only search per budget,
    then a witness re-search of the deadlocking budget."""
    results: dict[int, SearchResult] = {}
    for delta in range(max_delay + 1):
        spec = SystemSpec.uniform(messages, budget=delta)
        res = search_deadlock(
            spec, max_states=max_states, find_witness=False, engine=engine
        )
        if res.deadlock_reachable:
            results[delta] = search_deadlock(
                spec, max_states=max_states, engine=engine
            )
            return DelayResult(min_delay=delta, max_delay_tested=delta, results=results)
        results[delta] = res
    return DelayResult(min_delay=None, max_delay_tested=max_delay, results=results)


def _fig1():
    cdn = build_cyclic_dependency_network()
    return cdn.checker_messages(), cdn, list(cdn.message_pairs.values())


def _cases():
    msgs, cdn, pairs = _fig1()
    cases = [pytest.param(msgs, cdn, pairs, 3, id="fig1")]
    for m in (1, 2, 3):
        c = build_generalized(m)
        cases.append(
            pytest.param(c.checker_messages(), c, c.message_pairs, m + 1, id=f"gen{m}")
        )
    for (d1, d2), h in itertools.product(
        itertools.product((1, 2, 3, 4), repeat=2), (2, 3, 4)
    ):
        c = build_two_message_config(
            approach_1=d1, approach_2=d2, hold_1=h, hold_2=h
        )
        cases.append(
            pytest.param(
                c.checker_messages(), c, c.message_pairs, 2,
                id=f"fig2-d1={d1}-d2={d2}-h={h}",
            )
        )
    return cases


def _assert_sweeps_agree(new: DelayResult, old: DelayResult) -> None:
    assert new.min_delay == old.min_delay
    assert new.max_delay_tested == old.max_delay_tested
    assert sorted(new.results) == sorted(old.results)
    for delta, got in new.results.items():
        want = old.results[delta]
        assert got.deadlock_reachable == want.deadlock_reachable, delta
        assert got.states_explored == want.states_explored, delta
        assert got.certificate == want.certificate, delta
    if old.min_delay is None:
        return
    got_w = new.results[new.min_delay].witness
    want_w = old.results[old.min_delay].witness
    assert got_w is not None and want_w is not None
    assert got_w.steps == want_w.steps
    assert got_w.states == want_w.states
    assert got_w.deadlocked == want_w.deadlocked


@pytest.mark.parametrize("certificates", ["on", "off"])
@pytest.mark.parametrize("msgs,construction,pairs,max_delay", _cases())
def test_one_pass_sweep_matches_two_phase(
    msgs, construction, pairs, max_delay, certificates, monkeypatch
):
    """With certificates off, every budget is decided by the BFS (the
    ``fig2-pair`` witnesses otherwise come from a static certificate)."""
    monkeypatch.setenv("REPRO_STATIC_CERTIFICATES", certificates)
    new = min_delay_to_deadlock(msgs, max_delay=max_delay)
    old = two_phase_sweep(msgs, max_delay=max_delay)
    _assert_sweeps_agree(new, old)
    assert new.min_delay is not None
    wit = new.results[new.min_delay].witness
    sim = replay_witness(wit, construction.network, construction.routing, pairs)
    assert sim.deadlocked


def _search_calls(monkeypatch) -> list[bool]:
    """Record the ``find_witness`` flag of every search the sweep makes."""
    calls: list[bool] = []

    def recording(spec, **kw):
        calls.append(kw["find_witness"] if "find_witness" in kw else True)
        return search_deadlock(spec, **kw)

    monkeypatch.setattr(delay_mod, "search_deadlock", recording)
    return calls


def test_distinct_messages_search_each_budget_once(monkeypatch):
    calls = _search_calls(monkeypatch)
    res = min_delay_to_deadlock(_fig1()[0], max_delay=3)
    assert res.min_delay == 1
    assert calls == [True, True]


def test_identical_messages_search_each_budget_once(monkeypatch):
    """Figure 1 plus the Theorem 1 M2/M4 copies: one witness-mode search
    per budget, reduced like the verdict searches of the two-phase sweep."""
    msgs, cdn, pairs = _fig1()
    copies = [
        CheckerMessage(msgs[1].path, msgs[1].length, "M2copy"),
        CheckerMessage(msgs[3].path, msgs[3].length, "M4copy"),
    ]
    calls = _search_calls(monkeypatch)
    new = min_delay_to_deadlock(msgs + copies, max_delay=2)
    assert new.min_delay == 1
    assert calls == [True, True]
    monkeypatch.undo()
    _assert_sweeps_agree(new, two_phase_sweep(msgs + copies, max_delay=2))
    wit = new.results[1].witness
    sim = replay_witness(
        wit, cdn.network, cdn.routing, pairs + [pairs[1], pairs[3]]
    )
    assert sim.deadlocked


def test_negative_max_delay_raises_instead_of_a_verdict():
    """``max_delay < 0`` leaves no budget to search; the sweep must not
    answer "no deadlock" over it."""
    with pytest.raises(ValueError, match="max_delay must be >= 0, got -1"):
        min_delay_to_deadlock(_fig1()[0], max_delay=-1)
