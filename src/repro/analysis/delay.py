"""Stall-budget (clock skew / router delay) analysis -- the Section 6 axis.

The Figure 1 network is deadlock-free only under the paper's synchrony
assumption; delaying messages in flight can complete the cycle.  Section 6
constructs networks requiring at least ``m`` cycles of adversarial delay
before deadlock is possible.  :func:`min_delay_to_deadlock` measures that
threshold exactly by sweeping the per-message stall budget through the
exhaustive search -- one search per budget, and a witness for the
deadlocking one.  The ``m -> Δ*(m)`` series is the campaign's ``gen``
grid (:func:`repro.campaign.specs.gen_tasks`), run by the E6 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.analysis.reachability import (
    SearchResult,
    _symmetry_canonicalizer,
    search_deadlock,
)
from repro.analysis.state import CheckerMessage, SystemSpec


@dataclass
class DelayResult:
    """Outcome of a minimum-delay sweep."""

    min_delay: int | None  # None: no deadlock up to max_delay
    max_delay_tested: int
    results: dict[int, SearchResult]

    @property
    def deadlock_free_under_synchrony(self) -> bool:
        """True iff no deadlock at budget 0 (the paper's base model)."""
        return not self.results[0].deadlock_reachable


def min_delay_to_deadlock(
    messages: Sequence[CheckerMessage],
    *,
    max_delay: int = 16,
    max_states: int = 4_000_000,
    engine: str | None = None,
) -> DelayResult:
    """Smallest uniform per-message stall budget Δ at which deadlock is reachable.

    Deadlock reachability is monotone in the budget (a larger budget only
    adds adversary options), so the sweep stops at the first reachable Δ.

    When every message is distinct (no symmetry class, the Section 6
    ``Gen(m)`` networks and Figure 1), symmetry reduction changes nothing,
    so a verdict search and a witness search explore the same states.
    Each budget is then searched once, in witness mode, and
    ``results[min_delay].witness`` comes from the pass that decided the
    budget.  Specs with identical messages keep two phases: every budget
    is decided by a symmetry-reduced verdict-only search, whose entries
    report the (smaller) reduced state counts, and only the deadlocking
    budget is searched again in witness mode (symmetry off, so the action
    rows name the same message copies as a plain witness search).
    """
    results: dict[int, SearchResult] = {}
    for delta in range(max_delay + 1):
        spec = SystemSpec.uniform(messages, budget=delta)
        one_pass = _symmetry_canonicalizer(spec) is None
        res = search_deadlock(
            spec,
            max_states=max_states,
            find_witness=one_pass,
            engine=engine,
        )
        if res.deadlock_reachable:
            if not one_pass:
                res = search_deadlock(spec, max_states=max_states, engine=engine)
            results[delta] = res
            return DelayResult(min_delay=delta, max_delay_tested=delta, results=results)
        results[delta] = res
    return DelayResult(min_delay=None, max_delay_tested=max_delay, results=results)
