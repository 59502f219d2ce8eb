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

from repro.analysis.reachability import SearchResult, search_deadlock
from repro.analysis.state import CheckerMessage, SystemSpec, check_options


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
) -> DelayResult:
    """Smallest uniform per-message stall budget Δ at which deadlock is reachable.

    Deadlock reachability is monotone in the budget (a larger budget only
    adds adversary options), so the sweep stops at the first reachable Δ.
    Each budget is searched once, in witness mode, so
    ``results[min_delay].witness`` comes from the search that decided the
    budget.  Like every search, it is reduced over identical messages
    (see :func:`~repro.analysis.reachability.search_deadlock`), so each
    entry reports the same ``states_explored`` a verdict-only search
    would.

    Raises :class:`ValueError` when ``max_delay < 0`` (no budget to
    search) or ``max_states < 1``.
    """
    check_options(max_delay=max_delay, max_states=max_states)
    results: dict[int, SearchResult] = {}
    for delta in range(max_delay + 1):
        res = search_deadlock(
            SystemSpec.uniform(messages, budget=delta), max_states=max_states
        )
        results[delta] = res
        if res.deadlock_reachable:
            return DelayResult(min_delay=delta, max_delay_tested=delta, results=results)
    return DelayResult(min_delay=None, max_delay_tested=max_delay, results=results)
