"""Stall-budget (clock skew / router delay) analysis -- the Section 6 axis.

The Figure 1 network is deadlock-free only under the paper's synchrony
assumption; delaying messages in flight can complete the cycle.  Section 6
constructs networks requiring at least ``m`` cycles of adversarial delay
before deadlock is possible.  :func:`min_delay_to_deadlock` measures that
threshold exactly by sweeping the per-message stall budget through the
exhaustive search, and :func:`delay_tolerance_profile` produces the
``m -> Δ*(m)`` series reproduced by the generalisation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

from repro.analysis.reachability import SearchResult, search_deadlock
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

    The sweep runs in two phases: every budget is first decided with a
    verdict-only search (symmetry reduction on, parent pointers off), and
    only the single deadlocking budget is re-searched in witness mode so
    ``results[min_delay].witness`` replays exactly as before.  The negative
    budgets dominate the sweep cost, so skipping their parent maps and
    deduplicating identical-message permutations is the big win here;
    their entries report the (smaller) symmetry-reduced state counts.
    """
    results: dict[int, SearchResult] = {}
    for delta in range(max_delay + 1):
        spec = SystemSpec.uniform(messages, budget=delta)
        res = search_deadlock(
            spec,
            max_states=max_states,
            find_witness=False,
            engine=engine,
        )
        if res.deadlock_reachable:
            # witness pass: identical to the pre-two-phase search at this
            # budget (witness mode, no symmetry reduction), so downstream
            # replay consumers see an unchanged trace
            results[delta] = search_deadlock(spec, max_states=max_states, engine=engine)
            return DelayResult(min_delay=delta, max_delay_tested=delta, results=results)
        results[delta] = res
    return DelayResult(min_delay=None, max_delay_tested=max_delay, results=results)


def delay_tolerance_profile(
    scenario_factory: Callable[[int], Sequence[CheckerMessage]],
    params: Sequence[int],
    *,
    max_delay: int = 24,
    max_states: int = 6_000_000,
    engine: str | None = None,
) -> dict[int, int | None]:
    """Map each parameter ``m`` to the measured minimum deadlock delay Δ*(m).

    ``scenario_factory(m)`` builds the messages of the Section 6 network
    ``Gen(m)``; the paper predicts Δ*(m) grows (at least) linearly in ``m``.
    """
    profile: dict[int, int | None] = {}
    for m in params:
        messages = scenario_factory(m)
        res = min_delay_to_deadlock(
            messages,
            max_delay=max_delay,
            max_states=max_states,
            engine=engine,
        )
        profile[m] = res.min_delay
    return profile
