"""Reachability analysis: exhaustive search over the paper's adversary.

The deterministic simulator answers "does *this* schedule deadlock?".  The
paper's claims quantify over **all** schedules: Theorem 1 says *no*
injection timing, arbitration outcome or modest delay can complete the
Figure 1 cycle; Theorems 2/4/5 say a deadlock *does* exist for certain
configurations.  This package decides such claims by explicit-state search
over everything the adversary controls:

* when each message is injected (any cycle -- Assumption 1);
* which requester wins each simultaneous arbitration (the paper's
  adversarial tie-break, explored exhaustively rather than heuristically);
* a bounded per-message *stall budget* Δ -- the Section 6 "delayed by m
  clock cycles" knob.  Δ = 0 is the paper's tight-synchrony model in which
  an unblocked message always advances.

Because oblivious messages follow fixed paths and the worst case is
single-flit buffers (Section 4's argument), states are tiny tuples and the
full state space of the figure networks is a few thousand states.

Public API
----------
:class:`CheckerMessage` / :class:`SystemSpec` -- scenario description.
:func:`search_deadlock`                       -- BFS for a reachable deadlock.
:class:`SearchResult` / :class:`Witness`      -- outcome + replayable trace.
:func:`classify_cycle`                        -- false resource cycle vs
                                                 reachable deadlock.
:func:`min_delay_to_deadlock`                 -- smallest Δ making a
                                                 configuration deadlock.
:func:`witness_to_schedule`                   -- replay a witness on the
                                                 flit-level simulator.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

#: public name -> the submodule defining it, imported on first access
_EXPORTS = {
    "CheckerMessage": "state",
    "SystemSpec": "state",
    "SystemState": "state",
    "MsgState": "state",
    "search_deadlock": "reachability",
    "SearchResult": "reachability",
    "Witness": "reachability",
    "SearchLimitExceeded": "reachability",
    "classify_cycle": "classify",
    "classify_configuration": "classify",
    "CycleClassification": "classify",
    "messages_for_cycle": "classify",
    "min_delay_to_deadlock": "delay",
    "witness_to_schedule": "schedules",
    "replay_witness": "schedules",
    "AdaptiveMessage": "adaptive_state",
    "AdaptiveSystem": "adaptive_state",
    "search_adaptive_deadlock": "adaptive_state",
}

if TYPE_CHECKING:  # pragma: no cover - the static view of _EXPORTS
    from repro.analysis.adaptive_state import (
        AdaptiveMessage,
        AdaptiveSystem,
        search_adaptive_deadlock,
    )
    from repro.analysis.classify import (
        CycleClassification,
        classify_configuration,
        classify_cycle,
        messages_for_cycle,
    )
    from repro.analysis.delay import min_delay_to_deadlock
    from repro.analysis.reachability import (
        SearchLimitExceeded,
        SearchResult,
        Witness,
        search_deadlock,
    )
    from repro.analysis.schedules import replay_witness, witness_to_schedule
    from repro.analysis.state import CheckerMessage, MsgState, SystemSpec, SystemState

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
