"""The paper's constructions and theory, executable.

* :mod:`specs` -- parametric builder for shared-channel cycle networks
  (the geometry family behind Figures 1, 2, 3 and Section 6).
* :mod:`cyclic_dependency` -- the Figure 1 network and the full Cyclic
  Dependency routing algorithm (Section 4, Theorem 1).
* :mod:`two_message` -- Figure 2 / Theorem 4 configurations.
* :mod:`three_message` -- Figure 3(a)--(f) / Theorem 5 configurations.
* :mod:`within_cycle` -- Theorem 2 configurations (shared channel inside
  the cycle) and Corollary 1--3 baselines.
* :mod:`generalized` -- the Section 6 family ``Gen(m)``.
* :mod:`conditions` -- the eight Theorem 5 conditions, executable.
* :mod:`theory` -- the closed-form Theorem 1 timing argument.
* :mod:`minimal_search` -- Theorem 3: the Figure 1 nonminimality certificate.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

#: public name -> the submodule defining it, imported on first access
_EXPORTS = {
    "CycleMessageSpec": "specs",
    "SharedCycleConstruction": "specs",
    "build_shared_cycle": "specs",
    "CyclicDependencyNetwork": "cyclic_dependency",
    "build_cyclic_dependency_network": "cyclic_dependency",
    "FIG1_MESSAGES": "cyclic_dependency",
    "build_two_message_config": "two_message",
    "TWO_MESSAGE_DEFAULT": "two_message",
    "ThreeMessageParams": "three_message",
    "build_three_message_config": "three_message",
    "FIG3_PANELS": "three_message",
    "build_overlapping_ring": "within_cycle",
    "OverlapSpec": "within_cycle",
    "build_generalized": "generalized",
    "generalized_messages": "generalized",
    "TheoremFiveInput": "conditions",
    "evaluate_conditions": "conditions",
    "theorem5_predicts_unreachable": "conditions",
    "ConditionReport": "conditions",
    "Theorem1Timing": "theory",
    "analytic_schedule_feasible": "theory",
    "earliest_blocking_analysis": "theory",
    "predicted_unreachable": "multi_message",
    "run_four_message_sweep": "multi_message",
    "split_shared_fig1": "multi_message",
    "run_split_shared_experiment": "multi_message",
}

if TYPE_CHECKING:  # pragma: no cover - the static view of _EXPORTS
    from repro.core.conditions import (
        ConditionReport,
        TheoremFiveInput,
        evaluate_conditions,
        theorem5_predicts_unreachable,
    )
    from repro.core.cyclic_dependency import (
        FIG1_MESSAGES,
        CyclicDependencyNetwork,
        build_cyclic_dependency_network,
    )
    from repro.core.generalized import build_generalized, generalized_messages
    from repro.core.multi_message import (
        predicted_unreachable,
        run_four_message_sweep,
        run_split_shared_experiment,
        split_shared_fig1,
    )
    from repro.core.specs import CycleMessageSpec, SharedCycleConstruction, build_shared_cycle
    from repro.core.theory import (
        Theorem1Timing,
        analytic_schedule_feasible,
        earliest_blocking_analysis,
    )
    from repro.core.three_message import FIG3_PANELS, ThreeMessageParams, build_three_message_config
    from repro.core.two_message import TWO_MESSAGE_DEFAULT, build_two_message_config
    from repro.core.within_cycle import OverlapSpec, build_overlapping_ring

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
