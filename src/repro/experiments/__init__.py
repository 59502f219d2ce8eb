"""Experiment drivers: one per paper figure/theorem (see DESIGN.md sec. 4).

Each driver returns structured rows; :mod:`report` renders them as the
text tables printed by ``benchmarks/`` and ``examples/``.  Keeping the
drivers importable (rather than buried in bench files) lets tests assert
the *scientific* claims independently of benchmark timing plumbing.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

#: public name -> the submodule defining it, imported on first access
_EXPORTS = {
    "run_fig1_experiment": "fig1",
    "Fig1Result": "fig1",
    "run_fig2_experiment": "fig2",
    "Fig2Result": "fig2",
    "run_fig3_experiment": "fig3",
    "Fig3PanelResult": "fig3",
    "run_theorem2_experiment": "theorem2",
    "run_corollary_baselines": "theorem2",
    "run_theorem3_experiment": "theorem3",
    "run_generalization_experiment": "generalization",
    "run_traffic_experiment": "traffic",
    "TrafficPoint": "traffic",
    "render_table": "report",
    "render_kv": "report",
}

if TYPE_CHECKING:  # pragma: no cover - the static view of _EXPORTS
    from repro.experiments.fig1 import Fig1Result, run_fig1_experiment
    from repro.experiments.fig2 import Fig2Result, run_fig2_experiment
    from repro.experiments.fig3 import Fig3PanelResult, run_fig3_experiment
    from repro.experiments.generalization import run_generalization_experiment
    from repro.experiments.report import render_kv, render_table
    from repro.experiments.theorem2 import run_corollary_baselines, run_theorem2_experiment
    from repro.experiments.theorem3 import run_theorem3_experiment
    from repro.experiments.traffic import TrafficPoint, run_traffic_experiment

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
