"""E3 -- Figure 3 + Theorem 5: three messages sharing a channel.

Regenerates the six-panel classification (paper: (a), (b) unreachable;
(c)-(f) deadlock) and reports agreement between the (partly reconstructed,
calibrated) eight conditions and the exhaustive search over a random
configuration sweep.
"""

import pytest

from benchmarks.conftest import emit
from repro.campaign.specs import fig3_panel_tasks
from repro.campaign.tasks import execute_task
from repro.experiments import render_table
from repro.experiments.fig3 import run_condition_sweep, run_fig3_experiment


@pytest.fixture(scope="module")
def panels():
    return run_fig3_experiment()


def test_fig3_panels_match_paper(panels):
    emit(render_table([r.row() for r in panels], title="E3: Figure 3 / Theorem 5 panels"))
    for r in panels:
        assert r.search_matches_paper, r.panel


def test_fig3_conditions_agree_with_search_on_panels(panels):
    for r in panels:
        assert r.conditions_match_search, r.panel


def test_fig3_condition_sweep_agreement():
    sweep = run_condition_sweep(samples=25, seed=11)
    emit(
        f"E3 sweep: conditions vs exhaustive search agree on "
        f"{sweep.agree}/{sweep.total} random configurations"
    )
    for d in sweep.disagreements:
        emit(f"  disagreement: {d}")
    assert sweep.rate == 1.0


def test_benchmark_panel_classification(benchmark, panels):
    emit(render_table([r.row() for r in panels], title="E3: Figure 3 / Theorem 5 panels"))
    for r in panels:
        assert r.search_matches_paper and r.conditions_match_search, r.panel
    (panel_e,) = [t for t in fig3_panel_tasks() if t.params_dict()["panel"] == "e"]
    res = benchmark.pedantic(execute_task, args=(panel_e,), rounds=1, iterations=1)
    assert res.ok and res.verdict == "deadlock"
