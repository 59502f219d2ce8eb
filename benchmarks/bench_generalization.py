"""E6 -- Section 6 generalisation: minimum delay-to-deadlock grows with m.

Paper claim: ``Gen(m)`` requires at least one message to be delayed at
least ~m cycles before deadlock is possible.  Measured: Δ*(m) = m exactly
(m = 1..3 here; m = 4 confirmed offline, see EXPERIMENTS.md).
"""

import pytest

from benchmarks.conftest import emit
from repro.analysis.delay import min_delay_to_deadlock
from repro.core.generalized import generalized_messages
from repro.experiments import render_table, run_generalization_experiment


@pytest.fixture(scope="module")
def result():
    # the campaign runner fans the per-m searches out across processes
    return run_generalization_experiment((1, 2, 3), jobs=3)


def test_delay_grows_linearly(result):
    emit(render_table(result.rows(), title="E6: Gen(m) minimum delay to deadlock"))
    assert result.strictly_increasing
    assert result.deadlock_free_under_synchrony
    assert result.profile == {1: 1, 2: 2, 3: 3}


def test_benchmark_gen2_delay_search(benchmark, result):
    emit(render_table(result.rows(), title="E6: Gen(m) minimum delay to deadlock"))
    assert result.strictly_increasing and result.profile == {1: 1, 2: 2, 3: 3}
    def payload():
        res = min_delay_to_deadlock(generalized_messages(2), max_delay=3)
        assert res.min_delay == 2

    benchmark.pedantic(payload, rounds=1, iterations=1)
