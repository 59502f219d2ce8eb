"""Experiment driver integration tests (fast configurations)."""

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.runner import run_campaign
from repro.campaign.specs import build_spec, fig2_grid_tasks
from repro.campaign.tasks import CampaignTask
from repro.cli import main
from repro.experiments import fig1, grid, render_kv, render_table, theorem2, traffic
from repro.experiments.fig2 import run_fig2_experiment
from repro.experiments.fig3 import run_fig3_experiment
from repro.experiments.generalization import run_generalization_experiment
from repro.experiments.grid import GridTaskFailed, run_grid
from repro.experiments.theorem2 import run_corollary_baselines, run_theorem2_experiment
from repro.experiments.theorem3 import run_theorem3_experiment
from repro.experiments.traffic import run_ring_deadlock_probe, run_traffic_experiment


class TestRendering:
    def test_render_table_alignment(self):
        out = render_table(
            [{"a": 1, "bb": "x"}, {"a": 22, "bb": "yyy"}], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_table_empty(self):
        assert "(no rows)" in render_table([])

    def test_render_table_floats(self):
        out = render_table([{"v": 3.14159}])
        assert "3.14" in out

    def test_render_kv(self):
        out = render_kv({"alpha": 1, "b": "two"}, title="K")
        assert "alpha" in out and "two" in out


class TestFig1Driver:
    def test_full_battery(self):
        from repro.experiments.fig1 import run_fig1_experiment

        res = run_fig1_experiment(max_delay=2, with_copies=False)
        assert res.unreachable_at_sync
        assert res.unreachable_longer_messages
        assert not res.analytic_feasible
        assert res.min_delay_to_deadlock == 1
        assert res.replay_deadlocked
        assert not res.flow_model_certifies
        rows = res.summary_rows()
        assert all(r["paper"] == r["measured"] for r in rows if r["check"] != "deadlock reachable with extra copies")


class TestFig2Driver:
    def test_small_sweep(self):
        res = run_fig2_experiment(approach_range=(1, 2), hold_range=(2, 3))
        assert res.default_deadlocks
        assert res.all_sweep_deadlock
        assert res.replay_deadlocked
        assert res.matches_paper


class TestTheorem2Driver:
    def test_all_overlap_configs_deadlock(self):
        res = run_theorem2_experiment()
        assert res.all_deadlock
        assert len(res.overlap_rows) == 4

    def test_corollary_baseline_rows(self):
        rows = run_corollary_baselines()
        assert rows[0]["classification"] == "deadlock"
        names = [r["algorithm"] for r in rows]
        assert any("DOR" in n for n in names)
        assert any("torus" in n for n in names)


class TestTheorem3Driver:
    def test_quick(self):
        res = run_theorem3_experiment(
            num_messages=2, approach_range=(1, 2), hold_range=(2, 3), limit=10
        )
        assert res.theorem_holds
        assert res.fig1_certified_nonminimal


class TestGeneralizationDriver:
    def test_m1_only(self):
        res = run_generalization_experiment(params=(1,))
        assert res.profile == {1: 1}
        assert res.deadlock_free_under_synchrony
        assert res.rows()[0]["m"] == 1


@pytest.fixture
def task_log(monkeypatch):
    """Record the tasks E1, E4 and V1 run; ``cache_dir`` in the returned
    dict, when set, memoises them."""
    log: dict = {"tasks": [], "cache_dir": None}

    def logged(tasks, **kwargs):
        log["tasks"].extend(tasks)
        return grid.run_grid(tasks, **kwargs, cache_dir=log["cache_dir"])

    for module in (fig1, theorem2, traffic):
        monkeypatch.setattr(module, "run_grid", logged)
    return log


class TestBatteryGrids:
    """Every paper command runs ``paper-battery``'s kinds and scenarios;
    E2/E3/E5/E6 take their grids from the battery's own builders."""

    def test_experiment_grids_share_the_battery_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        fig2 = run_grid(fig2_grid_tasks(), cache_dir=cache_dir, spec_name="fig2")
        panels = run_fig3_experiment(cache_dir=cache_dir)
        assert main(["fig3", "--sweep", "20", "--cache-dir", str(cache_dir)]) == 0
        assert main(["theorem3", "--limit", "40", "--cache-dir", str(cache_dir)]) == 0
        assert main(["gen", "--max-m", "3", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert len(fig2) == 48 and len(panels) == 6

        cached = {p.stem for p in cache_dir.rglob("*.json")}
        battery = build_spec("paper-battery")
        assert cached <= {t.task_hash for t in battery}
        assert len(cached) == 48 + 6 + 20 + 40 + 3

        # the battery's own run of those tasks is served from the same cache
        shared = [t for t in battery if t.task_hash in cached]
        _, summary = run_campaign(shared, cache=ResultCache(cache_dir))
        assert summary.from_cache == summary.total == len(cached)

    def test_default_commands_run_the_battery_tasks(self, tmp_path, capsys, task_log):
        """At default arguments, E1, E4 and V1 run battery tasks only (bar
        ``overlap8x4``), and a cache they warm serves the battery."""
        cache_dir = tmp_path / "cache"
        task_log["cache_dir"] = cache_dir
        for cmd in ("fig1", "theorem2", "traffic"):
            assert main([cmd]) == 0, cmd
        capsys.readouterr()

        run = {t.task_hash for t in task_log["tasks"]}
        assert len(run) == len(task_log["tasks"]) == 5 + 8 + 7
        battery = build_spec("paper-battery")
        overlap8x4 = CampaignTask.make(
            "reachability", "theorem2-overlap", ring_n=8, entries=(0, 2, 4, 6),
            run_lens=(4, 4, 4, 4),
        )
        assert run - {t.task_hash for t in battery} == {overlap8x4.task_hash}
        assert {t.kind for t in task_log["tasks"]} == {
            "reachability", "min_delay", "cross_check", "classify", "cdg", "simulate"
        }

        shared = [t for t in battery if t.task_hash in run]
        _, summary = run_campaign(shared, cache=ResultCache(cache_dir))
        assert summary.from_cache == summary.total == len(run) - 1

    def test_fig1_without_a_delay_budget_replays_nothing(self, capsys, task_log):
        """``fig1 --max-delay 0`` finds no Δ*, so no witness is replayed
        and the run does not match the paper."""
        assert main(["fig1", "--max-delay", "0"]) == 1
        out = capsys.readouterr().out
        assert "min delay to deadlock: None" in out
        assert "matches paper: False" in out
        assert "cross_check" not in {t.kind for t in task_log["tasks"]}

    def test_run_grid_answers_each_task_once_and_refuses_an_empty_grid(
        self, tmp_path
    ):
        with pytest.raises(GridTaskFailed, match="empty"):
            run_grid([], spec_name="empty")
        task = CampaignTask.make("reachability", "fig2-pair", d1=3, d2=1, hold=3)
        assert [r.task_hash for r in run_grid([task, task])] == [task.task_hash] * 2
        # a failed task is not re-run: grid tasks are deterministic
        flaky = CampaignTask.make("reachability", "debug-flaky", token_dir=str(tmp_path))
        with pytest.raises(GridTaskFailed, match="flaky failure 1/1"):
            run_grid([flaky], spec_name="flaky")
        assert len(list(tmp_path.iterdir())) == 1

    def test_theorem3_battery_family_has_no_minimal_configuration(self):
        """E5 is vacuous on the battery's 40: no minimal routing occurs, so
        "minimal and unreachable never co-occur" holds trivially there."""
        summary = run_theorem3_experiment(limit=40).summary()
        assert summary["minimal"] == 0
        assert summary["minimal_and_unreachable"] == 0
        assert summary["unreachable"] == 0


class TestTrafficDriver:
    def test_light_load_points(self):
        pts = run_traffic_experiment(rates=(0.02,), mesh_dims=(4, 4), cycles=60)
        assert len(pts) == 3
        for p in pts:
            assert not p.deadlocked
            assert p.delivered == p.total

    def test_table_rounds_the_simulator_figures_once(self):
        """West-first 8x8 at 0.04 has mean latency 16.3488: rounding the
        task's 2-decimal 16.35 again would print 16.4."""
        (point,) = [
            p for p in run_traffic_experiment(rates=(0.04,))
            if p.algorithm.startswith("west-first")
        ]
        assert point.row()["mean latency"] == 16.3

    def test_ring_probe_deadlocks(self):
        probe = run_ring_deadlock_probe(n=6, rate=0.2, cycles=100, length=8)
        assert probe.deadlocked
