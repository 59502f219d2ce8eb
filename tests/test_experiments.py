"""Experiment driver integration tests (fast configurations)."""

from repro.campaign.cache import ResultCache
from repro.campaign.runner import run_campaign
from repro.campaign.specs import build_spec, fig2_grid_tasks
from repro.cli import main
from repro.experiments import render_kv, render_table
from repro.experiments.fig2 import run_fig2_experiment
from repro.experiments.fig3 import run_condition_sweep, run_fig3_experiment
from repro.experiments.generalization import run_generalization_experiment
from repro.experiments.grid import run_grid
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


class TestBatteryGrids:
    """The E2/E3/E5/E6 grids are ``paper-battery``'s own tasks."""

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

    def test_ring_probe_deadlocks(self):
        probe = run_ring_deadlock_probe(n=6, rate=0.2, cycles=100, length=8)
        assert probe.deadlocked
