"""``python -m repro lint`` and the campaign ``lint`` task kind."""

import json

import pytest

from repro.campaign import build_spec
from repro.campaign.tasks import SCHEMA_VERSION, CampaignTask, execute_task
from repro.cli import main


class TestLintCli:
    def test_single_scenario_text(self, capsys):
        assert main(["lint", "ring-cycle", "--params", '{"n": 4}']) == 0
        out = capsys.readouterr().out
        assert "verdict=reachable_deadlock" in out
        assert "CRT005" in out

    def test_single_scenario_json(self, capsys):
        assert main(["lint", "fig1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "undecided"
        assert payload["certificate"] is None
        codes = {d["code"] for d in payload["diagnostics"]}
        assert {"PRP001", "PRP002", "PRP004", "CDG001"} <= codes
        # evidence is fully lowered to JSON (round-trips by construction)
        assert all(isinstance(d["evidence"], dict) for d in payload["diagnostics"])

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["lint", "not-a-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_params_exit_2(self, capsys):
        assert main(["lint", "fig1", "--params", "{oops"]) == 2
        assert "not valid JSON" in capsys.readouterr().err
        assert main(["lint", "fig1", "--params", "[1]"]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_requires_exactly_one_target_form(self, capsys):
        assert main(["lint"]) == 2
        assert main(["lint", "fig1", "--all"]) == 2

    def test_build_failure_exits_2(self, capsys):
        # gen requires the m parameter; the build error is reported, not raised
        assert main(["lint", "gen"]) == 2
        assert "build failed" in capsys.readouterr().err

    def test_all_quick_spec_clean(self, capsys):
        assert main(["lint", "--all", "--spec", "quick"]) == 0
        out = capsys.readouterr().out
        assert "targets linted" in out
        assert "0 error-severity finding(s)" in out

    def test_all_json_is_a_list(self, capsys):
        assert main(["lint", "--all", "--spec", "quick", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) >= 3
        verdicts = {p["verdict"] for p in payload}
        assert "reachable_deadlock" in verdicts  # ring-cycle is in quick


class TestCampaignLintKind:
    def test_schema_version_bumped_for_lint(self):
        # v3: static-certificate pre-pass + the lint task kind change payloads
        # v4: TaskResult grew the per-task telemetry summary field
        # v5: adaptive/cross_check task kinds; certificate-built witnesses can
        #     legitimately report states_explored == 0
        # v6: configuration-mode classify results carry their certificate
        assert SCHEMA_VERSION == 6

    def test_lint_task_executes(self):
        task = CampaignTask.make(
            "lint", "ring-cycle", n=4, expect="reachable_deadlock"
        )
        res = execute_task(task)
        assert res.ok and res.verdict == "reachable_deadlock"
        assert res.expect_matches is True
        assert res.detail["certificate"] == "CRT005"
        assert res.detail["errors"] == 0
        assert "CRT005" in res.detail["diagnostics"]
        assert res.detail["rules_run"] >= 10

    def test_lint_task_message_level(self):
        # fig1 exposes an algorithm, so force message-level via a scenario
        # that only has messages -- none exist, so check the algorithm branch
        # is preferred and the verdict is the static one
        task = CampaignTask.make("lint", "fig1", expect="undecided")
        res = execute_task(task)
        assert res.ok and res.verdict == "undecided"
        assert res.detail["certificate"] is None

    def test_lint_rejects_bundle_without_lintable_target(self):
        from repro.campaign.scenarios import ScenarioBundle
        from repro.campaign.tasks import _run_lint

        with pytest.raises(ValueError, match="neither an algorithm nor messages"):
            _run_lint(ScenarioBundle(), {})

    def test_lint_task_message_only_scenario(self):
        # debug-sleep exposes just a single one-channel message: the spec
        # dependency graph is trivially acyclic
        res = execute_task(CampaignTask.make("lint", "debug-sleep", seconds=0))
        assert res.ok and res.verdict == "deadlock_free"
        assert res.detail["certificate"] == "CRT001"

    def test_specs_include_lint_tasks(self):
        quick = build_spec("quick")
        assert any(t.kind == "lint" for t in quick)
        battery = build_spec("paper-battery")
        lint_tasks = [t for t in battery if t.kind == "lint"]
        assert len(lint_tasks) >= 9
        # the acyclic fig1 sub-scenario rides along as a zero-state search
        assert any(
            t.kind == "reachability" and t.scenario == "fig1" and "subset" in t.params_dict()
            for t in battery
        )

    @pytest.mark.parametrize(
        "task",
        [t for t in build_spec("paper-battery") if t.kind == "lint"],
        ids=lambda t: t.name,
    )
    def test_battery_lint_tasks_meet_expectations(self, task):
        res = execute_task(task)
        assert res.ok, res.error
        assert res.expect_matches is True, (res.verdict, task.expect)
