"""SARIF 2.1.0 export: structure, rule metadata, and the --sarif flag."""

import json

import pytest

from repro.campaign.scenarios import build_scenario
from repro.cli import main
from repro.lint import lint_algorithm, lint_messages, sarif_log
from repro.lint.sarif import LEVELS, SARIF_SCHEMA, SARIF_VERSION, _rule_entry


@pytest.fixture(scope="module")
def ring_report():
    return lint_algorithm(build_scenario("ring-cycle", {"n": 4}).algorithm).to_json()


@pytest.fixture(scope="module")
def fig1_report():
    return lint_algorithm(build_scenario("fig1", {}).algorithm).to_json()


class TestSarifLog:
    def test_top_level_structure(self, ring_report):
        log = sarif_log([ring_report])
        assert log["version"] == SARIF_VERSION == "2.1.0"
        assert log["$schema"] == SARIF_SCHEMA
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert run["results"]

    def test_one_result_per_diagnostic(self, ring_report, fig1_report):
        reports = [ring_report, fig1_report]
        log = sarif_log(reports)
        (run,) = log["runs"]
        assert len(run["results"]) == sum(
            len(r["diagnostics"]) for r in reports
        )
        targets = {res["properties"]["target"] for res in run["results"]}
        assert targets == {ring_report["target"], fig1_report["target"]}

    def test_rules_cover_every_emitted_code(self, ring_report, fig1_report):
        log = sarif_log([ring_report, fig1_report])
        (run,) = log["runs"]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        result_ids = {r["ruleId"] for r in run["results"]}
        assert result_ids == rule_ids

    def test_levels_follow_severity(self, fig1_report):
        log = sarif_log([fig1_report])
        (run,) = log["runs"]
        by_code = {d["code"]: d for d in fig1_report["diagnostics"]}
        for res in run["results"]:
            assert res["level"] == LEVELS[by_code[res["ruleId"]]["severity"]]

    def test_certificate_rule_metadata(self, ring_report):
        log = sarif_log([ring_report])
        (run,) = log["runs"]
        rules = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
        crt = rules["CRT005"]
        assert crt["helpUri"] == "docs/LINT.md#crt005"
        assert crt["properties"]["certificate"] is True
        assert crt["defaultConfiguration"]["level"] == "note"
        assert "Theorem 2" in crt["properties"]["paperRef"]

    def test_crt008_rule_entry_registered(self):
        entry = _rule_entry("CRT008", "docs/LINT.md")
        assert entry["helpUri"] == "docs/LINT.md#crt008"
        assert entry["properties"]["certificate"] is True
        assert "Duato" in entry["properties"]["paperRef"]

    def test_spec_level_code_synthesized(self):
        bundle = build_scenario("fig1", {})
        report = lint_messages(bundle.messages).to_json()
        log = sarif_log([report])
        (run,) = log["runs"]
        rules = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
        assert "SPC001" in rules or run["results"] == []

    def test_evidence_is_json_lowered(self, ring_report):
        log = sarif_log([ring_report])
        json.dumps(log)  # the report JSON holds no Channel/CheckerMessage objects


class TestSarifCli:
    def test_sarif_flag_writes_log(self, tmp_path, capsys):
        out = tmp_path / "lint.sarif"
        assert (
            main(
                ["lint", "ring-cycle", "--params", '{"n": 4}', "--sarif", str(out)]
            )
            == 0
        )
        log = json.loads(out.read_text())
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        assert any(r["ruleId"] == "CRT005" for r in run["results"])
        assert str(out) in capsys.readouterr().err

    def test_sarif_with_all_targets(self, tmp_path, capsys):
        out = tmp_path / "battery.sarif"
        assert (
            main(["lint", "--all", "--spec", "quick", "--sarif", str(out)]) == 0
        )
        log = json.loads(out.read_text())
        (run,) = log["runs"]
        targets = {r["properties"]["target"] for r in run["results"]}
        assert len(targets) >= 3
        # exit-code criterion matches the SARIF error count
        assert all(r["level"] != "error" for r in run["results"])
