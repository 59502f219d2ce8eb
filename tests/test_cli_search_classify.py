"""CLI: the search / classify / telemetry subcommands."""

import json

import pytest

from repro.cli import main


class TestSearchCommand:
    def test_fig1_synchronous_is_unreachable(self, capsys):
        assert main(["search", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "verdict         : unreachable" in out
        assert "states explored : 2336" in out

    def test_budget_one_deadlocks_with_witness(self, capsys):
        assert main(["search", "fig1", "--budget", "1", "--witness"]) == 0
        out = capsys.readouterr().out
        assert "verdict         : deadlock" in out
        assert "deadlock witness over" in out

    def test_certificate_fast_path_surfaced_in_text(self, capsys):
        # M1+M3 alone have an acyclic dependency graph: CRT001 certifies
        # deadlock freedom without exploring a single state
        argv = ["search", "fig1", "--params", '{"subset": ["M1", "M3"]}',
                "--budget", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "decided by static certificate CRT001 (search skipped)" in out
        assert "states explored : 0" in out

    def test_certificate_fast_path_in_json(self, capsys):
        argv = ["search", "fig1", "--params", '{"subset": ["M1", "M3"]}',
                "--budget", "1", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"] == "CRT001"
        assert payload["states_explored"] == 0
        assert payload["deadlock_reachable"] is False
        assert payload["verdict"] == "unreachable"

    def test_json_payload_fields(self, capsys):
        assert main(["search", "fig1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "unreachable"
        assert payload["states_explored"] == 2336
        assert payload["witness_cycles"] is None

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["search", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_params_exit_2(self, capsys):
        assert main(["search", "fig1", "--params", "{notjson"]) == 2
        assert "not valid JSON" in capsys.readouterr().err
        assert main(["search", "fig1", "--params", "[1]"]) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["vector", "auto"])
    def test_retired_engine_names_exit_2(self, name, capsys, monkeypatch):
        # the flag is rejected by argparse, naming the valid choices
        with pytest.raises(SystemExit) as exc:
            main(["search", "fig1", "--search-engine", name])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        # the environment switch is outside input too: a named error, not
        # a traceback from deep inside the search
        monkeypatch.setenv("REPRO_SEARCH_ENGINE", name)
        assert main(["search", "fig1"]) == 2
        err = capsys.readouterr().err
        assert f"REPRO_SEARCH_ENGINE={name!r}" in err
        assert "kernel, fast, reference" in err


class TestClassifyCommand:
    def test_cycle_mode_certificate(self, capsys):
        assert main(["classify", "ring-cycle", "--params", '{"n": 4}']) == 0
        out = capsys.readouterr().out
        assert "cycle classification" in out
        assert "verdict" in out and "deadlock" in out
        assert "decided by static certificate CRT005 (search skipped)" in out
        assert "scenarios tested : 0" in out

    def test_cycle_mode_json(self, capsys):
        argv = ["classify", "ring-cycle", "--params", '{"n": 4}', "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "cycle"
        assert payload["certificate"] == "CRT005"
        assert payload["scenarios_tested"] == 0
        assert payload["deadlock_reachable"] is True

    def test_configuration_mode(self, capsys):
        assert main(["classify", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "configuration classification" in out
        assert "verdict         : unreachable" in out

    def test_configuration_mode_json(self, capsys):
        assert main(["classify", "fig1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "configuration"
        assert payload["deadlock_reachable"] is False


class TestTelemetrySession:
    def test_search_telemetry_flag_writes_events(self, tmp_path, capsys):
        from repro.obs import validate_stream
        from repro.obs.report import read_events

        events = tmp_path / "events.jsonl"
        snap = tmp_path / "snap.json"
        argv = ["search", "fig1", "--telemetry", str(events),
                "--telemetry-snapshot", str(snap)]
        assert main(argv) == 0
        capsys.readouterr()
        stream, bad = read_events(events)
        assert bad == 0 and validate_stream(stream) == []
        kinds = [e["kind"] for e in stream]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        ends = [e for e in stream if e["kind"] == "span_end"]
        assert "search.deadlock" in {e["name"] for e in ends}
        search_end = [e for e in ends if e["name"] == "search.deadlock"][0]
        assert search_end["attrs"]["states_explored"] == 2336
        assert search_end["attrs"]["verdict"] == "deadlock-free"
        assert search_end["parent"] is not None  # nested under the CLI span
        snapshot = json.loads(snap.read_text())
        assert snapshot["counters"]["search.states_explored"] == 2336

    def test_session_resets_gate(self, tmp_path, capsys):
        import repro.obs as obs

        assert main(["search", "fig1", "--telemetry",
                     str(tmp_path / "e.jsonl")]) == 0
        capsys.readouterr()
        assert obs._active is None
        assert not obs.enabled()


class TestTelemetryReportCommand:
    def _events_file(self, tmp_path):
        from repro.obs import JsonlExporter, Telemetry

        path = tmp_path / "events.jsonl"
        tel = Telemetry()
        with JsonlExporter(path) as exporter:
            tel.add_sink(exporter)
            with tel.span("work"):
                tel.incr("n", 2)
        return path

    def test_report_text_and_json(self, tmp_path, capsys):
        path = self._events_file(tmp_path)
        assert main(["telemetry", "report", str(path)]) == 0
        assert "telemetry report" in capsys.readouterr().out
        assert main(["telemetry", "report", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"] == {"n": 2}

    def test_strict_fails_on_corrupt_stream(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 1, "kind": "zap"}\nnot json\n')
        assert main(["telemetry", "report", str(path)]) == 0
        capsys.readouterr()
        assert main(["telemetry", "report", str(path), "--strict"]) == 1

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["telemetry", "report", str(tmp_path / "nope.jsonl")]) == 2
        assert "telemetry report" in capsys.readouterr().err


@pytest.fixture(autouse=True)
def _reset_obs():
    import repro.obs as obs

    yield
    obs.reset()
