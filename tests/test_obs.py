"""Telemetry layer: gate, spans/counters, exporters, schema, event reports."""

import json
import os

import pytest

import repro.obs as obs
from repro.obs import (
    SNAPSHOT_SCHEMA,
    JsonlExporter,
    Telemetry,
    snapshot_report,
    validate_event,
    validate_stream,
    write_snapshot,
)
from repro.obs.report import EventStreamError, read_events, render, summarize


@pytest.fixture(autouse=True)
def _clean_gate(monkeypatch):
    """Every test starts with telemetry off and no process collector."""
    monkeypatch.delenv(obs.ENV_VAR, raising=False)
    obs.reset()
    yield
    obs.reset()


class ListSink:
    def __init__(self):
        self.events = []

    def __call__(self, event):
        self.events.append(event)


class TestDisabledGate:
    def test_disabled_get_returns_none_and_allocates_nothing(self):
        assert obs.get() is None
        assert obs.enabled() is False
        # no collector (and therefore no exporter/sink) was constructed
        assert obs._active is None

    def test_disabled_instrumented_run_allocates_no_collector(self):
        # drive every instrumented subsystem end to end with telemetry
        # off -- the simulator, a kernel search, a certificate-witness
        # search, both classifiers, the linter and a campaign, each of
        # which counts through the gate -- and the gate must stay cold
        from repro.analysis.classify import classify_configuration, classify_cycle
        from repro.analysis.reachability import search_deadlock
        from repro.analysis.state import CheckerMessage, SystemSpec
        from repro.campaign import RunnerConfig, build_spec, run_campaign
        from repro.campaign.scenarios import build_scenario
        from repro.lint import lint_algorithm
        from repro.routing import clockwise_ring
        from repro.sim import MessageSpec, Simulator
        from repro.topology import ring

        net = ring(4)
        res = Simulator(net, clockwise_ring(net, 4), [MessageSpec(0, 0, 2, length=2)]).run()
        assert res.completed
        fig1 = build_scenario("fig1", {})
        searched = search_deadlock(
            SystemSpec.uniform(fig1.messages), certificates="off",
            find_witness=False,
        )
        assert searched.states_explored > 0
        pair = SystemSpec.uniform(
            [
                CheckerMessage(path=(0, 1, 2), length=2, tag="a"),
                CheckerMessage(path=(2, 3, 0), length=2, tag="b"),
            ]
        )
        witnessed = search_deadlock(pair, find_witness=True, certificates="on")
        assert witnessed.witness is not None and witnessed.states_explored == 0
        alg, cycle, pairs = build_scenario("ring-cycle", {"n": 4}).cycle_classify
        assert classify_cycle(alg, cycle, pairs=pairs).deadlock_reachable
        reachable, _ = classify_configuration(fig1.messages)
        assert not reachable
        assert lint_algorithm(alg).verdict
        _, summary = run_campaign(
            build_spec("quick", limit=3), config=RunnerConfig()
        )
        assert summary.all_expected
        assert obs._active is None

    def test_off_values_disable(self, monkeypatch):
        for value in ("off", "0", "false", "", "no"):
            monkeypatch.setenv(obs.ENV_VAR, value)
            obs.reset()
            assert obs.get() is None

    def test_enabled_get_is_a_lazy_singleton(self, monkeypatch):
        monkeypatch.setenv(obs.ENV_VAR, "on")
        tel = obs.get()
        assert isinstance(tel, Telemetry)
        assert obs.get() is tel

    def test_scope_restores_previous_collector(self):
        tel = Telemetry()
        with obs.scope(tel):
            assert obs.get() is tel
        assert obs._active is None


class TestSpanAndSession:
    def test_off_span_is_one_inert_object_and_allocates_nothing(self):
        with obs.span("a", x=1) as a:
            a.set(y=2)
            a.incr("n")
            a.observe("h", 1.0)
            a.event("e")
            a.point_span("p", 0.1)
            with obs.span("b") as b:
                pass
        assert a is b is obs.span("c") is obs.INERT_SPAN
        assert not a.live
        assert obs._active is None

    def test_session_restores_everything_when_its_body_raises(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(obs.TRACE_ENV, "outer-carrier")
        prev = Telemetry()
        exporter = JsonlExporter(tmp_path / "ev.jsonl")
        with obs.scope(prev):
            with pytest.raises(RuntimeError, match="boom"):
                with obs.session(exporter, run_id="r") as tel:
                    assert obs.enabled() and obs.get() is tel
                    with obs.span("inside", k=1) as sp:
                        assert sp.live
                        sp.incr("n")
                        obs.inject_env(sp.context())
                    raise RuntimeError("boom")
            assert obs._active is prev
        assert obs.ENV_VAR not in os.environ
        assert os.environ[obs.TRACE_ENV] == "outer-carrier"
        assert exporter._fh.closed
        events, _ = read_events(tmp_path / "ev.jsonl")
        kinds = [e["kind"] for e in events]
        assert kinds == ["span_start", "counter", "span_end"]
        assert prev.counters == {} and tel.counters == {"n": 1}


class TestTelemetryCore:
    def test_span_nesting_and_current_span(self):
        tel = Telemetry()
        assert tel.current_span() is None
        with tel.span("outer") as outer:
            assert tel.current_span() is outer
            with tel.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert tel.current_span() is inner
            assert tel.current_span() is outer
        assert tel.current_span() is None
        assert tel.spans["outer"].count == 1
        assert tel.spans["inner"].count == 1

    def test_counter_registry_equals_event_sum(self):
        tel = Telemetry()
        sink = ListSink()
        tel.add_sink(sink)
        tel.incr("x")
        tel.incr("x", 4)
        tel.incr("y", 2.5)
        assert tel.counters == {"x": 5, "y": 2.5}
        replayed = {}
        for e in sink.events:
            assert e["kind"] == "counter"
            replayed[e["name"]] = replayed.get(e["name"], 0) + e["value"]
        assert replayed == tel.counters

    def test_gauge_last_write_wins(self):
        tel = Telemetry()
        tel.gauge("depth", 3)
        tel.gauge("depth", 7)
        assert tel.gauges == {"depth": 7}

    def test_reserved_words_usable_as_attrs(self):
        # name/value/dur_s are positional-only parameters, so the same
        # words stay available as attribute keys (campaign tasks attach
        # their own ``name``)
        tel = Telemetry()
        sink = ListSink()
        tel.add_sink(sink)
        tel.point_span("campaign.task", 0.25, name="fig1():reachability", value=1)
        tel.incr("hits", 1, name="k")
        tel.event("e", dur_s=9)
        start, end = sink.events[0], sink.events[1]
        assert start["kind"] == "span_start" and end["kind"] == "span_end"
        assert end["attrs"]["name"] == "fig1():reachability"
        assert end["dur_s"] == 0.25
        assert tel.spans["campaign.task"].count == 1

    def test_span_attrs_merged_on_span_end(self):
        tel = Telemetry()
        sink = ListSink()
        tel.add_sink(sink)
        with tel.span("s", static="a") as sp:
            sp.set(verdict="ok")
        end = [e for e in sink.events if e["kind"] == "span_end"][0]
        assert end["attrs"] == {"static": "a", "verdict": "ok"}
        assert end["dur_s"] >= 0

    def test_mark_since_deltas(self):
        tel = Telemetry()
        tel.incr("a", 10)
        with tel.span("old"):
            pass
        mark = tel.mark()
        tel.incr("a", 3)
        tel.incr("b")
        with tel.span("new"):
            pass
        delta = tel.since(mark)
        assert delta["counters"] == {"a": 3, "b": 1}
        assert set(delta["spans"]) == {"new"}
        assert delta["spans"]["new"]["count"] == 1

    def test_snapshot_shape(self):
        tel = Telemetry()
        tel.incr("c", 2)
        tel.gauge("g", 1.5)
        with tel.span("s"):
            pass
        snap = tel.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["spans"]["s"]["count"] == 1
        assert snap["spans"]["s"]["wall_s"] >= 0


class TestSchema:
    def _scripted_session(self):
        tel = Telemetry()
        sink = ListSink()
        tel.add_sink(sink)
        tel.run_start("repro.test", argv=["x"])
        with tel.span("outer", k=1):
            tel.incr("n", 2)
            tel.gauge("g", 0.5)
            tel.event("fastpath", code="CRT001")
            tel.observe("latency_s", 0.25)
            tel.point_span("campaign.task", 0.1, name="t")
        tel.run_end("repro.test")
        return sink.events

    def test_every_emitted_event_is_schema_valid(self):
        events = self._scripted_session()
        assert {e["kind"] for e in events} == set(obs.EVENT_KINDS)
        assert validate_stream(events) == []

    def test_violations_detected(self):
        assert any("kind" in v for v in validate_event({"v": 1}))
        bad_kind = {"v": 1, "t": 0.0, "kind": "zap", "name": "x", "span": None,
                    "parent": None, "attrs": {}}
        assert validate_event(bad_kind)
        neg_dur = dict(bad_kind, kind="span_end", span=1, dur_s=-1.0)
        assert validate_event(neg_dur)
        bool_value = dict(bad_kind, kind="counter", value=True)
        assert validate_event(bool_value)
        ok = dict(bad_kind, kind="counter", value=2)
        assert validate_event(ok) == []


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        tel = Telemetry()
        with JsonlExporter(path) as exporter:
            tel.add_sink(exporter)
            with tel.span("s"):
                tel.incr("c", 3)
        events, bad = read_events(path)
        assert bad == 0
        assert [e["kind"] for e in events] == ["span_start", "counter", "span_end"]
        assert validate_stream(events) == []

    def test_snapshot_report_and_file(self, tmp_path):
        tel = Telemetry(run_id="r1")
        tel.incr("c")
        report = snapshot_report(tel)
        assert report["schema"] == SNAPSHOT_SCHEMA
        assert report["run_id"] == "r1"
        assert report["counters"] == {"c": 1}
        out = write_snapshot(tel, tmp_path / "snap.json")
        on_disk = json.loads(out.read_text())
        assert on_disk["schema"] == SNAPSHOT_SCHEMA
        assert on_disk["counters"] == {"c": 1}


class TestSummarize:
    def test_report_rebuilds_registry_from_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        tel = Telemetry()
        with JsonlExporter(path) as exporter:
            tel.add_sink(exporter)
            tel.run_start("repro.test")
            with tel.span("work"):
                tel.incr("n", 2)
                tel.incr("n", 3)
            tel.point_span("campaign.task", 1.5, name="t1", ok=True)
            tel.run_end("repro.test")
        report = summarize(path)
        assert report.schema_valid
        assert report.counters == {"n": 5}
        assert report.spans["work"].count == 1
        assert report.run_names == ["repro.test"]
        assert report.task_wall_times() == {"t1": 1.5}
        assert report.cache_hit_rate() is None  # no campaign cache counters
        text = render(report)
        assert "telemetry report" in text and "campaign.task" in text
        as_json = report.to_json()
        assert as_json["counters"] == {"n": 5}

    def test_unparseable_lines_counted(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"v": 1, "t": 0.0, "kind": "counter", "name": "c", "span": null,'
            ' "parent": null, "attrs": {}, "value": 1}\n'
            "not json\n[1,2]\n"
        )
        report = summarize(path)
        assert report.unparseable_lines == 2
        assert not report.schema_valid

    def test_no_parseable_events_is_a_named_defect(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("not json\n[1,2]\n")
        with pytest.raises(EventStreamError, match="no parseable events"):
            summarize(path)

    def test_certificate_activity_surfaced(self, tmp_path):
        """The certificate-layer counters get their own report line."""
        path = tmp_path / "events.jsonl"
        tel = Telemetry()
        with JsonlExporter(path) as exporter:
            tel.add_sink(exporter)
            tel.incr("lint.certificate.witness_emitted", 2)
            tel.incr("lint.certificate.replay.pass", 2)
            tel.incr("lint.certificate.adaptive.decided", 1)
            tel.incr("search.certificate_short_circuits", 2)
            tel.incr("unrelated", 7)
        report = summarize(path)
        assert report.certificate_activity() == {
            "witness_emitted": 2,
            "replay.pass": 2,
            "adaptive.decided": 1,
        }
        text = render(report)
        assert "certificate activity" in text
        assert "witness_emitted=2" in text
        assert report.to_json()["certificate_activity"] == {
            "adaptive.decided": 1,
            "replay.pass": 2,
            "witness_emitted": 2,
        }

    def test_certificate_counters_mirror_into_telemetry(self, tmp_path):
        """End to end: a certificate-decided search under a live collector
        emits both the search fast-path counter and the lint mirror."""
        from repro import obs
        from repro.analysis.reachability import search_deadlock
        from repro.analysis.state import CheckerMessage, SystemSpec

        spec = SystemSpec.uniform(
            [
                CheckerMessage(path=(0, 1, 2), length=2, tag="a"),
                CheckerMessage(path=(2, 3, 0), length=2, tag="b"),
            ]
        )
        path = tmp_path / "events.jsonl"
        tel = Telemetry()
        with JsonlExporter(path) as exporter:
            tel.add_sink(exporter)
            with obs.scope(tel):
                res = search_deadlock(spec, find_witness=True, certificates="on")
        assert res.states_explored == 0 and res.witness is not None
        report = summarize(path)
        assert report.counters["search.certificate_short_circuits"] == 1
        assert report.certificate_activity()["witness_emitted"] == 1


class TestCampaignIntegration:
    """The acceptance bar: events alone reproduce the ledger's numbers."""

    def _run(self, tmp_path, events_name):
        from repro.cli import main

        events = tmp_path / events_name
        rc = main([
            "campaign", "run", "--spec", "quick", "--limit", "4",
            "--jobs", "1", "--cache-dir", str(tmp_path / "cache"),
            "--no-progress", "--telemetry", str(events),
            "--telemetry-snapshot", str(tmp_path / "snap.json"),
        ])
        assert rc == 0
        return events

    def test_events_reproduce_ledger_walls_and_hit_rate(self, tmp_path, capsys):
        from repro.campaign import read_ledger

        cold = self._run(tmp_path, "cold.jsonl")
        warm = self._run(tmp_path, "warm.jsonl")
        capsys.readouterr()

        results, summaries = read_ledger(tmp_path / "cache" / "ledgers" / "quick.jsonl")
        for events, summary, results_slice in (
            (cold, summaries[0], results[:4]),
            (warm, summaries[1], results[4:]),
        ):
            report = summarize(events)
            assert report.schema_valid
            # every task got a span, with the ledger's exact wall time
            assert len(report.tasks) == len(results_slice) == 4
            walls = report.task_wall_times()
            for res in results_slice:
                assert walls[res.name] == pytest.approx(res.wall_time, abs=1e-5)
            # cache hit rate re-derived from counter events alone
            assert report.cache_hit_rate() == pytest.approx(
                summary["cache"]["hit_rate"], abs=1e-4
            )
        assert summarize(warm).cache_hit_rate() == 1.0

    def test_task_results_carry_telemetry_deltas(self, tmp_path, capsys):
        from repro.campaign import read_ledger

        self._run(tmp_path, "events.jsonl")
        capsys.readouterr()
        results, _ = read_ledger(tmp_path / "cache" / "ledgers" / "quick.jsonl")
        assert all(res.telemetry is not None for res in results)
        kinds = {res.kind for res in results}
        assert any(
            "search.states_explored" in res.telemetry["counters"]
            for res in results
            if res.kind == "reachability"
        ) or "reachability" not in kinds

    def test_campaign_status_rolls_up_task_telemetry(self, tmp_path, capsys):
        from repro.cli import main

        self._run(tmp_path, "events.jsonl")
        capsys.readouterr()
        assert main(["campaign", "status", "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "telemetry roll-up" in out
        assert "task executions with telemetry" in out
        assert "search.calls" in out

    def test_snapshot_written(self, tmp_path, capsys):
        self._run(tmp_path, "events.jsonl")
        capsys.readouterr()
        snap = json.loads((tmp_path / "snap.json").read_text())
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert snap["counters"]["campaign.tasks"] == 4


#: what ``campaign run --spec quick --jobs 1 --telemetry`` records into a
#: fresh cache: every counter (by name, with its value unless it times
#: something), span name and histogram name, each with its count.  One
#: stream, whichever route a subsystem counts by, must keep all of them.
QUICK_COUNTERS = {
    "campaign.cache.misses": 11,
    "campaign.tasks": 11,
    "classify.certificate_short_circuits": 1,
    "classify.configs": 1,
    "classify.cycles": 1,
    "classify.scenarios": 0,
    "kernelpath.cc.cache_hits": 1,
    "kernelpath.engine_cache.hits": 1,
    "kernelpath.engine_cache.misses": 11,
    "kernelpath.phase.kernel_s": None,
    "kernelpath.phase.witness_s": None,
    "kernelpath.searches.cc": 12,
    "lint.certificate.adaptive.decided": 1,
    "lint.certificate.replay.pass": 1,
    "lint.certificate.witness_emitted": 1,
    "lint.diagnostics": 2,
    "lint.runs": 1,
    "search.calls": 13,
    "search.certificate_short_circuits": 1,
    "search.states_explored": 40686,
    "sim.arbitration_conflicts": 0,
    "sim.cycles": 315,
    "sim.delivered": 86,
    "sim.flit_moves": 1210,
    "sim.runs": 2,
}
QUICK_SPANS = {
    "campaign.run": 1,
    "campaign.task": 11,
    "classify.config": 1,
    "classify.cycle": 1,
    "lint.algorithm": 1,
    "repro.campaign": 1,
    "search.deadlock": 13,
    "sim.run": 2,
}
QUICK_HISTOGRAMS = {"campaign.task.wall_s": 11, "search.states_per_sec": 12}


def test_quick_campaign_telemetry_names_pinned(tmp_path):
    """A serial quick campaign in a fresh process emits exactly the pinned
    counters, spans and histograms (needs the compiled kernel)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    from repro.analysis.kernelpath import resolve_backend

    if resolve_backend() is None:
        pytest.skip("no working C compiler")
    events = tmp_path / "events.jsonl"
    env = {k: v for k, v in os.environ.items() if k != obs.ENV_VAR}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    subprocess.run(
        [sys.executable, "-m", "repro", "campaign", "run", "--spec", "quick",
         "--jobs", "1", "--cache-dir", str(tmp_path / "cache"), "--no-progress",
         "--telemetry", str(events)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
        check=True,
    )
    report = summarize(events)
    assert report.schema_valid
    counters = {
        k: None if k.endswith("_s") else v for k, v in report.counters.items()
    }
    if "kernelpath.cc.compiles" in counters:  # the library was not cached yet
        counters["kernelpath.cc.cache_hits"] = counters.pop("kernelpath.cc.compiles")
    assert counters == QUICK_COUNTERS
    assert {k: s.count for k, s in report.spans.items()} == QUICK_SPANS
    assert {k: h.count for k, h in report.histograms.items()} == QUICK_HISTOGRAMS
