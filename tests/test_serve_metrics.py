"""Serve observability: /metrics, trace propagation end to end, /v1/events
hardening, and the zero-cost-when-disabled engine profiling gate.

The e2e test is the PR's acceptance bar: a traced `repro client` call
through serve -> batcher -> campaign worker leaves one connected span
tree under a single trace id, reassembled from the event stream alone.
"""

import threading
import time

import pytest

import repro.obs as obs
from repro.cli import main
from repro.obs import JsonlExporter, check_exposition
from repro.obs.prom import parse_samples
from repro.obs.report import build_span_tree, read_events, trace_ids
from repro.serve import ReproServer, ServeClient, ServeConfig, ServeError


@pytest.fixture()
def server(tmp_path):
    srv = ReproServer(
        ServeConfig(port=0, cache_backend=f"sqlite:{tmp_path / 'serve.db'}")
    )
    thread = threading.Thread(target=srv.run, daemon=True)
    thread.start()
    assert srv.wait_ready(15), "server did not come up"
    yield srv
    srv.shutdown()
    thread.join(10)


@pytest.fixture()
def client(server):
    return ServeClient(server.url, timeout=120)


# ----------------------------------------------------------------------
# GET /metrics
# ----------------------------------------------------------------------
class TestMetricsEndpoint:
    def test_scrape_passes_the_strict_checker(self, client):
        client.search("fig1").raise_for_status()
        text = client.metrics()
        assert check_exposition(text) == []

    def test_request_latency_histogram_counts_requests(self, client):
        for _ in range(3):
            client.search("fig1").raise_for_status()
        samples = parse_samples(client.metrics())
        buckets = {
            name: series
            for name, series in samples.items()
            if name == "repro_serve_request_latency_s_bucket"
        }
        assert buckets, "latency histogram missing from /metrics"
        series = buckets["repro_serve_request_latency_s_bucket"]
        inf = [v for labels, v in series.items() if 'le="+Inf"' in labels]
        count = samples["repro_serve_request_latency_s_count"]
        assert sum(inf) == sum(count.values()) >= 3

    def test_search_counter_appears(self, client):
        client.search("fig1").raise_for_status()
        samples = parse_samples(client.metrics())
        assert samples["repro_serve_requests_total"][""] >= 1

    def test_client_cli_metrics_subcommand(self, server, capsys):
        assert main(
            ["client", "--url", server.url, "metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert check_exposition(out) == []

    def test_metrics_503_when_telemetry_disabled(self, tmp_path):
        srv = ReproServer(
            ServeConfig(
                port=0,
                cache_backend=f"sqlite:{tmp_path / 'nt.db'}",
                telemetry=False,
            )
        )
        thread = threading.Thread(target=srv.run, daemon=True)
        thread.start()
        assert srv.wait_ready(15)
        try:
            with pytest.raises(ServeError) as exc:
                ServeClient(srv.url).metrics()
            assert exc.value.status == 503
        finally:
            srv.shutdown()
            thread.join(10)

    def test_metrics_listed_in_endpoint_directory(self, server):
        resp = ServeClient(server.url)._request("GET", "/")
        assert any(
            "/metrics" in e for e in resp.payload.get("endpoints", [])
        )


# ----------------------------------------------------------------------
# /v1/events hardening
# ----------------------------------------------------------------------
class TestEventsHardening:
    def test_negative_max_events_is_400(self, server):
        resp = ServeClient(server.url)._request(
            "GET", "/v1/events?max_events=-1"
        )
        assert resp.status == 400
        assert "max_events" in resp.payload.get("error", "")

    def test_negative_timeout_is_400(self, server):
        resp = ServeClient(server.url)._request(
            "GET", "/v1/events?timeout=-5"
        )
        assert resp.status == 400

    def test_nan_timeout_is_400(self, server):
        resp = ServeClient(server.url)._request(
            "GET", "/v1/events?timeout=nan"
        )
        assert resp.status == 400

    def test_subscriber_gauge_decrements_on_disconnect(self, server, client):
        """Gauge symmetry: every subscribe is matched by an unsubscribe,
        even when the client (not the server) ends the stream."""
        tel = obs.get()
        assert tel is not None
        client.events(max_events=1, timeout=2.0)  # generates >= 1 event
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if tel.gauges.get("serve.events.subscribers") == 0:
                break
            time.sleep(0.05)
        assert tel.gauges.get("serve.events.subscribers") == 0


# ----------------------------------------------------------------------
# end-to-end trace propagation (the acceptance criterion)
# ----------------------------------------------------------------------
class TestTracePropagation:
    def test_client_serve_campaign_share_one_rooted_trace(
        self, server, client, tmp_path
    ):
        tel = obs.get()
        assert tel is not None, "serve installs the process collector"
        events_path = tmp_path / "events.jsonl"
        with JsonlExporter(events_path) as exporter:
            tel.add_sink(exporter)
            try:
                with tel.span("repro.client") as root:
                    trace_id = root.context().trace_id
                    client.search("fig1").raise_for_status()
            finally:
                tel.remove_sink(exporter)

        events, _ = read_events(events_path)
        ours = [e for e in events if e.get("trace") == trace_id]
        names = {e["name"] for e in ours if e["kind"] == "span_start"}
        # every layer contributed a span to the one trace
        assert "repro.client" in names
        assert "serve.request" in names
        assert "campaign.task" in names

        roots = build_span_tree(events, trace_id)
        assert len(roots) == 1, "trace must form a single rooted tree"
        assert roots[0].name == "repro.client"
        tree_names = {node.name for node in roots[0].walk()}
        assert {"repro.client", "serve.request", "campaign.task"} <= tree_names

        # parentage is exact: serve.request hangs off the client root,
        # campaign.task off serve.request
        by_name = {n.name: n for n in roots[0].walk()}
        assert by_name["serve.request"].psid == roots[0].sid
        assert by_name["campaign.task"].psid == by_name["serve.request"].sid

    def test_cli_telemetry_trace_renders_the_tree(
        self, server, client, tmp_path, capsys
    ):
        tel = obs.get()
        events_path = tmp_path / "events.jsonl"
        with JsonlExporter(events_path) as exporter:
            tel.add_sink(exporter)
            try:
                with tel.span("repro.client") as root:
                    trace_id = root.context().trace_id
                    client.search("fig1").raise_for_status()
            finally:
                tel.remove_sink(exporter)

        assert main(["telemetry", "trace", str(events_path), trace_id]) == 0
        out = capsys.readouterr().out
        assert trace_id in out
        assert "repro.client" in out
        assert "serve.request" in out
        assert "campaign.task" in out

        # listing mode names the trace when no id is given
        assert main(["telemetry", "trace", str(events_path)]) == 0
        assert trace_id in capsys.readouterr().out

    def test_headerless_requests_get_distinct_fresh_traces(
        self, server, client, tmp_path
    ):
        tel = obs.get()
        events_path = tmp_path / "events.jsonl"
        with JsonlExporter(events_path) as exporter:
            tel.add_sink(exporter)
            try:
                # no enclosing span: the client sends no trace header
                client.search("fig1").raise_for_status()
                client.lint("fig1").raise_for_status()
            finally:
                tel.remove_sink(exporter)
        events, _ = read_events(events_path)
        serve_traces = {
            e["trace"]
            for e in events
            if e["kind"] == "span_start" and e["name"] == "serve.request"
        }
        assert len(serve_traces) == 2
        ids = trace_ids(events)
        for trace in serve_traces:
            assert ids.get(trace, 0) >= 1


# ----------------------------------------------------------------------
# engine phase profiling: present when enabled, absent when not
# ----------------------------------------------------------------------
def _kernel_loads() -> bool:
    from repro.analysis.kernelpath import kernel_unavailable_reason

    return kernel_unavailable_reason() is None


@pytest.mark.skipif(not _kernel_loads(), reason="no working C compiler")
class TestEnginePhaseGate:
    def _spec(self):
        from repro.analysis.state import CheckerMessage, SystemSpec

        return SystemSpec.uniform(
            [
                CheckerMessage(path=(0, 1, 2), length=2, tag="a"),
                CheckerMessage(path=(2, 3, 0), length=2, tag="b"),
            ]
        )

    def test_phases_and_rate_histogram_recorded_when_enabled(self):
        from repro.analysis.reachability import search_deadlock
        from repro.obs import Telemetry

        tel = Telemetry()
        with obs.scope(tel):
            res = search_deadlock(
                self._spec(), engine="kernel", certificates="off",
                find_witness=False,
            )
        assert res.states_explored > 0
        assert tel.counters.get("kernelpath.phase.kernel_s", 0) > 0, (
            "phase timer missing under telemetry"
        )
        assert "search.level.width" not in tel.histograms
        assert "search.states_per_sec" in tel.histograms

    def test_witness_search_times_the_recovery_phase(self):
        from repro.analysis.reachability import search_deadlock
        from repro.obs import Telemetry

        tel = Telemetry()
        with obs.scope(tel):
            res = search_deadlock(
                self._spec(), engine="kernel", certificates="off",
                find_witness=True,
            )
        assert res.witness is not None
        assert "kernelpath.phase.kernel_s" in tel.counters
        assert "kernelpath.phase.witness_s" in tel.counters

    def test_no_profiling_state_accumulates_when_disabled(self):
        from repro.analysis.kernelpath import kernel_engine_for
        from repro.analysis.reachability import search_deadlock

        spec = self._spec()
        assert obs.get() is None, "telemetry must be off outside scope"
        engine = kernel_engine_for(spec)
        fields = dict(vars(engine))
        res = search_deadlock(spec, engine="kernel", certificates="off")
        assert res.states_explored > 0
        # a search leaves nothing behind on the engine, and no collector
        assert vars(engine) == fields
        assert obs._active is None
