"""End-to-end serve API: byte-identity, caching, dedup, errors, shutdown."""

import json
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.obs import EVENT_KINDS, validate_event
from repro.serve import ReproServer, ServeClient, ServeConfig
from repro.serve import server as server_module


def _start_server(tmp_path) -> tuple[ReproServer, threading.Thread]:
    srv = ReproServer(
        ServeConfig(
            port=0,
            cache_backend=f"sqlite:{tmp_path / 'serve.db'}",
            window=0.01,
        )
    )
    thread = threading.Thread(target=srv.run, daemon=True)
    thread.start()
    assert srv.wait_ready(15), "server did not come up"
    return srv, thread


@pytest.fixture()
def server(tmp_path):
    srv, thread = _start_server(tmp_path)
    yield srv
    srv.shutdown()
    thread.join(10)


def _open_raw(srv: ReproServer, head: str, body: bytes = b"") -> socket.socket:
    """A raw connection that has sent ``head`` (request line and headers,
    blank line included) and then ``body``, and reads nothing yet."""
    sock = socket.create_connection((srv.host, srv.port), timeout=10)
    sock.sendall(head.encode("latin-1") + body)
    return sock


def _read_to_eof(sock: socket.socket) -> bytes:
    chunks = []
    while chunk := sock.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


@pytest.fixture()
def client(server):
    return ServeClient(server.url, timeout=120)


# ----------------------------------------------------------------------
# byte-identity with the CLI
# ----------------------------------------------------------------------
def test_cold_search_is_byte_identical_to_cli_json(client, capsys):
    assert main(["search", "fig1", "--json"]) == 0
    cli_out = capsys.readouterr().out

    resp = client.search("fig1").raise_for_status()
    assert resp.source == "live"
    assert resp.body.decode("utf-8") == cli_out
    assert resp.task_hash and len(resp.task_hash) == 64


def test_client_cli_matches_search_json(server, capsys):
    assert main(["search", "fig1", "--json"]) == 0
    local = capsys.readouterr().out
    assert main(["client", "--url", server.url, "search", "fig1"]) == 0
    remote = capsys.readouterr().out
    assert remote == local


def test_search_with_params_round_trips(client, capsys):
    argv = ["search", "fig2-pair", "--params", '{"d1": 2, "d2": 1, "hold": 2}',
            "--json"]
    assert main(argv) == 0
    cli_out = capsys.readouterr().out
    resp = client.search("fig2-pair", {"d1": 2, "d2": 1, "hold": 2})
    resp.raise_for_status()
    assert resp.body.decode("utf-8") == cli_out
    assert resp.payload["verdict"] == "deadlock"


# ----------------------------------------------------------------------
# caching
# ----------------------------------------------------------------------
def test_repeat_query_is_a_fast_cache_hit(client):
    cold = client.search("fig1").raise_for_status()
    t0 = time.perf_counter()
    warm = client.search("fig1").raise_for_status()
    elapsed = time.perf_counter() - t0
    assert warm.source == "cache"
    assert warm.body == cold.body  # verdict payload is source-independent
    assert elapsed < 0.25  # round trip, answered without execution

    status = client.status().raise_for_status().payload
    assert status["cache"]["hit_rate"] > 0
    assert status["batcher"]["cache_hits"] >= 1


def test_cache_is_tiered_memory_over_sqlite(client):
    client.search("fig1").raise_for_status()
    status = client.status().raise_for_status().payload
    cache = status["cache"]
    assert cache["tiered"] is True
    assert cache["hot"]["backend"] == "MemoryLRUCache"
    assert cache["cold"]["backend"] == "SqliteCache"
    assert cache["cold"]["integrity"]["healthy"] is True
    assert cache["cold"]["entries"] >= 1


def test_concurrent_identical_cold_queries_execute_once(server, client):
    before = client.status().raise_for_status().payload["batcher"]["executed_live"]
    params = {"seconds": 0.3, "tag": "dedup-probe"}
    bodies, sources, errors = [], [], []

    def query():
        try:
            resp = ServeClient(server.url, timeout=120).search(
                "debug-sleep", params
            ).raise_for_status()
            bodies.append(resp.body)
            sources.append(resp.source)
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    workers = [threading.Thread(target=query) for _ in range(8)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60)
    assert errors == []
    assert len(set(bodies)) == 1  # everyone got the same verdict bytes
    after = client.status().raise_for_status().payload["batcher"]["executed_live"]
    assert after - before == 1  # the task ran exactly once
    assert sources.count("live") <= 1
    assert all(s in ("live", "inflight", "cache") for s in sources)


# ----------------------------------------------------------------------
# other task endpoints
# ----------------------------------------------------------------------
def test_classify_endpoint(client):
    resp = client.classify("ring-cycle", {"n": 4}).raise_for_status()
    assert resp.payload["mode"] in ("cycle", "configuration")
    assert resp.payload["verdict"] in ("deadlock", "unreachable")
    assert resp.payload["deadlock_reachable"] in (True, False)


def test_configuration_classify_carries_its_certificate(client, capsys):
    """A certificate-decided configuration classify names the certificate in
    the task detail and the served payload, as the local CLI does."""
    from repro.campaign.tasks import CampaignTask, execute_task

    params = {"subset": ["M1", "M3"]}
    res = execute_task(CampaignTask.make("classify", "fig1", **params))
    assert res.ok and res.verdict == "unreachable"
    assert res.detail["certificate"] == "CRT001"
    assert res.detail["states_explored"] == 0

    served = client.classify("fig1", params).raise_for_status().payload
    assert served["mode"] == "configuration"
    assert served["certificate"] == "CRT001"
    assert served["states_explored"] == 0

    assert main(["classify", "fig1", "--params", json.dumps(params), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["certificate"] == "CRT001"


def test_lint_endpoint(client):
    resp = client.lint("fig1").raise_for_status()
    assert "verdict" in resp.payload
    assert isinstance(resp.payload["rules_run"], int)
    assert isinstance(resp.payload["diagnostics"], list)


def test_campaign_endpoint_runs_a_spec(client):
    resp = client.campaign("quick", limit=3).raise_for_status()
    assert resp.payload["total"] == 3
    assert resp.payload["failed"] == 0
    assert resp.payload["request_errors"] == 0

    again = client.campaign("quick", limit=3).raise_for_status()
    assert again.payload["from_cache"] == 3  # second run fully cached


# ----------------------------------------------------------------------
# request validation
# ----------------------------------------------------------------------
def test_unknown_scenario_is_400_with_registry(client):
    resp = client.search("no-such-scenario")
    assert resp.status == 400
    assert "unknown scenario" in resp.payload["error"]
    assert "fig1" in resp.payload["registered"]


def test_bad_params_and_knobs_are_400(server):
    c = ServeClient(server.url)
    assert c._request(
        "POST", "/v1/search", {"scenario": "fig1", "params": [1, 2]}
    ).status == 400
    assert c._request(
        "POST", "/v1/search", {"scenario": "fig1", "budget": "lots"}
    ).status == 400


@pytest.mark.parametrize(
    "length, body, status_line",
    [
        ("abc", b"", b"HTTP/1.1 400 "),
        ("-5", b"", b"HTTP/1.1 400 "),
        (str(server_module.MAX_BODY_BYTES + 1), b"", b"HTTP/1.1 413 "),
        # a body that stalls after 2 of 10 bytes: closed, unanswered,
        # once the read timeout runs out
        ("10", b'{"', b""),
    ],
    ids=["non-integer", "negative", "over-cap", "stalled-body"],
)
def test_bad_content_length_and_stalled_body(
    server, monkeypatch, length, body, status_line
):
    monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.5)
    t0 = time.perf_counter()
    with _open_raw(
        server, f"POST /v1/search HTTP/1.1\r\nContent-Length: {length}\r\n\r\n", body
    ) as sock:
        reply = _read_to_eof(sock)
    assert time.perf_counter() - t0 < 5
    if status_line:
        assert reply.startswith(status_line), reply[:80]
        assert b'"error"' in reply
    else:
        assert reply == b""


def test_unknown_endpoint_is_404_with_directory(server):
    resp = ServeClient(server.url)._request("GET", "/v1/nope")
    assert resp.status == 404
    assert any("/v1/search" in e for e in resp.payload["endpoints"])


def test_wrong_method_is_405(server):
    resp = ServeClient(server.url)._request("GET", "/v1/search")
    assert resp.status == 405


def test_campaign_shard_validation_propagates(client):
    resp = client.campaign("quick", shard="0/2")
    assert resp.status == 400
    assert "1-based" in resp.payload["error"]
    assert client.campaign("no-such-spec").status == 400


# ----------------------------------------------------------------------
# telemetry events
# ----------------------------------------------------------------------
def test_events_stream_is_schema_valid(server, client):
    events = []
    done = threading.Event()

    def subscribe():
        events.extend(client.events(max_events=6, timeout=8.0))
        done.set()

    t = threading.Thread(target=subscribe, daemon=True)
    t.start()
    time.sleep(0.3)  # let the subscription attach
    client.search("fig3-panel", {"panel": "a"})
    done.wait(timeout=15)
    assert events, "no telemetry events streamed"
    for event in events:
        assert validate_event(event) == []
        assert event["kind"] in EVENT_KINDS
    names = {e["name"] for e in events}
    assert names & {"serve.request", "serve.requests", "serve.events.subscribe",
                    "campaign.run", "campaign.task", "campaign.tasks"}


def test_status_reports_serve_spans(server, client):
    client.search("fig1").raise_for_status()
    tel = server._tel
    assert tel is not None
    assert tel.counters.get("serve.requests", 0) >= 1
    assert "serve.request" in tel.span_stats


# ----------------------------------------------------------------------
# shutdown
# ----------------------------------------------------------------------
def test_shutdown_ends_open_connections_quietly(tmp_path, capfd, caplog):
    srv, thread = _start_server(tmp_path)
    stalled = _open_raw(
        srv, "POST /v1/search HTTP/1.1\r\nContent-Length: 10\r\n\r\n", b'{"'
    )
    subscriber = _open_raw(srv, "GET /v1/events HTTP/1.1\r\n\r\n")
    # the stream's status line: both connections are accepted and live
    assert subscriber.recv(15).startswith(b"HTTP/1.1 200")
    srv.shutdown()
    thread.join(5)
    assert not thread.is_alive(), "server thread still running after 5 s"
    with subscriber, stalled:
        _read_to_eof(subscriber)  # returns on EOF instead of timing out
        assert _read_to_eof(stalled) == b""
    assert "Traceback" not in capfd.readouterr().err
    # asyncio reports callback errors through logging, which pytest captures
    assert not [r for r in caplog.records if r.name == "asyncio"]
