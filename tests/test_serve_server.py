"""End-to-end serve API: byte-identity, caching, dedup, errors, shutdown."""

import asyncio
import errno
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time
from contextlib import suppress
from pathlib import Path

import pytest

import repro.obs as obs
from repro.cli import main
from repro.obs import EVENT_KINDS, validate_event
from repro.serve import ReproServer, ServeClient, ServeConfig
from repro.serve import server as server_module


def _start_server(tmp_path, **config) -> tuple[ReproServer, threading.Thread]:
    config.setdefault("cache_backend", f"sqlite:{tmp_path / 'serve.db'}")
    srv = ReproServer(ServeConfig(port=0, **config))
    thread = threading.Thread(target=srv.run, daemon=True)
    thread.start()
    assert srv.wait_ready(15), "server did not come up"
    return srv, thread


@pytest.fixture()
def server(tmp_path, request):
    """A running server; indirect parametrization passes ServeConfig fields."""
    srv, thread = _start_server(tmp_path, **getattr(request, "param", {}))
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


@pytest.mark.parametrize(
    "server", [{"cache_backend": "memory"}], indirect=True, ids=["memory"]
)
def test_each_cold_miss_is_one_cache_lookup(client):
    """Three cold queries and three repeats are 3 misses and 3 hits, at
    the tier level and in each tier's own stats."""
    scenarios = [("fig1", {}), ("fig2-pair", {"d1": 2, "d2": 1, "hold": 2}),
                 ("fig3-panel", {"panel": "a"})]
    for _ in range(2):
        for scenario, params in scenarios:
            client.search(scenario, params).raise_for_status()
    cache = client.status().raise_for_status().payload["cache"]
    assert cache["tiered"] is True
    assert (cache["stats"]["hits"], cache["stats"]["misses"]) == (3, 3)
    assert cache["hit_rate"] == 0.5
    assert cache["cold"]["stats"]["misses"] == 3  # one durable probe per miss
    assert cache["stats"]["writes"] == 3


def test_cache_is_tiered_memory_over_sqlite(client):
    client.search("fig1").raise_for_status()
    status = client.status().raise_for_status().payload
    cache = status["cache"]
    assert cache["tiered"] is True
    assert cache["hot"]["backend"] == "MemoryLRUCache"
    assert cache["cold"]["backend"] == "SqliteCache"
    assert cache["cold"]["integrity"]["healthy"] is True
    assert cache["cold"]["entries"] >= 1


@pytest.mark.parametrize(
    "server", [{"jobs": 1}, {"jobs": 2}], indirect=True, ids=["jobs1", "jobs2"]
)
def test_concurrent_identical_cold_queries_execute_once(server, client):
    """Exactly once in the lane's own thread and through the process pool."""
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


@pytest.mark.parametrize(
    "scenario,params",
    [("ring-cycle", {"n": 4}), ("fig3-panel", {"panel": "a"})],
    ids=["cycle", "configuration"],
)
def test_cold_classify_is_byte_identical_to_cli_json(
    scenario, params, server, client, capsys
):
    """A served classification answers byte for byte like the local
    ``classify --json``, in cycle mode (notes and all) and in
    configuration mode, also through ``repro client classify``."""
    argv = ["classify", scenario, "--params", json.dumps(params), "--json"]
    assert main(argv) == 0
    cli_out = capsys.readouterr().out

    resp = client.classify(scenario, params).raise_for_status()
    assert resp.source == "live"
    assert resp.body.decode("utf-8") == cli_out
    assert main(["client", "--url", server.url, *argv[:-1]]) == 0
    assert capsys.readouterr().out == cli_out


def test_cycle_classify_payload_says_false_resource_cycle():
    """The campaign's cycle-mode verdict ``unreachable`` reads
    ``false-resource-cycle`` in the payload, as in ``repro classify``;
    the task verdict itself is untouched."""
    from repro.campaign.tasks import TaskResult
    from repro.serve.payloads import classify_payload_from_result

    detail = {"tilings_tested": 2, "scenarios_tested": 4, "certificate": None,
              "notes": ["no tested scenario reaches a deadlock"]}
    result = TaskResult(
        task_hash="0" * 64, name="t", kind="classify", scenario="ring-cycle",
        params={}, verdict="unreachable", detail=detail,
    )
    payload = classify_payload_from_result(result, params={})
    assert payload["mode"] == "cycle"
    assert payload["verdict"] == "false-resource-cycle"
    assert payload["deadlock_reachable"] is False
    assert payload["notes"] == detail["notes"]
    assert result.verdict == "unreachable"


def test_lint_endpoint(client, capsys):
    """A served lint answers byte for byte like the local ``lint --json``,
    computed live and again from the cache: an undecided target, a CRT005
    ring and a CRT008 escape mesh."""
    for scenario, params in [
        ("fig1", {}),
        ("ring-cycle", {"n": 4}),
        ("adaptive-mesh", {"dims": [3, 3], "routing": "escape"}),
    ]:
        argv = ["lint", scenario, "--params", json.dumps(params), "--json"]
        assert main(argv) == 0
        cli_out = capsys.readouterr().out
        for source in ("live", "cache"):
            resp = client.lint(scenario, params).raise_for_status()
            assert resp.source == source
            assert resp.body.decode("utf-8") == cli_out


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
    bodies = [
        ("/v1/search", {"scenario": "fig1", "params": [1, 2]}, "params"),
        ("/v1/search", {"scenario": "fig1", "budget": "lots"}, "budget"),
        ("/v1/search", {"scenario": "fig1", "budget": -3}, "budget"),
        ("/v1/search", {"scenario": "fig1", "max_states": -1}, "max_states"),
        ("/v1/search", {"scenario": "fig1", "max_states": 0}, "max_states"),
        ("/v1/classify", {"scenario": "ring-cycle", "length_slack": -1},
         "length_slack"),
        ("/v1/classify", {"scenario": "ring-cycle", "extra_copies": 0},
         "extra_copies"),
        ("/v1/lint", {"scenario": "fig1", "max_cycles": -1}, "max_cycles"),
        ("/v1/lint", {"scenario": "fig1", "max_cycles": 0}, "max_cycles"),
        # an analysis option smuggled in as a scenario parameter
        ("/v1/classify", {"scenario": "fig1", "params": {"copy_depth": -1}},
         "copy_depth"),
    ]
    for path, body, option in bodies:
        resp = c._request("POST", path, body)
        assert resp.status == 400, (body, resp.payload)
        assert option in resp.payload["error"], resp.payload
    # bodies that are not a JSON object: invalid JSON, an array, not UTF-8
    for raw in (b'{"scenario": "fig1"', b'["fig1"]', b'{"scenario": "\xff"}'):
        head = f"POST /v1/search HTTP/1.1\r\nContent-Length: {len(raw)}\r\n\r\n"
        with _open_raw(server, head, raw) as sock:
            reply = _read_to_eof(sock)
        assert reply.startswith(b"HTTP/1.1 400 "), (raw, reply[:80])
        assert b'"error"' in reply


def test_state_cap_is_a_named_502_and_never_cached(client):
    """A search that hits ``max_states`` fails loudly, names the limit,
    and runs live again on a repeat instead of answering from the cache."""
    for _ in range(2):
        resp = client.search("fig1", max_states=1)
        assert resp.status == 502
        assert resp.source is None
        assert "SearchLimitExceeded" in resp.payload["error"]
    status = client.status().raise_for_status().payload
    assert status["batcher"]["executed_live"] == 2
    assert status["batcher"]["failures"] == 2
    assert status["batcher"]["cache_hits"] == 0


@pytest.mark.parametrize(
    "path, body, wording",
    [
        ("/v1/search", {"scenario": "ring-cycle", "params": {"n": 4}},
         "scenario 'ring-cycle' exposes no message set"),
        ("/v1/classify",
         {"scenario": "adaptive-mesh", "params": {"dims": [3, 3], "routing": "escape"}},
         "scenario 'adaptive-mesh' exposes neither a CDG cycle nor a message set"),
        ("/v1/search", {"scenario": "fig1", "params": {"subset": []}},
         "fig1 subset names no message"),
    ],
    ids=["search", "classify", "empty-subset"],
)
def test_query_over_no_messages_is_refused_and_never_cached(server, path, body, wording):
    """A scenario without a message set gets no verdict (not a certified
    ``unreachable`` over zero messages), and the refusal is not cached:
    a repeat runs live again."""
    c = ServeClient(server.url)
    for _ in range(2):
        resp = c._request("POST", path, body)
        assert resp.status == 502, resp.payload
        assert wording in resp.payload["error"]
    batcher = c.status().raise_for_status().payload["batcher"]
    assert (batcher["executed_live"], batcher["cache_hits"]) == (2, 0)


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
    assert "serve.request" in tel.spans


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


def test_stop_shuts_the_worker_pool_down(tmp_path):
    """With --jobs 2 the server's one process pool serves every cold
    query, and stop() leaves none of its workers behind."""
    srv, thread = _start_server(tmp_path, jobs=2)
    try:
        client = ServeClient(srv.url, timeout=120)
        client.search("fig2-pair", params={"d1": 1, "d2": 1, "hold": 2}).raise_for_status()
        pids = set(srv.batcher.pool._executor._processes)
        client.search("fig2-pair", params={"d1": 2, "d2": 1, "hold": 2}).raise_for_status()
        assert set(srv.batcher.pool._executor._processes) == pids
    finally:
        srv.shutdown()
        thread.join(10)
    assert pids and not thread.is_alive()
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.fixture()
def taken_port():
    """A port that a listening socket holds for the test's duration."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        sock.listen()
        yield sock.getsockname()[1]


def test_serve_on_a_taken_port_is_one_line_exit_2(taken_port, capsys):
    argv = ["serve", "--port", str(taken_port), "--cache-backend", "memory"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"serve: cannot listen on 127.0.0.1:{taken_port}: "
        f"{os.strerror(errno.EADDRINUSE)}\n"
    )


def test_failed_start_undoes_its_setup(taken_port, monkeypatch):
    """A start that cannot bind leaves REPRO_TELEMETRY and the process
    collector as they were and shuts its --jobs 2 worker pool down."""
    monkeypatch.setenv(obs.ENV_VAR, "off")
    prev = obs.Telemetry()
    with obs.scope(prev):
        srv = ReproServer(ServeConfig(port=taken_port, jobs=2, cache_backend="memory"))
        with pytest.raises(OSError):
            asyncio.run(srv.run_async())
        assert os.environ[obs.ENV_VAR] == "off"
        assert obs._active is prev
    pool = srv.batcher.pool
    assert pool._closed and pool._executor is None


def test_jobs_2_starts_its_workers_at_boot():
    """With --jobs 2 the pool's workers are up, with the task runners'
    modules imported, when the server starts listening, so the first cold
    query does not wait for them; with --jobs 1 boot builds no pool and
    imports none of those modules.  Run in a fresh interpreter, which has
    not imported them before the server boots."""
    code = textwrap.dedent(
        """
        import json, sys, threading
        from repro.campaign.tasks import RUNNER_MODULES
        from repro.serve import ReproServer, ServeConfig

        def loaded():
            return [m for m in RUNNER_MODULES if m in sys.modules]

        out = {"before": loaded()}
        for jobs in (1, 2):
            srv = ReproServer(
                ServeConfig(port=0, jobs=jobs, cache_backend="memory", telemetry=False)
            )
            thread = threading.Thread(target=srv.run, daemon=True)
            thread.start()
            assert srv.wait_ready(60)
            pool = srv.batcher.pool
            executor = None if pool is None else pool._executor
            procs = [] if executor is None else list(executor._processes.values())
            out[jobs] = {
                "pool": pool is not None,
                "parent": loaded(),
                "alive": [p.is_alive() for p in procs],
                "worker": [executor.submit(loaded).result(60) for _ in procs],
            }
            srv.shutdown()
            thread.join(30)
        print(json.dumps(out))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout)
    from repro.campaign.tasks import RUNNER_MODULES

    assert "repro.sim" not in seen["before"]  # the check can fail
    assert seen["1"] == {"pool": False, "parent": seen["before"], "alive": [], "worker": []}
    assert seen["2"]["pool"] and seen["2"]["alive"] == [True, True]
    assert seen["2"]["parent"] == list(RUNNER_MODULES)
    assert seen["2"]["worker"] == [list(RUNNER_MODULES)] * 2


def _children(pid: int) -> set[int]:
    """The live child processes of ``pid``, whichever of its threads forked them."""
    found: set[int] = set()
    for task in Path(f"/proc/{pid}/task").iterdir():
        with suppress(FileNotFoundError):
            found.update(int(c) for c in (task / "children").read_text().split())
    return found


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs /proc/<pid>/task/<tid>/children",
)
def test_sigterm_stops_serve_and_its_workers():
    """``kill <serve pid>`` takes the stop path SIGINT takes: the server
    exits 0 and shuts its process pool down, leaving no worker behind."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0", "--jobs", "2",
         "--cache-backend", "memory"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    workers: set[int] = set()
    try:
        assert select.select([proc.stdout], [], [], 60)[0], "serve did not announce"
        url = re.search(r"listening on (\S+)", proc.stdout.readline()).group(1)
        resp = ServeClient(url, timeout=120).search("fig1").raise_for_status()
        assert resp.source == "live"
        workers = _children(proc.pid)
        proc.send_signal(signal.SIGTERM)
        returncode = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        left = [pid for pid in workers if _alive(pid)]
        for pid in left:  # a failed run leaves no stray worker either
            os.kill(pid, signal.SIGKILL)
    assert workers
    assert returncode == 0
    assert not left, f"workers {left} outlived the server"
