"""The three workloads: ``battery-cold``, ``cli-fresh`` and ``serve-mixed``.

Each has ``measure(ctx)`` (tracing off: the end-to-end metrics) and
``trace(ctx)`` (an untraced and a traced pass: the per-layer metrics).
Both return an :class:`Outcome`.  All load comes from this process with
at most two concurrent children or clients.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import (
    BENCH_DIR,
    GOLDEN,
    BenchError,
    HostSpeed,
    Proc,
    Timing,
    median,
    percentile,
    repro_argv,
    run_child,
)
import traffic

#: concurrent fresh processes in cli-fresh's traced run and serve-mixed's
#: check (the measured cli-fresh loop runs one at a time), and closed-loop
#: clients in serve-mixed
CLI_CHILDREN = 2
SERVE_CLIENTS = 2
TRACER = str(BENCH_DIR / "tracer.py")

#: per-run minimums: whole cycles of the five commands, and serve misses
#: (so that miss_p90_s has at least ten samples beyond it)
CLI_MIN_CYCLES = 3
SERVE_MIN_MISSES = 100
#: unmeasured cycles of the five commands before cli-fresh's loop; its
#: ``setup_s`` is the median cycle
CLI_WARM_CYCLES = 3
#: serve-mixed's ``wall_s`` is the time to serve this many requests at
#: the pace of its median round
SERVE_PREFIX = 1500
#: serve-mixed sends the stream in closed-loop rounds of this many requests
SERVE_ROUND = 100
#: repeated set-ups per run (plus the measured one); ``setup_s`` is their median
SETUP_REPEATS = 9

TASK_KINDS = (
    "reachability", "classify", "min_delay", "simulate",
    "cdg", "lint", "adaptive", "cross_check",
)

#: the cli-fresh mix; equal shares, so p50 falls in the middle of the
#: third-slowest command and p90 in the middle of the slowest
CLI_COMMANDS: dict[str, list[str]] = {
    "lint-fig1": ["lint", "fig1", "--json"],
    "search-fig2-pair-witness": [
        "search", "fig2-pair", "--params", '{"d1":3,"d2":1,"hold":3}',
        "--witness", "--json",
    ],
    "search-fig1": ["search", "fig1", "--json"],
    "classify-fig3a": ["classify", "fig3-panel", "--params", '{"panel":"a"}', "--json"],
    "search-gen1-budget1": [
        "search", "gen", "--params", '{"m":1}', "--budget", "1", "--json",
    ],
}

BATTERY_ARGS = ["campaign", "run", "--spec", "paper-battery", "--jobs", "1"]
SERVE_ARGS = ["serve", "--port", "0", "--jobs", "1"]


@dataclass
class Context:
    seed: int
    seconds: float
    run_dir: Path
    env: dict[str, str]
    #: one per measured phase, by name
    speeds: dict[str, HostSpeed] = field(default_factory=dict)

    def fresh_dir(self, name: str) -> Path:
        path = self.run_dir / name
        path.mkdir(parents=True)
        return path

    def speed(self, phase: str, kind: str) -> HostSpeed:
        return self.speeds.setdefault(phase, HostSpeed(kind, self.env, self.run_dir))


@dataclass
class Outcome:
    attempted: int
    failed: int
    values: dict[str, float]
    report: list[Timing] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def _fail(errors: list[str], message: str) -> None:
    errors.append(message)


# ----------------------------------------------------------------------
# battery-cold
# ----------------------------------------------------------------------
def ledger_results(cache_dir: Path) -> list[dict]:
    path = cache_dir / "ledgers" / "paper-battery.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines() if line]
    return [r for r in rows if r["type"] == "result"]


def _battery_setup(proc: Proc, results: list[dict]) -> float:
    """Spawn to the start of the first task, from ledger timestamps.

    Tasks run back to back, so the first one started no later than any
    record's time minus the wall times of the tasks up to it; the minimum
    is exact whether records stream per task or land after the wave.
    Time the process spent frozen for probes before that start is not
    set-up.
    """
    done, start = 0.0, float("inf")
    for r in results:
        done += r["wall_time"]
        start = min(start, r["time"] - done)
    return start - proc.spawned_at - proc.paused_before(start)


def _check_battery(proc: Proc, results: list[dict], errors: list[str]) -> int:
    golden = json.loads((GOLDEN / "battery.json").read_text())
    failed = 0
    if proc.returncode != 0:
        failed += 1
        _fail(errors, f"battery exit code {proc.returncode}")
    if not re.search(rb"matches expectations\s*:\s*True", proc.stdout):
        failed += 1
        _fail(errors, "battery summary does not say 'matches expectations : True'")
    got = {r["name"]: [r["verdict"], r["detail"].get("states_explored")] for r in results}
    for name, want in golden.items():
        if got.get(name) != want:
            failed += 1
            _fail(errors, f"battery task {name}: want {want}, got {got.get(name)}")
    for name in sorted(set(got) - set(golden)):
        failed += 1
        _fail(errors, f"battery task {name} is not in the golden record")
    return failed


def _run_battery(
    ctx: Context, name: str, traced: bool = False, pace: HostSpeed | None = None
):
    cache_dir = ctx.fresh_dir(name)
    args = [*BATTERY_ARGS, "--cache-dir", str(cache_dir)]
    out = cache_dir / "trace.json"
    argv = (
        [sys.executable, TRACER, str(out), "--", *args] if traced else repro_argv(*args)
    )
    proc = run_child(argv, ctx.env, cwd=cache_dir, pace=pace)
    results = ledger_results(cache_dir)
    trace = json.loads(out.read_text()) if traced else None
    return proc, results, trace


def battery_measure(ctx: Context) -> Outcome:
    setup_speed = ctx.speed("setup", "startup")
    setups = []
    for i in range(SETUP_REPEATS):
        setup_speed.sample()
        cache_dir = ctx.fresh_dir(f"setup{i}")
        proc = run_child(
            repro_argv(*BATTERY_ARGS, "--limit", "1", "--cache-dir", str(cache_dir)),
            ctx.env, cwd=cache_dir,
        )
        if proc.returncode != 0:
            raise BenchError(f"battery set-up probe exited {proc.returncode}")
        setups.append(_battery_setup(proc, ledger_results(cache_dir)))
    speed = ctx.speed("battery", "compute")
    proc, results, _ = _run_battery(ctx, "battery", pace=speed)
    setup = _battery_setup(proc, results)
    setups.append(setup)
    errors: list[str] = []
    failed = _check_battery(proc, results, errors)
    walls = [r["wall_time"] for r in results]
    # when each verdict was in, counted from spawn (tasks run back to back)
    verdict_at = list(itertools.accumulate(walls, initial=setup))[1:]
    k = speed.factor()
    values = {
        "setup_s": median(setups) * setup_speed.factor(),
        "wall_s": proc.wall_s * k,
        "throughput_per_s": len(results) / proc.wall_s / k,
        "peak_rss_mb": proc.peak_rss_mb,
    }
    report = [
        Timing("setup_s", values["setup_s"], "s", len(setups)),
        Timing("wall_s", values["wall_s"], "s", 1),
        Timing("throughput_per_s", values["throughput_per_s"], "task/s", len(walls)),
        Timing("peak_rss_mb", proc.peak_rss_mb, "MB", 1),
        Timing("raw wall_s", proc.wall_s, "s", 1),
        Timing("raw p50_s (half the verdicts in)", percentile(verdict_at, 0.5), "s", len(walls)),
        Timing("raw p90_s (90% of verdicts in)", percentile(verdict_at, 0.9), "s", len(walls)),
        Timing("raw task_p50_s", percentile(walls, 0.5), "s", len(walls)),
        Timing("raw task_p90_s", percentile(walls, 0.9), "s", len(walls)),
    ]
    return Outcome(len(results), failed, values, report, errors)


def battery_trace(ctx: Context) -> Outcome:
    plain, plain_results, _ = _run_battery(ctx, "battery-untraced")
    proc, results, trace = _run_battery(ctx, "battery-traced", traced=True)
    errors: list[str] = []
    failed = _check_battery(plain, plain_results, errors)
    failed += _check_battery(proc, results, errors)
    setup = _battery_setup(proc, results)
    trace["spawn_s"] = trace["script_start"] - proc.spawned_at
    layers = _layer_values(trace)
    tasks_s = sum(r["wall_time"] for r in results)
    layers["campaign.runner_overhead_s"] = proc.wall_s - setup - tasks_s
    _close_attribution(layers, wall=proc.wall_s, overhead=proc.wall_s - plain.wall_s)
    return Outcome(len(plain_results) + len(results), failed, layers, errors=errors)


# ----------------------------------------------------------------------
# cli-fresh
# ----------------------------------------------------------------------
def _golden_cli(name: str) -> bytes:
    return (GOLDEN / "cli" / f"{name}.out").read_bytes()


def _run_cli(ctx: Context, name: str, trace_out: Path | None = None) -> Proc:
    args = CLI_COMMANDS[name]
    argv = (
        repro_argv(*args)
        if trace_out is None
        else [sys.executable, TRACER, str(trace_out), "--", *args]
    )
    return run_child(argv, ctx.env, cwd=ctx.run_dir)


def _check_cli(name: str, proc: Proc, errors: list[str]) -> bool:
    if proc.returncode != 0:
        _fail(errors, f"{name}: exit code {proc.returncode}")
        return False
    if proc.stdout != _golden_cli(name):
        _fail(errors, f"{name}: stdout differs from the golden bytes")
        return False
    return True


def _cycles(rng: random.Random):
    names = list(CLI_COMMANDS)
    while True:
        rng.shuffle(names)
        yield from ((i, name) for i, name in enumerate(names))


def _pool(jobs, work, workers: int) -> None:
    """Run ``work(job)`` for each job from the ``jobs`` iterator (which
    may stop early) on ``workers`` threads."""
    lock = threading.Lock()
    failures: list[BaseException] = []

    def loop() -> None:
        while True:
            with lock:
                job = next(jobs, None)
            if job is None:
                return
            try:
                work(job)
            except BaseException as exc:  # noqa: BLE001 - re-raised after join
                failures.append(exc)
                return

    threads = [threading.Thread(target=loop) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]


def cli_warm(ctx: Context, speed: HostSpeed | None = None) -> float:
    """Run each command once in the fresh run directory, checked but
    outside the measured loop; their summed wall is one set-up cycle (a
    first-use cost, such as a cache written on first run, lands here).
    With ``speed``, a probe is sampled before every other command."""
    errors: list[str] = []
    procs = []
    for i, name in enumerate(CLI_COMMANDS):
        if speed is not None and i % 2 == 0:
            speed.sample()
        procs.append(_run_cli(ctx, name))
    for name, proc in zip(CLI_COMMANDS, procs):
        _check_cli(name, proc, errors)
    if errors:
        raise BenchError("cli warm-up failed: " + "; ".join(errors))
    return sum(proc.wall_s for proc in procs)


def cli_measure(ctx: Context) -> Outcome:
    setup_speed = ctx.speed("setup", "startup")
    setups = [cli_warm(ctx, setup_speed) for _ in range(CLI_WARM_CYCLES)]
    speed = ctx.speed("loop", "startup")
    done: list[tuple[str, Proc]] = []
    busy = 0.0  # summed process walls, without the probes between them
    for pos, name in _cycles(random.Random(ctx.seed)):
        if pos == 0 and len(done) >= CLI_MIN_CYCLES * len(CLI_COMMANDS) and (
            busy >= ctx.seconds
        ):
            break
        if len(done) % 2 == 0:
            speed.sample()
        proc = _run_cli(ctx, name)
        done.append((name, proc))
        busy += proc.wall_s
    errors: list[str] = []
    failed = sum(not _check_cli(name, proc, errors) for name, proc in done)
    walls = [proc.wall_s for _, proc in done]
    per_cmd = {n: [p.wall_s for m, p in done if m == n] for n in CLI_COMMANDS}
    k = speed.factor()
    values = {
        "setup_s": statistics.median(setups) * setup_speed.factor(),
        # one fresh process per command, each at its median
        "wall_s": sum(statistics.median(v) for v in per_cmd.values()) * k,
        "throughput_per_s": len(done) / busy / k,
        "peak_rss_mb": max(proc.peak_rss_mb for _, proc in done),
    }
    report = [
        Timing("setup_s", values["setup_s"], "s", len(setups)),
        Timing("wall_s", values["wall_s"], "s", len(walls)),
        Timing("throughput_per_s", values["throughput_per_s"], "proc/s", len(walls)),
        Timing("peak_rss_mb", values["peak_rss_mb"], "MB", len(walls)),
        Timing("raw p50_s", percentile(walls, 0.5), "s", len(walls)),
        Timing("raw p90_s", percentile(walls, 0.9), "s", len(walls)),
    ]
    report += [
        Timing(f"raw {n}.p50_s", statistics.median(v), "s", len(v))
        for n, v in per_cmd.items()
    ]
    return Outcome(len(done), failed, values, report, errors)


CLI_TRACE_CYCLES = 3


def cli_trace(ctx: Context) -> Outcome:
    cli_warm(ctx)
    jobs = iter(
        [(c, name, traced) for c in range(CLI_TRACE_CYCLES)
         for name in CLI_COMMANDS for traced in (False, True)]
    )
    plain: list[tuple[str, Proc]] = []
    traced_runs: list[tuple[str, Proc, dict]] = []
    lock = threading.Lock()

    def work(job) -> None:
        cycle, name, traced = job
        out = ctx.run_dir / f"trace-{cycle}-{name}.json"
        proc = _run_cli(ctx, name, out if traced else None)
        with lock:
            if traced:
                traced_runs.append((name, proc, json.loads(out.read_text())))
            else:
                plain.append((name, proc))

    _pool(jobs, work, CLI_CHILDREN)
    errors: list[str] = []
    checked = plain + [(n, p) for n, p, _ in traced_runs]
    failed = sum(not _check_cli(n, p, errors) for n, p in checked)
    traces = [t for _, _, t in traced_runs]
    for (_, proc, _), t in zip(traced_runs, traces):
        t["spawn_s"] = t["script_start"] - proc.spawned_at
    layers = _layer_values(_merge_traces(traces), per=CLI_TRACE_CYCLES)
    wall = sum(p.wall_s for _, p, _ in traced_runs) / CLI_TRACE_CYCLES
    overhead = wall - sum(p.wall_s for _, p in plain) / CLI_TRACE_CYCLES
    _close_attribution(layers, wall=wall, overhead=overhead)
    return Outcome(len(checked), failed, layers, errors=errors)


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
@dataclass
class Server:
    proc: subprocess.Popen
    host: str
    port: int


_LISTEN = re.compile(r"listening on http://([^:\s]+):(\d+)")


def _boot(ctx: Context, name: str, trace_out: Path | None = None) -> Server:
    """Start ``repro serve`` in a fresh directory (so its default cache
    directory is the run's own) and wait for its "listening" line."""
    cwd = ctx.fresh_dir(name)
    argv = (
        repro_argv(*SERVE_ARGS)
        if trace_out is None
        else [sys.executable, TRACER, str(trace_out), "--", *SERVE_ARGS]
    )
    proc = subprocess.Popen(
        argv, env=ctx.env, cwd=cwd, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )
    killer = threading.Timer(60, proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
    finally:
        killer.cancel()
    match = _LISTEN.search(line)
    if match is None:
        _stop(proc)
        raise BenchError(f"serve did not come up: {line!r}")
    return Server(proc, match.group(1), int(match.group(2)))


def _stop(proc: subprocess.Popen) -> tuple[int, float]:
    """SIGINT the server and reap it: (exit code, peak RSS in MB)."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    killer = threading.Timer(30, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stdout is not None:
        proc.stdout.close()
    return proc.returncode, usage.ru_maxrss / 1024.0


def _drive(ctx: Context, server: Server) -> tuple[list[traffic.Reply], list[float]]:
    """Closed loop, two clients, over the seeded stream in rounds of
    SERVE_ROUND requests until the run's seconds of serving have passed
    and the minimums are met.  Returns (replies in completion order,
    seconds each round took)."""
    replies: list[traffic.Reply] = []
    lock = threading.Lock()
    source = traffic.stream(ctx.seed)
    rounds: list[float] = []

    def work(query) -> None:
        reply = traffic.post_search(server.host, server.port, query)
        with lock:
            replies.append(reply)

    while len(replies) < SERVE_PREFIX or sum(rounds) < ctx.seconds or (
        sum(r.source != "cache" for r in replies) < SERVE_MIN_MISSES
    ):
        batch = list(itertools.islice(source, SERVE_ROUND))
        if len(batch) < SERVE_ROUND:
            raise BenchError("the request stream ran out")
        t0 = time.perf_counter()
        _pool(iter(batch), work, SERVE_CLIENTS)
        rounds.append(time.perf_counter() - t0)
    return replies, rounds


def _check_serve(ctx: Context, replies: list[traffic.Reply], errors: list[str]) -> int:
    """Every reply 200 with the same body per query; a seeded sample of
    bodies byte-identical to the CLI's ``search --json`` output."""
    failed = 0
    bodies: dict[str, bytes] = {}
    for r in replies:
        if r.status != 200:
            failed += 1
            _fail(errors, f"serve {r.key}: HTTP {r.status}")
        elif bodies.setdefault(r.key, r.body) != r.body:
            failed += 1
            _fail(errors, f"serve {r.key}: body differs between replies")
    rng = random.Random(ctx.seed)
    sample = rng.sample(sorted(bodies), min(4, len(bodies)))
    checked: list[tuple[str, Proc]] = []

    def work(key: str) -> None:
        scenario, params = json.loads(key)
        proc = run_child(
            repro_argv("search", scenario, "--params", json.dumps(params), "--json"),
            ctx.env, cwd=ctx.run_dir,
        )
        checked.append((key, proc))

    _pool(iter(sample), work, CLI_CHILDREN)
    for key, proc in checked:
        if proc.returncode != 0 or proc.stdout != bodies[key]:
            failed += 1
            _fail(errors, f"serve {key}: body differs from `repro search --json`")
    return failed


#: answered once per set-up boot; outside the stream's population
SETUP_QUERY = ("fig1", {})


def serve_measure(ctx: Context) -> Outcome:
    setups = []
    for i in range(SETUP_REPEATS):
        # boot plus the first answer, which pays the lazy imports
        t0 = time.perf_counter()
        server = _boot(ctx, f"boot{i}")
        try:
            reply = traffic.post_search(server.host, server.port, SETUP_QUERY)
        finally:
            _stop(server.proc)
        if reply.status != 200:
            raise BenchError(f"serve set-up query failed: HTTP {reply.status}")
        setups.append(reply.done_at - t0)
    server = _boot(ctx, "serve")
    try:
        replies, rounds = _drive(ctx, server)
    finally:
        rc, rss = _stop(server.proc)
    errors: list[str] = []
    failed = _check_serve(ctx, replies, errors)
    if rc != 0:
        failed += 1
        _fail(errors, f"serve exit code {rc}")
    lat = [r.latency_s for r in replies]
    hits = [r.latency_s for r in replies if r.source == "cache"]
    misses = [r.latency_s for r in replies if r.source != "cache"]
    # not scaled to host speed: about two thirds of a round is the misses
    # waiting out the fixed 20 ms batch window, so the host's speed moves
    # it little (elasticity 0.2-0.3 against the probe)
    values = {
        "setup_s": median(setups),
        # SERVE_PREFIX requests at the median round's pace
        "wall_s": SERVE_PREFIX / SERVE_ROUND * statistics.median(rounds),
        "throughput_per_s": len(replies) / sum(rounds),
        "peak_rss_mb": rss,
    }
    report = [
        Timing("setup_s", values["setup_s"], "s", len(setups)),
        Timing(f"wall_s ({SERVE_PREFIX} requests)", values["wall_s"], "s", len(rounds)),
        Timing("throughput_rps", values["throughput_per_s"], "req/s", len(lat)),
        Timing("peak_rss_mb", rss, "MB", 1),
        Timing("p50_s", percentile(lat, 0.5), "s", len(lat)),
        Timing("p90_s", percentile(lat, 0.9), "s", len(lat)),
        Timing("hit_p50_s", percentile(hits, 0.5), "s", len(hits)),
        Timing("hit_p90_s", percentile(hits, 0.9), "s", len(hits)),
        Timing("miss_p50_s", percentile(misses, 0.5), "s", len(misses)),
        Timing("miss_p90_s", percentile(misses, 0.9), "s", len(misses)),
    ]
    return Outcome(len(replies), failed, values, report, errors)


def serve_trace(ctx: Context) -> Outcome:
    plain_server = _boot(ctx, "serve-untraced")
    try:
        plain, _ = _drive(ctx, plain_server)
    finally:
        _stop(plain_server.proc)
    out = ctx.run_dir / "serve-trace.json"
    server = _boot(ctx, "serve-traced", trace_out=out)
    try:
        mark = Path(str(out) + ".mark")
        server.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not mark.exists():
            if time.monotonic() > deadline:
                raise BenchError("traced server never wrote its boot snapshot")
            time.sleep(0.01)
        replies, _ = _drive(ctx, server)
        status = traffic.get_json(server.host, server.port, "/v1/status")
    finally:
        _stop(server.proc)
    errors: list[str] = []
    # both servers must give the same bytes for the same query
    failed = _check_serve(ctx, plain + replies, errors)
    trace = _subtract(json.loads(out.read_text()), json.loads(mark.read_text()))
    layers = _layer_values(trace)
    wall = sum(r.latency_s for r in replies)
    mean_plain = statistics.fmean(r.latency_s for r in plain)
    live = [r for r in replies if r.source == "live"]
    hits = [r.latency_s for r in replies if r.source == "cache"]
    first_miss = next(r for r in replies if r.source != "cache")
    batcher = status["batcher"]
    get_p50 = median(trace["calls"].get("cache.get", [])) or 0.0
    layers.update({
        "serve.miss.task_s": median([r.task_wall_s for r in live]),
        "serve.miss.wait_s": median([r.latency_s - r.task_wall_s for r in live]),
        "serve.hit.http_s": median(hits) - get_p50,
        "serve.source.cache": float(len(hits)),
        "serve.source.live": float(len(live)),
        "serve.source.inflight": float(sum(r.source == "inflight" for r in replies)),
        "serve.batch_size": batcher["batched_tasks"] / max(1, batcher["batches"]),
        "serve.first_miss_s": first_miss.latency_s,
    })
    _close_attribution(
        layers, wall=wall, overhead=wall - mean_plain * len(replies)
    )
    return Outcome(len(plain) + len(replies), failed, layers, errors=errors)


# ----------------------------------------------------------------------
# per-layer values from tracer output
# ----------------------------------------------------------------------
#: layers whose self times partition a traced wall (with unattributed_s)
SELF_LAYERS = {
    "startup.spawn": "startup.spawn_s",
    "startup.import": "startup.import_s",
    "startup.import_third_party": "startup.import_third_party_s",
    "scenario.build": "scenario.build_s",
    "lint.certificate": "lint.certificate_s",
    "search.table_build": "search.table_build_s",
    "search.bfs": "search.bfs_s",
    "search.witness": "search.witness_s",
    "campaign.task": "campaign.task_self_s",
    "sim.run": "sim.run_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "ledger.append": "ledger.append_s",
}


def _merge_traces(traces: list[dict]) -> dict:
    merged: dict = {"self_s": {}, "counts": {}, "calls": {}, "spawn_s": 0.0}
    for t in traces:
        merged["spawn_s"] += t["spawn_s"]
        for part in ("self_s", "counts"):
            for k, v in t[part].items():
                merged[part][k] = merged[part].get(k, 0.0) + v
        for k, v in t["calls"].items():
            merged["calls"].setdefault(k, []).extend(v)
    return merged


def _subtract(after: dict, before: dict) -> dict:
    """The totals accrued between two snapshots of one traced process."""
    out: dict = {"self_s": {}, "counts": {}, "calls": {}}
    for part in ("self_s", "counts"):
        for k, v in after[part].items():
            out[part][k] = v - before[part].get(k, 0.0)
    for k, v in after["calls"].items():
        out["calls"][k] = v[len(before["calls"].get(k, [])):]
    return out


def _layer_values(trace: dict, per: int = 1) -> dict[str, float]:
    """Per-layer metrics from tracer totals (divided by ``per`` units of
    work); every workload reports the same names, zero where unused.
    ``spawn_s`` is spawn-to-script time (interpreter start-up), when the
    traced process's start is part of the attributed wall."""
    self_s = dict(trace["self_s"])
    self_s["startup.spawn"] = trace.get("spawn_s", 0.0)
    counts = trace["counts"]
    values = {name: self_s.get(layer, 0.0) / per for layer, name in SELF_LAYERS.items()}
    bfs = self_s.get("search.bfs", 0.0)
    sim_s = self_s.get("sim.run", 0.0)
    gets, puts = trace["calls"].get("cache.get", []), trace["calls"].get("cache.put", [])
    lookups = counts.get("cache.hits", 0.0) + counts.get("cache.misses", 0.0)
    values.update({
        "lint.certificate.decided": counts.get("lint.certificate.decided", 0.0) / per,
        "search.calls": counts.get("search.calls", 0.0) / per,
        "search.states": counts.get("search.states", 0.0) / per,
        "search.states_per_s": counts.get("search.states", 0.0) / bfs if bfs else 0.0,
        "sim.cycles": counts.get("sim.cycles", 0.0) / per,
        "sim.cycles_per_s": counts.get("sim.cycles", 0.0) / sim_s if sim_s else 0.0,
        "sim.flit_moves_per_s": (
            counts.get("sim.flit_moves", 0.0) / sim_s if sim_s else 0.0
        ),
        "cache.get_p50_s": median(gets) or 0.0,
        "cache.put_p50_s": median(puts) or 0.0,
        "cache.hit_ratio": counts.get("cache.hits", 0.0) / lookups if lookups else 0.0,
        "campaign.runner_overhead_s": 0.0,
    })
    for kind in TASK_KINDS:
        values[f"campaign.task.{kind}_s"] = counts.get(f"campaign.task.{kind}_s", 0.0) / per
    for name in (
        "serve.miss.task_s", "serve.miss.wait_s", "serve.hit.http_s",
        "serve.source.cache", "serve.source.live", "serve.source.inflight",
        "serve.batch_size", "serve.first_miss_s",
    ):
        values[name] = 0.0
    return values


def _close_attribution(values: dict[str, float], *, wall: float, overhead: float) -> None:
    """``trace.wall_s`` = the self-time layers + ``unattributed_s``."""
    attributed = sum(values[name] for name in SELF_LAYERS.values())
    values["trace.wall_s"] = wall
    values["unattributed_s"] = wall - attributed
    values["tracing_overhead_s"] = overhead
