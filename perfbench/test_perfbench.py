"""Unit tests for the benchmark's own logic (no workload is run).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time

import pytest

import harness
import traffic
import tracer
import workloads as wl


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert harness.percentile(values, 0.9) == 90.0  # 10 samples beyond
    assert harness.percentile(values[:99], 0.9) is None  # only 9 beyond
    assert harness.percentile(values[:20], 0.5) == 10.0
    assert harness.percentile(values[:19], 0.5) is None
    assert harness.percentile([], 0.5) is None


def test_percentile_ignores_order():
    values = [float(i) for i in range(200)]
    shuffled = values[::-1]
    assert harness.percentile(values, 0.9) == harness.percentile(shuffled, 0.9) == 179.0


# ----------------------------------------------------------------------
# host-speed scaling and paced children
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(harness.PROBES))
def test_host_speed_factor(kind, tmp_path):
    ref_s, elasticity = harness.PROBES[kind]
    speed = harness.HostSpeed(kind, {}, tmp_path)
    with pytest.raises(harness.BenchError):
        speed.factor()
    speed.samples = [ref_s] * 3
    assert speed.factor() == pytest.approx(1.0)
    speed.samples = [2 * ref_s, 2 * ref_s, 99.0]
    assert speed.factor() == pytest.approx(0.5 ** elasticity)


def test_paced_child_is_frozen_for_probes_and_reaped(tmp_path):
    speed = harness.HostSpeed("compute", {}, tmp_path)
    busy = "import time\nt = time.perf_counter()\nwhile time.perf_counter() - t < 0.8: pass\n"
    t0 = time.perf_counter()
    proc = harness.run_child([sys.executable, "-c", busy], {}, cwd=tmp_path, pace=speed)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0
    assert len(proc.pauses) >= 2
    assert len(speed.samples) == len(proc.pauses) + 1  # one before the spawn
    # the reported wall leaves the frozen time out
    assert 0.0 < proc.wall_s <= elapsed - sum(d for _, d in proc.pauses)
    assert proc.paused_before(proc.spawned_at) == 0.0
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# serve traffic generator
# ----------------------------------------------------------------------
def _take(seed: int, n: int = 600) -> list[str]:
    return [traffic.query_key(q) for q in itertools.islice(traffic.stream(seed), n)]


def test_stream_is_deterministic_per_seed():
    assert _take(7) == _take(7)
    assert _take(7) != _take(8)


def test_stream_mix_and_population():
    keys = _take(3, 3000)
    population = {traffic.query_key(q) for q in traffic.population()}
    assert set(keys) <= population
    fresh = len(set(keys)) / len(keys)
    assert abs(fresh - traffic.P_NEW) < 0.03  # first sightings are the misses


def test_population_is_valid_and_distinct():
    pop = traffic.population()
    assert len({traffic.query_key(q) for q in pop}) == len(pop) == 2409
    assert all(p["hold"] >= 2 for s, p in pop if s == "fig2-pair")


# ----------------------------------------------------------------------
# results schema
# ----------------------------------------------------------------------
def _all_layer_values() -> dict[str, float]:
    values = wl._layer_values({"self_s": {}, "counts": {}, "calls": {}})
    wl._close_attribution(values, wall=1.0, overhead=0.0)
    values["startup.interp_s"] = 0.02
    return values


def test_layer_values_cover_exactly_the_declared_per_layer_metrics():
    declared = {m["name"] for m in harness.load_manifest()["per_layer"]}
    assert set(_all_layer_values()) == declared


def test_attribution_closes():
    values = wl._layer_values({
        "self_s": {"search.bfs": 2.0, "startup.import": 0.5, "cache.put": 0.25},
        "counts": {"search.states": 100.0},
        "calls": {},
        "spawn_s": 0.1,
    })
    wl._close_attribution(values, wall=3.0, overhead=0.2)
    parts = sum(values[n] for n in wl.SELF_LAYERS.values()) + values["unattributed_s"]
    assert parts == pytest.approx(values["trace.wall_s"]) == pytest.approx(3.0)
    assert values["unattributed_s"] == pytest.approx(0.15)
    assert values["search.states_per_s"] == pytest.approx(50.0)


@pytest.mark.parametrize("trace", [False, True])
def test_result_line_schema(trace):
    manifest = harness.load_manifest()
    declared = manifest["per_layer" if trace else "end_to_end"]
    values = {m["name"]: 1.5 for m in declared}
    line = harness.result_line(
        correct=True, attempted=10, failed=0, values=values, trace=trace
    )
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert line["metrics"][m["name"]] == {"value": 1.5, "unit": m["unit"]}
    json.dumps(line)  # one JSON object
    with pytest.raises(harness.BenchError):
        harness.result_line(
            correct=True, attempted=1, failed=0, values={}, trace=trace
        )


def test_manifest_matches_contract_and_description():
    manifest = harness.load_manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [m["name"] for part in ("end_to_end", "per_layer") for m in manifest[part]]
    assert len(names) == len(set(names))
    e2e = {m["name"]: m for m in manifest["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()) <= 0.25
    assert {w["name"] for w in manifest["workloads"]} == set(wl_names())
    describe = json.loads((harness.BENCH_DIR / "describe.json").read_text())
    assert set(describe["workloads"]) == set(wl_names())
    assert set(describe["end_to_end"]) == set(e2e)
    assert set(describe["per_layer"]) == {m["name"] for m in manifest["per_layer"]}
    metrics = set(e2e)
    for entry in describe["per_layer"].values():
        for move in entry["moves"]:
            metric, _, workload = move.partition(" on ")
            assert metric in metrics and workload in wl_names()


def wl_names() -> list[str]:
    import run

    return list(run.WORKLOADS)


# ----------------------------------------------------------------------
# tracer self-time accounting
# ----------------------------------------------------------------------
def test_tracer_self_times_partition_nested_spans():
    t = tracer.Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.02)
        t.call("inner", inner, (), {})

    t0 = time.perf_counter()
    t.call("outer", outer, (), {})
    total = time.perf_counter() - t0
    # each span sleeps 20 ms itself; a busy host only lengthens the sleeps
    assert t.self_s["inner"] >= 0.02
    assert t.self_s["outer"] >= 0.02
    assert t.self_s["inner"] + t.self_s["outer"] <= total


def test_tracer_stacks_are_per_thread():
    t = tracer.Tracer()

    def work():
        for _ in range(200):
            t.call("leaf", lambda: None, (), {})

    threads = [threading.Thread(target=work) for _ in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=10)
        assert not th.is_alive()
    assert t.stack() == []
    assert t.self_s["leaf"] >= 0.0
