"""Golden trajectories of the flit-level simulator.

Every scenario below runs :class:`repro.sim.Simulator` to its end and is
compared against ``tests/fixtures/sim_trajectory_golden.json``.  The
fixture stores the headline numbers in clear (cycles, deliveries, flit
moves, arbitration conflicts, the deadlock report) and a sha256 of each
of the full observable trajectories:

* every ``MessageState`` field of every message;
* ``SimStats`` (latency histogram, busy-cycle map, counters);
* final channel-queue owners and flit contents;
* the complete stream of trace-hook events, in emission order.

Any optimisation of the run loop must leave all of them bit-identical.
The matrix covers every branch of the loop: the campaign's traffic tasks,
all four arbitration policies (random and round-robin carry state, so
order of ``choose`` calls matters), deep buffers, store-and-forward,
virtual cut-through with utilisation tracking, stall schedules (in the
network and at injection), OR-semantics adaptive routing, routing
failures, self-blocking, and a ring that keeps running after deadlock.

The fixture records the semantics of the run loop; it is not rewritten to
make a change pass.  Only a deliberate change of simulator semantics may
regenerate it::

    PYTHONPATH=src python tests/test_sim_trajectory_golden.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from collections.abc import Callable
from pathlib import Path
from typing import Any

import pytest

from repro.campaign.scenarios import build_scenario
from repro.campaign.specs import traffic_tasks
from repro.routing import clockwise_ring, dimension_order_mesh, west_first_mesh
from repro.routing.adaptive import FullyAdaptiveMesh, duato_escape_mesh
from repro.routing.base import RoutingError, RoutingFunction
from repro.sim import (
    AdversarialArbitration,
    FifoArbitration,
    MessageSpec,
    RandomArbitration,
    RoundRobinArbitration,
    SimConfig,
    Simulator,
)
from repro.sim.injection import StallSchedule
from repro.sim.traffic import uniform_random_traffic
from repro.topology import mesh, ring

FIXTURE = Path(__file__).parent / "fixtures" / "sim_trajectory_golden.json"

#: the MessageState fields the fixture was recorded over
MESSAGE_FIELDS = (
    "spec",
    "status",
    "acquired",
    "flits_injected",
    "flits_consumed",
    "inject_cycle",
    "arrival_cycle",
    "done_cycle",
    "wait_cycles",
    "max_consecutive_wait",
    "_current_wait",
    "blocked_on",
    "blocked_candidates",
    "first_request_cycle",
)


# ----------------------------------------------------------------------
# scenario matrix
# ----------------------------------------------------------------------
class _FaultyRing(RoutingFunction):
    """Clockwise ring that rejects destination ``-1``.

    Any other destination off the ring is never reached, so a message
    longer than the ring laps itself and self-blocks.
    """

    def __init__(self, network, n: int) -> None:
        super().__init__(network)
        self._cw = clockwise_ring(network, n)

    def route(self, in_channel, node, dest):
        if dest == -1:
            raise RoutingError("destination -1 is unroutable")
        return self._cw.route(in_channel, node, dest)


def _tagged(specs, mod: int = 3) -> list[MessageSpec]:
    return [dataclasses.replace(s, tag=f"t{s.mid % mod}") for s in specs]


def _traffic_task_scenarios() -> dict[str, Callable[[], dict[str, Any]]]:
    out: dict[str, Callable[[], dict[str, Any]]] = {}
    for task in traffic_tasks():
        params = dict(task.params)

        def make(params=params):
            net, fn, specs = build_scenario("traffic", params).sim
            cfg = SimConfig(max_cycles=int(params.get("max_cycles", 60_000)))
            return dict(network=net, routing=fn, specs=specs, config=cfg)

        out[f"task:{task.name}"] = make
    return out


def _mesh_arbitration(algorithm: str, policy: str) -> Callable[[], dict[str, Any]]:
    def make():
        net = mesh((8, 8))
        fn = dimension_order_mesh(net, 2) if algorithm == "dor" else west_first_mesh(net)
        specs = _tagged(uniform_random_traffic(net, rate=0.07, cycles=120, length=4, seed=21))
        arb = {
            "fifo": FifoArbitration,
            "round-robin": RoundRobinArbitration,
            "random": lambda: RandomArbitration(seed=5),
            "adversarial": lambda: AdversarialArbitration(prefer=("t2", "t0")),
        }[policy]()
        return dict(network=net, routing=fn, specs=specs, arbitration=arb)

    return make


def _deep_buffers():
    net = mesh((4, 4))
    specs = uniform_random_traffic(net, rate=0.12, cycles=150, length=7, seed=2)
    return dict(
        network=net,
        routing=dimension_order_mesh(net, 2),
        specs=specs,
        config=SimConfig(buffer_depth=3),
    )


def _store_and_forward():
    net = mesh((4, 4))
    base = uniform_random_traffic(net, rate=0.08, cycles=150, length=4, seed=4)
    specs = [dataclasses.replace(s, length=1 + s.mid % 4) for s in base]
    return dict(
        network=net,
        routing=dimension_order_mesh(net, 2),
        specs=specs,
        config=SimConfig.store_and_forward(4),
    )


def _cut_through():
    net = mesh((4, 4))
    specs = uniform_random_traffic(net, rate=0.1, cycles=150, length=5, seed=6)
    return dict(
        network=net,
        routing=west_first_mesh(net),
        specs=specs,
        config=SimConfig.virtual_cut_through(5, track_utilization=True),
    )


def _stalls():
    net = mesh((4, 4))
    specs = uniform_random_traffic(net, rate=0.1, cycles=150, length=5, seed=8)
    windows: dict[int, range] = {}
    for s in specs[::5]:  # stalled while still pending
        windows[s.mid] = range(s.inject_time, s.inject_time + 4)
    for s in specs[2::7]:  # stalled mid-flight
        windows[s.mid] = range(s.inject_time + 3, s.inject_time + 9)
    return dict(
        network=net,
        routing=dimension_order_mesh(net, 2),
        specs=specs,
        stalls=StallSchedule(windows),
    )


def _fully_adaptive():
    net = mesh((4, 4))
    specs = uniform_random_traffic(net, rate=0.15, cycles=200, length=6, seed=1)
    return dict(network=net, routing=FullyAdaptiveMesh(net, 2), specs=specs)


def _fully_adaptive_light():
    net = mesh((4, 4))
    specs = uniform_random_traffic(net, rate=0.04, cycles=150, length=3, seed=9)
    return dict(network=net, routing=FullyAdaptiveMesh(net, 2), specs=specs)


def _duato_escape():
    net = mesh((4, 4), vcs=2)
    specs = uniform_random_traffic(net, rate=0.15, cycles=200, length=6, seed=1)
    return dict(network=net, routing=duato_escape_mesh(net, 2), specs=specs)


def _ring_keeps_running():
    net = ring(8)
    specs = uniform_random_traffic(net, rate=0.08, cycles=400, length=10, seed=3)
    return dict(
        network=net,
        routing=clockwise_ring(net, 8),
        specs=specs,
        config=SimConfig(max_cycles=3_000, stop_on_deadlock=False),
    )


def _ring_to_cap():
    net = ring(6)
    specs = [MessageSpec(i, i, (i + 3) % 6, length=8) for i in range(6)]
    specs.append(MessageSpec(6, 2, 4, length=3, inject_time=40))
    return dict(
        network=net,
        routing=clockwise_ring(net, 6),
        specs=specs,
        config=SimConfig(max_cycles=150, stop_on_deadlock=False, quiescence_window=10_000),
    )


def _failures():
    net = ring(6)
    specs = [
        MessageSpec(0, 0, 3, length=2, inject_time=40),  # queued behind m2
        MessageSpec(1, 1, -1, length=3, inject_time=1),  # routing_failed
        MessageSpec(2, 2, 99, length=9),  # laps the ring, self_block
        MessageSpec(3, 4, 0, length=4, inject_time=20),  # queued behind m2
    ]
    return dict(
        network=net,
        routing=_FaultyRing(net, 6),
        specs=specs,
        config=SimConfig(max_cycles=400, quiescence_window=16),
    )


def scenarios() -> dict[str, Callable[[], dict[str, Any]]]:
    out = _traffic_task_scenarios()
    for algorithm in ("dor", "west-first"):
        for policy in ("fifo", "round-robin", "random", "adversarial"):
            out[f"mesh8-{algorithm}-{policy}"] = _mesh_arbitration(algorithm, policy)
    out.update(
        {
            "mesh4-buffer-depth-3": _deep_buffers,
            "mesh4-store-and-forward": _store_and_forward,
            "mesh4-cut-through-utilization": _cut_through,
            "mesh4-stall-schedule": _stalls,
            "mesh4-fully-adaptive": _fully_adaptive,
            "mesh4-fully-adaptive-light": _fully_adaptive_light,
            "mesh4-duato-escape": _duato_escape,
            "ring8-no-stop-on-deadlock": _ring_keeps_running,
            "ring6-deadlock-to-cycle-cap": _ring_to_cap,
            "ring6-routing-failures": _failures,
        }
    )
    return out


# ----------------------------------------------------------------------
# fingerprint
# ----------------------------------------------------------------------
def _plain(value: Any) -> Any:
    """JSON-stable rendering of simulator values (channels by cid)."""
    if hasattr(value, "cid"):
        return ["ch", value.cid]
    if isinstance(value, MessageSpec):
        return [_plain(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return [[_plain(k), _plain(v)] for k, v in value.items()]
    if hasattr(value, "value") and hasattr(value, "name"):  # enum
        return value.value
    return value


def _digest(payload: Any) -> str:
    blob = json.dumps(payload, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fingerprint(build: Callable[[], dict[str, Any]]) -> dict[str, Any]:
    events: list[Any] = []
    kwargs = build()
    sim = Simulator(
        kwargs.pop("network"),
        kwargs.pop("routing"),
        kwargs.pop("specs"),
        trace=lambda cycle, kind, data: events.append(
            [cycle, kind, sorted((k, _plain(v)) for k, v in data.items())]
        ),
        **kwargs,
    )
    res = sim.run()
    stats = res.stats
    dl = res.deadlock
    return {
        "cycles": res.cycles,
        "delivered": res.delivered,
        "total": res.total,
        "timed_out": res.timed_out,
        "flit_moves": stats.flit_moves,
        "arbitration_conflicts": stats.arbitration_conflicts,
        "deadlock": None
        if dl is None
        else {"cycle": dl.cycle, "message_ids": list(dl.message_ids), "kind": dl.kind},
        "trace_events": len(events),
        "messages_sha256": _digest(
            [
                [_plain(getattr(m, name)) for name in MESSAGE_FIELDS]
                for m in res.messages.values()
            ]
        ),
        "stats_sha256": _digest(
            {
                "cycles": stats.cycles,
                "flit_moves": stats.flit_moves,
                "arbitration_conflicts": stats.arbitration_conflicts,
                "delivered_flits": stats.delivered_flits,
                "latencies": stats.latencies.to_json(),
                "channel_busy_cycles": list(stats.channel_busy_cycles.items()),
            }
        ),
        "queues_sha256": _digest(
            [[cid, q.owner, list(q.queue)] for cid, q in sim._queues.items()]
        ),
        "trace_sha256": _digest(events),
    }


# ----------------------------------------------------------------------
# the test
# ----------------------------------------------------------------------
SCENARIOS = scenarios()


@pytest.fixture(scope="module")
def golden() -> dict[str, Any]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trajectory_matches_golden(name, golden):
    assert fingerprint(SCENARIOS[name]) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_sim_trajectory_golden.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {name: fingerprint(build) for name, build in sorted(SCENARIOS.items())}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} scenarios to {FIXTURE}")
