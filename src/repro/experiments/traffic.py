"""Experiment V1 -- substrate validation traffic runs.

Not a paper figure: the paper's evaluation is analytic.  These runs
validate the flit-level simulator in the regimes the paper's model assumes:

* dimension-order and turn-model routing on a mesh deliver all traffic
  (deadlock-free) with latency rising toward saturation as load grows;
* dateline-VC torus routing likewise never deadlocks;
* the unrestricted clockwise ring deadlocks under moderate load -- the
  simulator must catch real deadlocks, or its negative results elsewhere
  would be meaningless.

Every point is a ``simulate traffic`` campaign task run through the
campaign runner, as ``paper-battery`` runs its own traffic tasks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.campaign.tasks import CampaignTask, TaskResult
from repro.experiments.grid import run_grid


@dataclass
class TrafficPoint:
    algorithm: str
    rate: float
    delivered: int
    total: int
    deadlocked: bool
    mean_latency: float
    throughput: float

    def row(self) -> dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "rate": self.rate,
            "delivered": f"{self.delivered}/{self.total}",
            "deadlock": self.deadlocked,
            "mean latency": round(self.mean_latency, 1),
            "flits/cycle": round(self.throughput, 2),
        }

    @classmethod
    def from_result(cls, algorithm: str, r: TaskResult) -> TrafficPoint:
        return cls(
            algorithm=algorithm,
            rate=r.params["rate"],
            delivered=r.detail["delivered"],
            total=r.detail["total"],
            deadlocked=r.verdict == "deadlock",
            mean_latency=r.detail["mean_latency"],
            throughput=r.detail["throughput"],
        )


def run_traffic_experiment(
    rates: Sequence[float] = (0.02, 0.05, 0.1),
    *,
    mesh_dims: tuple[int, int] = (8, 8),
    cycles: int = 300,
) -> list[TrafficPoint]:
    """Latency/throughput points for the mesh/torus baselines.

    Each point is a ``simulate traffic`` campaign task; at the default
    ``mesh_dims`` and ``cycles`` and the CLI's default rates they are
    ``paper-battery`` tasks.
    """
    x, y = mesh_dims
    # the scenario's default cycle count stays out of the parameters, so
    # a default point has the battery's task hash
    run = {} if cycles == 300 else {"cycles": cycles}
    cases = [
        (f"DOR mesh {x}x{y}", {"algorithm": "dor", "dims": mesh_dims}),
        (f"west-first mesh {x}x{y}", {"algorithm": "west-first", "dims": mesh_dims}),
        ("dateline torus 4x4", {"algorithm": "dateline", "dims": (4, 4)}),
    ]
    points = [(name, rate, case) for rate in rates for name, case in cases]
    results = run_grid(
        [
            CampaignTask.make("simulate", "traffic", rate=rate, **case, **run)
            for _, rate, case in points
        ],
        spec_name="traffic",
    )
    return [
        TrafficPoint.from_result(name, r) for (name, _, _), r in zip(points, results)
    ]


def run_ring_deadlock_probe(
    *, n: int = 8, rate: float = 0.08, cycles: int = 400, length: int = 10, seed: int = 3
) -> TrafficPoint:
    """The positive control: unrestricted ring traffic must deadlock."""
    task = CampaignTask.make(
        "simulate", "traffic", algorithm="clockwise", n=n, rate=rate,
        cycles=cycles, length=length, seed=seed,
    )
    (r,) = run_grid([task], spec_name="traffic")
    return TrafficPoint.from_result(f"cw-ring{n}", r)
