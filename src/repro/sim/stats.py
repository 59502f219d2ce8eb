"""Simulation statistics.

Latency/throughput collection for the traffic benchmarks.  Latencies
accumulate into the shared bucketed :class:`~repro.obs.core.Histogram`
instead of an unbounded per-delivery list -- a long traffic run used to
hold every latency sample in memory just to compute one p99 at the end.
The histogram is O(1) memory, mergeable across runs, and its bucketed
p50/p95/p99 are upper bounds within one power-of-two bucket, which is
ample resolution for cycle-count latencies; count/sum/min/max (and
therefore the mean) stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs.core import Histogram

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.message import MessageState


@dataclass
class SimStats:
    """Counters accumulated during a run."""

    cycles: int = 0
    flit_moves: int = 0
    arbitration_conflicts: int = 0
    #: bucketed latency distribution (replaces the old unbounded list)
    latencies: Histogram = field(default_factory=Histogram)
    delivered_flits: int = 0
    #: cid -> cycles the channel queue was non-empty (only populated when
    #: SimConfig.track_utilization is set)
    channel_busy_cycles: dict[int, int] = field(default_factory=dict)

    def record_delivery(self, m: "MessageState") -> None:
        lat = m.latency()
        if lat is not None:
            self.latencies.observe(lat)
        self.delivered_flits += m.spec.length

    # ------------------------------------------------------------------
    @property
    def delivered_messages(self) -> int:
        return self.latencies.count

    def mean_latency(self) -> float:
        return self.latencies.mean()  # exact: tracked sum / count

    def throughput_flits_per_cycle(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.delivered_flits / self.cycles

    def channel_utilization(self, cid: int) -> float:
        """Fraction of cycles channel ``cid`` was busy (0.0 when untracked)."""
        if self.cycles == 0:
            return 0.0
        return self.channel_busy_cycles.get(cid, 0) / self.cycles

    def hottest_channels(self, k: int = 5) -> list[tuple[int, float]]:
        """The ``k`` busiest channels as ``(cid, utilization)`` pairs."""
        ranked = sorted(self.channel_busy_cycles.items(), key=lambda kv: -kv[1])
        return [(cid, self.channel_utilization(cid)) for cid, _ in ranked[:k]]
