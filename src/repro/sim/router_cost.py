"""Chien-style router cost and cycle-time model (paper reference [4]).

The paper's introduction motivates oblivious routing with Chien's
observation that "oblivious routing algorithms usually require less complex
routers and may have a faster network cycle time".  This module implements
a simplified version of Chien's k-ary n-cube router delay model so that
claim can be *measured* for the algorithms in this repository:

* the router's critical path is decomposed into address decode, routing
  arbitration, crossbar traversal and virtual-channel controller stages;
* arbitration and crossbar delays grow logarithmically in the switch
  degree (physical ports x virtual channels + injection/delivery);
* adaptive routers pay an extra arbitration stage proportional to the
  size of the candidate set they must select from.

Absolute numbers are technology constants (defaults loosely follow the
0.8um gate-delay figures of the original paper, in nanoseconds); the
*relative* comparisons are the point -- e.g. the Figure 1 hub router N*
concentrates the whole network's traffic and its crossbar dwarfs a mesh
router's, which is an honest cost of the paper's construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.topology.channels import NodeId
from repro.topology.network import Network


@dataclass(frozen=True)
class RouterCostModel:
    """Technology constants for the delay model (arbitrary ns-like units)."""

    t_decode: float = 2.7  # address decode / header parse
    t_arb_base: float = 1.4  # arbitration, plus per-log2(ports) term
    t_arb_per_log: float = 0.6
    t_xbar_base: float = 0.6  # crossbar, plus per-log2(ports) term
    t_xbar_per_log: float = 0.6
    t_vc_base: float = 1.2  # VC controller, plus per-log2(vcs) term
    t_vc_per_log: float = 0.6
    t_adaptive_per_log: float = 0.9  # selection among routing candidates


@dataclass
class RouterCost:
    """Per-router complexity figures."""

    node: NodeId
    in_ports: int
    out_ports: int
    max_vcs: int
    candidate_width: int
    cycle_time: float
    crossbar_points: int

    def row(self) -> dict[str, object]:
        return {
            "node": str(self.node),
            "in": self.in_ports,
            "out": self.out_ports,
            "vcs": self.max_vcs,
            "xbar points": self.crossbar_points,
            "cycle time": round(self.cycle_time, 2),
        }


def _log2(x: int) -> float:
    return math.log2(max(2, x))


def router_cost(
    net: Network,
    node: NodeId,
    *,
    model: RouterCostModel | None = None,
    candidate_width: int = 1,
) -> RouterCost:
    """Cost of one node's router.

    ``candidate_width`` is the maximum number of output candidates the
    routing function may offer (1 for oblivious algorithms); adaptive
    selection adds a stage growing with its log.
    Injection and delivery each add one port.
    """
    m = model or RouterCostModel()
    ins = len(net.channels_in(node)) + 1  # + injection
    outs = len(net.channels_out(node)) + 1  # + delivery
    vcs_in: dict[tuple[NodeId, NodeId], int] = {}
    for ch in net.channels_in(node) + net.channels_out(node):
        key = (ch.src, ch.dst)
        vcs_in[key] = vcs_in.get(key, 0) + 1
    max_vcs = max(vcs_in.values(), default=1)
    ports = max(ins, outs)
    cycle = (
        m.t_decode
        + m.t_arb_base
        + m.t_arb_per_log * _log2(ports)
        + m.t_xbar_base
        + m.t_xbar_per_log * _log2(ports)
        + m.t_vc_base
        + m.t_vc_per_log * _log2(max_vcs)
    )
    if candidate_width > 1:
        cycle += m.t_adaptive_per_log * _log2(candidate_width)
    return RouterCost(
        node=node,
        in_ports=ins,
        out_ports=outs,
        max_vcs=max_vcs,
        candidate_width=candidate_width,
        cycle_time=cycle,
        crossbar_points=ins * outs,
    )


@dataclass
class NetworkCost:
    """Whole-network figures: the clock must satisfy the slowest router."""

    per_node: list[RouterCost] = field(default_factory=list)

    @property
    def cycle_time(self) -> float:
        return max((r.cycle_time for r in self.per_node), default=0.0)

    @property
    def bottleneck(self) -> RouterCost:
        return max(self.per_node, key=lambda r: r.cycle_time)

    @property
    def total_crossbar_points(self) -> int:
        return sum(r.crossbar_points for r in self.per_node)

    def summary(self) -> dict[str, object]:
        b = self.bottleneck
        return {
            "routers": len(self.per_node),
            "network cycle time": round(self.cycle_time, 2),
            "bottleneck node": str(b.node),
            "bottleneck ports": max(b.in_ports, b.out_ports),
            "total xbar points": self.total_crossbar_points,
        }


def network_cost(
    net: Network,
    *,
    model: RouterCostModel | None = None,
    candidate_width: int = 1,
) -> NetworkCost:
    """Router costs for every node; the max cycle time clocks the network."""
    return NetworkCost(
        per_node=[
            router_cost(net, node, model=model, candidate_width=candidate_width)
            for node in net.nodes
        ]
    )
