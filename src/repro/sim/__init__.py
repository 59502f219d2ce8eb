"""Flit-level wormhole-routing network simulator.

A synchronous, cycle-driven simulator implementing the paper's Section 3
model exactly:

* messages are divided into flits; the header flit carries the route and
  data flits follow (wormhole switching);
* each channel has its own flit queue of configurable depth (default one
  flit -- the paper's worst case);
* **atomic buffer allocation** (Assumption 4): a channel queue holds flits
  of at most one message, and is released only after the message's tail flit
  has left it;
* blocked messages stay in the network holding every channel they occupy;
* arriving messages are consumed at one flit per cycle (Assumption 2);
* arbitration among simultaneous requests is pluggable: a starvation-free
  FIFO default (Assumption 5) and the paper's adversarial "the message
  that can lead to deadlock wins" policy (Section 3).

Public API
----------
:class:`MessageSpec` / :class:`MessageState` -- message description/runtime.
:class:`Simulator`                          -- the engine.
:class:`SimConfig`                          -- buffer depth, limits, policy.
:mod:`arbitration`                          -- arbitration policies.
:mod:`traffic`                              -- uniform random traffic.
:func:`detect_deadlock`                     -- greatest-fixpoint deadlock test.
"""

from repro.sim.message import MessageSpec, MessageState, MessageStatus
from repro.sim.arbitration import (
    ArbitrationPolicy,
    FifoArbitration,
    AdversarialArbitration,
)
from repro.sim.engine import Simulator, SimConfig, SimResult
from repro.sim.deadlock import detect_deadlock, build_wait_for_graph, DeadlockReport
from repro.sim.injection import StallSchedule
from repro.sim.traffic import uniform_random_traffic
from repro.sim.stats import SimStats
from repro.sim.router_cost import RouterCostModel, router_cost, network_cost

__all__ = [
    "MessageSpec",
    "MessageState",
    "MessageStatus",
    "ArbitrationPolicy",
    "FifoArbitration",
    "AdversarialArbitration",
    "Simulator",
    "SimConfig",
    "SimResult",
    "detect_deadlock",
    "build_wait_for_graph",
    "DeadlockReport",
    "StallSchedule",
    "uniform_random_traffic",
    "SimStats",
    "RouterCostModel",
    "router_cost",
    "network_cost",
]
