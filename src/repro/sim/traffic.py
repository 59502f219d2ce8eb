"""Synthetic traffic for the substrate-validation benchmarks.

Uniform random traffic as :class:`~repro.sim.message.MessageSpec` lists,
seeded for reproducibility: the V1 table, the paper battery's
``simulate`` tasks and perfbench all use it.
"""

from __future__ import annotations

import random

from repro.sim.message import MessageSpec
from repro.topology.network import Network


def uniform_random_traffic(
    net: Network, *, rate: float, cycles: int, length: int = 4, seed: int = 0
) -> list[MessageSpec]:
    """Each node injects Bernoulli(rate) per cycle to a uniform random destination."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1] (messages/node/cycle)")
    if cycles < 1 or length < 1:
        raise ValueError("cycles and length must be >= 1")
    rng = random.Random(seed)
    nodes = net.nodes
    specs: list[MessageSpec] = []
    for t in range(cycles):
        for node in nodes:
            if rng.random() < rate:
                dst = rng.choice(nodes)
                while dst == node:
                    dst = rng.choice(nodes)
                specs.append(
                    MessageSpec(
                        mid=len(specs), src=node, dst=dst, length=length, inject_time=t
                    )
                )
    return specs
