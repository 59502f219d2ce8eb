"""Theorem 3: minimal oblivious routing admits no Figure-1-style cycles.

Theorem 3: *unreachable cyclic configurations with a single shared channel
are not possible with minimal oblivious routing if all the messages in the
configuration use the shared channel.*  The proof forces
``d_1 > d_2 > ... > d_r > d_1`` from subpath minimality -- a contradiction.

Executable form: the E5 experiment (:mod:`repro.experiments.theorem3`)
sweeps the shared-cycle parameter family, recording per construction
whether its routing is minimal and its exhaustive-search classification;
Theorem 3 predicts the conjunction *minimal AND unreachable* never occurs.
This module holds the other half: the paper's Figure 1 instance must
certify as nonminimal (its approach chains shortcut each other's ring
walks).
"""

from __future__ import annotations

from repro.routing.base import RoutingAlgorithm
from repro.routing.properties import minimality_slack


def fig1_nonminimality_certificate() -> dict[str, int]:
    """Per-exception-pair excess hops of the Figure 1 algorithm.

    All four cycle messages must show strictly positive slack (the hub
    relay reaches each ``D_i`` in two hops), which certifies the Cyclic
    Dependency algorithm as nonminimal -- consistent with Theorem 3, since
    it *does* have an unreachable cycle.
    """
    from repro.core.cyclic_dependency import build_cyclic_dependency_network

    cdn = build_cyclic_dependency_network()
    alg: RoutingAlgorithm = cdn.algorithm
    slack = minimality_slack(alg, list(cdn.message_pairs.values()))
    return {f"{s}->{d}": v for (s, d), v in slack.items()}
