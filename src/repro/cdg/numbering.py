"""Dally--Seitz channel numbering certificates.

Dally and Seitz prove deadlock freedom by exhibiting a numbering of the
channels such that every routing step moves to a strictly greater-numbered
channel.  For an acyclic CDG such a numbering always exists (any topological
order); :func:`dally_seitz_numbering` produces one and
:func:`verify_numbering` checks an arbitrary candidate -- the certificate
form used in the corollary experiments and tests.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.cdg.cycles import is_acyclic, topological_order
from repro.cdg.graph import DiGraph
from repro.topology.channels import Channel


def dally_seitz_numbering(cdg: DiGraph) -> dict[Channel, int]:
    """A strictly-increasing channel numbering for an acyclic CDG.

    Raises ``ValueError`` when the CDG has a cycle (no such numbering can
    exist -- which for the paper's Figure 1 network is exactly the point:
    deadlock freedom there cannot be certified this way).
    """
    if not is_acyclic(cdg.adj):
        raise ValueError(
            "CDG is cyclic: no Dally-Seitz numbering exists "
            "(deadlock freedom, if any, must come from unreachability)"
        )
    return {ch: i for i, ch in enumerate(topological_order(cdg.adj))}


def verify_numbering(cdg: DiGraph, numbering: Mapping[Channel, int]) -> bool:
    """True iff ``numbering`` is strictly increasing along every dependency."""
    for c1, c2 in cdg.edges:
        if c1 not in numbering or c2 not in numbering:
            return False
        if numbering[c1] >= numbering[c2]:
            return False
    return True
