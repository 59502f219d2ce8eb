"""Interconnection-network topology substrate.

The paper (Schwiebert, SPAA '97) models an interconnection network as a
strongly connected directed multigraph whose vertices are processors and
whose arcs are unidirectional channels (Definition 1).  This package provides
that model plus builders for the standard topologies used by the baselines
(rings, meshes, tori, hypercubes, star/hub networks) and by the paper's
custom constructions.

Public API
----------
:class:`Channel`      -- immutable unidirectional (virtual) channel.
:class:`Network`      -- directed multigraph of nodes and channels.
:mod:`builders`       -- ``ring``, ``mesh``, ``torus``, ``hypercube``,
                         ``star``, ``from_edges``.

Structural checks (dangling nodes, duplicate VCs, strong connectivity) are
the lint rules TOP001--TOP003 (:mod:`repro.lint.rules`).
"""

from repro.topology.channels import Channel
from repro.topology.network import Network
from repro.topology.builders import (
    ring,
    mesh,
    torus,
    hypercube,
    star,
    from_edges,
)

__all__ = [
    "Channel",
    "Network",
    "ring",
    "mesh",
    "torus",
    "hypercube",
    "star",
    "from_edges",
]
