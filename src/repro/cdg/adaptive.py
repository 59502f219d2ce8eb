"""CDG construction for adaptive routing functions (Duato's setting).

For adaptive routing the dependency relation must consider *every*
candidate channel, and which (channel, destination) pairs actually occur
requires forward reachability from injection: channel ``c`` is usable
toward destination ``d`` iff some message can be routed onto ``c`` en route
to ``d``.  :func:`build_adaptive_cdg` computes that by BFS per destination.

:func:`duato_certificate` packages the sufficiency check the paper cites
(Duato '91/'93): the full adaptive CDG may be cyclic, but if a connected
escape subfunction's CDG is acyclic the algorithm is deadlock-free.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.cdg.analysis import is_acyclic
from repro.cdg.build import build_cdg
from repro.cdg.cycles import topological_order
from repro.cdg.graph import DiGraph
from repro.routing.adaptive import AdaptiveRoutingFunction
from repro.routing.base import INJECT, RoutingAlgorithm, RoutingError
from repro.topology.channels import Channel


def build_adaptive_cdg(fn: AdaptiveRoutingFunction) -> DiGraph:
    """The extended channel dependency graph of an adaptive function.

    Vertices are channels usable by some (source, destination) pair; edge
    ``c1 -> c2`` whenever a message heading to some destination may use
    ``c2`` immediately after ``c1``.
    """
    net = fn.network
    g = DiGraph(name=f"acdg({fn.name()})")
    for dest in net.nodes:
        frontier: deque = deque()
        seen: set[int] = set()
        for src in net.nodes:
            if src == dest:
                continue
            try:
                for c in fn.candidates(INJECT, src, dest):
                    if c.cid not in seen:
                        seen.add(c.cid)
                        frontier.append(c)
                        g.add_node(c)
            except RoutingError:
                continue
        while frontier:
            c1 = frontier.popleft()
            if c1.dst == dest:
                continue
            try:
                nxt = fn.candidates(c1, c1.dst, dest)
            except RoutingError:
                continue
            for c2 in nxt:
                if c2 not in g:
                    g.add_node(c2)
                g.add_edge(c1, c2)
                if c2.cid not in seen:
                    seen.add(c2.cid)
                    frontier.append(c2)
    return g


@dataclass
class DuatoCertificate:
    """Outcome of Duato's sufficiency check for one adaptive function."""

    full_cdg_acyclic: bool
    escape_cdg_acyclic: bool
    escape_connected: bool
    #: channels of the escape sub-CDG -- the resource set the certificate
    #: reasons about
    escape_channels: tuple[Channel, ...] = ()
    #: a topological order of the escape sub-CDG when acyclic: the
    #: constructive content of the certificate (escape channels always
    #: drain in this order, so a blocked message can eventually escape)
    escape_order: tuple[Channel, ...] = ()

    @property
    def deadlock_free(self) -> bool:
        """Duato's sufficient condition holds."""
        return self.escape_cdg_acyclic and self.escape_connected


def duato_certificate(fn: AdaptiveRoutingFunction) -> DuatoCertificate:
    """Evaluate Duato's condition: acyclic, connected escape subfunction.

    Requires ``fn`` to expose ``escape_function()`` (as
    :func:`repro.routing.adaptive.duato_escape_mesh` does).
    """
    escape_fn = getattr(fn, "escape_function", None)
    if escape_fn is None:
        raise ValueError(f"{fn.name()} exposes no escape subfunction")
    escape = escape_fn()
    alg = RoutingAlgorithm(escape)
    from repro.routing.properties import is_connected

    escape_cdg = build_cdg(alg)
    full = build_adaptive_cdg(fn)
    escape_acyclic = is_acyclic(escape_cdg)
    return DuatoCertificate(
        full_cdg_acyclic=is_acyclic(full),
        escape_cdg_acyclic=escape_acyclic,
        escape_connected=is_connected(alg),
        escape_channels=tuple(sorted(escape_cdg.nodes, key=lambda c: c.cid)),
        escape_order=(
            tuple(topological_order(escape_cdg.adj)) if escape_acyclic else ()
        ),
    )
