"""Graphviz-DOT exporters."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.cdg.graph import DiGraph
from repro.topology.channels import Channel
from repro.topology.network import Network


def _quote(x: object) -> str:
    return '"' + str(x).replace('"', r"\"") + '"'


def network_to_dot(
    net: Network,
    *,
    highlight: Iterable[Channel] = (),
    name: str | None = None,
) -> str:
    """Render the network as a DOT digraph.

    ``highlight`` channels (e.g. a dependency cycle's ring) are drawn bold
    red.  Parallel channels keep separate edges, labelled with their VC.
    """
    hot = {c.cid for c in highlight}
    lines = [f"digraph {_quote(name or net.name)} {{", "  rankdir=LR;"]
    for node in net.nodes:
        lines.append(f"  {_quote(node)};")
    for ch in net.channels:
        attrs = []
        if ch.label:
            attrs.append(f"label={_quote(ch.label)}")
        elif ch.vc:
            attrs.append(f"label={_quote(f'vc{ch.vc}')}")
        if ch.cid in hot:
            attrs.append('color="red"')
            attrs.append("penwidth=2.0")
        attr_s = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_quote(ch.src)} -> {_quote(ch.dst)}{attr_s};")
    lines.append("}")
    return "\n".join(lines)


def cdg_to_dot(
    cdg: DiGraph,
    *,
    cycle: Sequence[Channel] = (),
    name: str = "cdg",
) -> str:
    """Render a channel dependency graph as DOT (vertices are channels).

    Edges belonging to ``cycle`` (consecutive channels, wrapping) are drawn
    bold red -- the visual counterpart of the paper's Figure 1 highlight.
    """
    cyc = list(cycle)
    cyc_edges = {
        (cyc[i].cid, cyc[(i + 1) % len(cyc)].cid) for i in range(len(cyc))
    } if cyc else set()
    lines = [f"digraph {_quote(name)} {{", "  rankdir=LR;", '  node [shape=box];']
    for ch in cdg.nodes:
        attrs = []
        if any(ch.cid == a or ch.cid == b for a, b in cyc_edges):
            attrs.append('color="red"')
        attr_s = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_quote(ch.short())}{attr_s};")
    for a, b in cdg.edges:
        attrs = []
        if (a.cid, b.cid) in cyc_edges:
            attrs.append('color="red"')
            attrs.append("penwidth=2.0")
        attr_s = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_quote(a.short())} -> {_quote(b.short())}{attr_s};")
    lines.append("}")
    return "\n".join(lines)
