"""The interconnection network: a directed multigraph of nodes and channels.

Implements paper Definition 1: ``I = G(N, C)`` where vertices are processors
and arcs are channels.  Multiple parallel channels between the same node pair
are allowed (virtual channels, or physically replicated links such as the
direct hub links in the paper's Figure 1 network).

The class is deliberately simple and dictionary-backed: channel lookups by
id, by label, and by endpoints are all O(1), which keeps the hot paths of the
simulator and the model checker cheap (see the HPC guide's advice to fix the
algorithmic layer before micro-optimizing).
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.topology.channels import Channel, NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx


class Network:
    """A strongly-connected-by-convention directed multigraph.

    Construction does not enforce strong connectivity (the paper's custom
    figures are built channel-by-channel); call
    :func:`repro.topology.validate.check_strongly_connected` when the
    property is required.
    """

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self._nodes: dict[NodeId, None] = {}  # insertion-ordered set
        self._channels: list[Channel] = []
        self._by_label: dict[str, Channel] = {}
        self._out: dict[NodeId, list[Channel]] = {}
        self._in: dict[NodeId, list[Channel]] = {}
        self._by_endpoints: dict[tuple[NodeId, NodeId], list[Channel]] = {}
        #: all-pairs hop distances; dropped by every mutation
        self._spl_cache: dict[NodeId, dict[NodeId, int]] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId) -> NodeId:
        """Add ``node`` (idempotent) and return it."""
        if node not in self._nodes:
            self._nodes[node] = None
            self._out[node] = []
            self._in[node] = []
            self._spl_cache = None
        return node

    def add_channel(
        self,
        src: NodeId,
        dst: NodeId,
        *,
        vc: int = 0,
        label: str | None = None,
    ) -> Channel:
        """Create a unidirectional channel ``src -> dst`` and return it.

        Nodes are added implicitly.  ``label`` must be unique when given.
        Self-loop channels are rejected: a channel connects *neighbouring*
        processors (Definition 1) and a self-loop would let a message wait
        on itself.
        """
        if src == dst:
            raise ValueError(f"self-loop channel at node {src!r} not allowed")
        if label is not None and label in self._by_label:
            raise ValueError(f"duplicate channel label {label!r}")
        self.add_node(src)
        self.add_node(dst)
        ch = Channel(cid=len(self._channels), src=src, dst=dst, vc=vc, label=label)
        self._channels.append(ch)
        self._out[src].append(ch)
        self._in[dst].append(ch)
        self._by_endpoints.setdefault((src, dst), []).append(ch)
        if label is not None:
            self._by_label[label] = ch
        self._spl_cache = None
        return ch

    def add_bidirectional(
        self,
        a: NodeId,
        b: NodeId,
        *,
        vc: int = 0,
        label: str | None = None,
    ) -> tuple[Channel, Channel]:
        """Add the channel pair ``a -> b`` and ``b -> a``.

        The paper's figures use bidirectional links; each direction is an
        independent resource.  Labels get ``+``/``-`` suffixes.
        """
        fwd = self.add_channel(a, b, vc=vc, label=None if label is None else f"{label}+")
        rev = self.add_channel(b, a, vc=vc, label=None if label is None else f"{label}-")
        return fwd, rev

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[NodeId]:
        return list(self._nodes)

    @property
    def channels(self) -> list[Channel]:
        return list(self._channels)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_channels(self) -> int:
        return len(self._channels)

    def has_node(self, node: NodeId) -> bool:
        return node in self._nodes

    def channel(self, cid: int) -> Channel:
        """Channel by integer id."""
        return self._channels[cid]

    def channel_by_label(self, label: str) -> Channel:
        try:
            return self._by_label[label]
        except KeyError:
            raise KeyError(f"no channel labelled {label!r} in {self.name!r}") from None

    def channels_out(self, node: NodeId) -> list[Channel]:
        """Channels whose source is ``node``."""
        return list(self._out.get(node, ()))

    def channels_in(self, node: NodeId) -> list[Channel]:
        """Channels whose destination is ``node``."""
        return list(self._in.get(node, ()))

    def channels_between(self, src: NodeId, dst: NodeId) -> list[Channel]:
        """All parallel channels ``src -> dst`` (possibly several VCs)."""
        return list(self._by_endpoints.get((src, dst), ()))

    def neighbors_out(self, node: NodeId) -> list[NodeId]:
        seen: dict[NodeId, None] = {}
        for ch in self._out.get(node, ()):
            seen[ch.dst] = None
        return list(seen)

    def degree_out(self, node: NodeId) -> int:
        return len(self._out.get(node, ()))

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Channel):
            return 0 <= item.cid < len(self._channels) and self._channels[item.cid] is item
        return item in self._nodes

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Network {self.name!r}: {self.num_nodes} nodes, {self.num_channels} channels>"

    # ------------------------------------------------------------------
    # graph views
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.MultiDiGraph:
        """Export as a :class:`networkx.MultiDiGraph` (channel on edge data)."""
        import networkx as nx

        g = nx.MultiDiGraph(name=self.name)
        g.add_nodes_from(self._nodes)
        for ch in self._channels:
            g.add_edge(ch.src, ch.dst, key=ch.cid, channel=ch)
        return g

    def node_digraph(self) -> nx.DiGraph:
        """Collapsed simple digraph over nodes (used for shortest paths)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self._nodes)
        g.add_edges_from((ch.src, ch.dst) for ch in self._channels)
        return g

    def shortest_path_lengths(self) -> dict[NodeId, dict[NodeId, int]]:
        """All-pairs hop distances on the node digraph.

        Cached after the first call until the network changes
        (:meth:`add_node` of a new node, :meth:`add_channel`).
        """
        cached = self._spl_cache
        if cached is None:
            import networkx as nx

            g = self.node_digraph()
            cached = {s: d for s, d in nx.all_pairs_shortest_path_length(g)}
            self._spl_cache = cached
        return cached

    def distance(self, src: NodeId, dst: NodeId) -> int:
        """Hop distance ``src -> dst``; raises ``KeyError`` if unreachable."""
        return self.shortest_path_lengths()[src][dst]

    def invalidate_caches(self) -> None:
        """Drop derived caches (mutations already do this themselves)."""
        self._spl_cache = None
