"""Structural validation of networks.

Definition 1 of the paper requires the interconnection network to be a
*strongly connected* directed multigraph.  The custom figure networks are
assembled channel-by-channel, so experiments validate them explicitly before
analysis -- a malformed reconstruction should fail loudly here rather than
silently distort a deadlock-reachability result.
"""

from __future__ import annotations

from repro.topology.network import Network


class NetworkValidationError(ValueError):
    """Raised when a network violates a structural requirement."""


def check_strongly_connected(net: Network) -> None:
    """Raise :class:`NetworkValidationError` unless ``net`` is strongly connected."""
    from repro.cdg.graph import is_strongly_connected, strongly_connected_components

    g = net.node_digraph()
    if net.num_nodes == 0:
        raise NetworkValidationError("network has no nodes")
    if not is_strongly_connected(g.adj):
        comps = sorted(strongly_connected_components(g.adj), key=len, reverse=True)
        raise NetworkValidationError(
            f"network {net.name!r} is not strongly connected: "
            f"{len(comps)} components, largest has {len(comps[0])} of {net.num_nodes} nodes"
        )


def check_no_dangling(net: Network) -> None:
    """Every node must have at least one outgoing and one incoming channel."""
    for node in net.nodes:
        if not net.channels_out(node):
            raise NetworkValidationError(f"node {node!r} has no outgoing channels")
        if not net.channels_in(node):
            raise NetworkValidationError(f"node {node!r} has no incoming channels")


def check_unique_vcs(net: Network) -> None:
    """Parallel channels between the same node pair must have distinct VC ids.

    The simulator treats ``(src, dst, vc)`` collisions as distinct resources
    anyway (channels are identified by ``cid``), but duplicate VC indices on
    one physical link almost always indicate a builder bug.
    """
    seen: dict[tuple, int] = {}
    for ch in net.channels:
        key = (ch.src, ch.dst, ch.vc)
        if key in seen:
            raise NetworkValidationError(
                f"channels {seen[key]} and {ch.cid} duplicate VC {ch.vc} on link "
                f"{ch.src!r}->{ch.dst!r}"
            )
        seen[key] = ch.cid


def check_network(net: Network, *, require_strong: bool = True) -> None:
    """Run the full validation suite on ``net``."""
    if net.num_nodes < 2:
        raise NetworkValidationError("network needs at least two nodes")
    check_unique_vcs(net)
    check_no_dangling(net)
    if require_strong:
        check_strongly_connected(net)
