"""Channel model.

A *channel* is a unidirectional link from one node to a neighbouring node
(paper Definition 1).  Virtual channels (Dally's virtual-channel flow
control) are modelled as distinct :class:`Channel` objects that share the
same ``(src, dst)`` endpoints but carry different ``vc`` indices; the
dependency analysis and the simulator treat every :class:`Channel` as an
independently allocatable resource with its own flit queue, which is exactly
the resource model of the paper.

Channels are immutable and hashable so they can serve directly as vertices
of the channel dependency graph (a :class:`repro.cdg.graph.DiGraph`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

NodeId = Hashable


@dataclass(frozen=True, order=False)
class Channel:
    """A unidirectional (virtual) channel ``src -> dst``.

    Parameters
    ----------
    cid:
        Network-unique integer id.  Assigned by :class:`~repro.topology.network.Network`;
        two channels compare equal iff their ``cid`` is equal, which makes
        hashing cheap even when node ids are tuples.
    src, dst:
        Endpoint node ids.  ``src`` transmits, ``dst`` receives.
    vc:
        Virtual-channel index within the physical ``src -> dst`` link.
    label:
        Optional human-readable name (``"cs"``, ``"x+ (0,0)"`` ...), used in
        reports and error messages.  Not part of equality.
    """

    cid: int
    src: NodeId = field(compare=False)
    dst: NodeId = field(compare=False)
    vc: int = field(default=0, compare=False)
    label: str | None = field(default=None, compare=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = self.label if self.label is not None else f"c{self.cid}"
        vc = f"/vc{self.vc}" if self.vc else ""
        return f"<{name}:{self.src}->{self.dst}{vc}>"

    @property
    def endpoints(self) -> tuple[NodeId, NodeId]:
        """``(src, dst)`` pair, convenient for physical-link grouping."""
        return (self.src, self.dst)

    def short(self) -> str:
        """Compact display string used in experiment tables."""
        if self.label is not None:
            return self.label
        return f"{self.src}->{self.dst}" + (f"#{self.vc}" if self.vc else "")
