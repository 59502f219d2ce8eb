"""CDG cycle analysis.

The Dally--Seitz test (:func:`is_acyclic`) plus cycle enumeration.  Cycle
enumeration on dense CDGs can explode combinatorially, so
:func:`find_cycles` takes a hard cap and reports whether it was hit -- a
truncated enumeration must never be silently presented as exhaustive.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice

from repro.cdg import cycles as _cycles
from repro.cdg.graph import DiGraph
from repro.topology.channels import Channel


def is_acyclic(cdg: DiGraph) -> bool:
    """Dally--Seitz sufficiency check: acyclic CDG implies deadlock freedom."""
    return _cycles.is_acyclic(cdg.adj)


@dataclass
class CycleEnumeration:
    """Result of a (possibly capped) simple-cycle enumeration."""

    cycles: list[tuple[Channel, ...]]
    truncated: bool

    def __len__(self) -> int:
        return len(self.cycles)

    def __iter__(self):
        return iter(self.cycles)


def find_cycles(cdg: DiGraph, *, max_cycles: int = 10_000) -> CycleEnumeration:
    """Enumerate simple cycles of the CDG (each as a channel tuple).

    Keeps the first ``max_cycles`` cycles (one even at a cap of 0, as
    evidence) and sets ``truncated`` only when more than ``max_cycles``
    exist, so callers can refuse to draw exhaustiveness conclusions from a
    partial enumeration -- and a graph with exactly ``max_cycles`` cycles
    is reported complete.
    """
    found = _cycles.simple_cycles(cdg.adj)
    cycles = [tuple(c) for c in islice(found, max(max_cycles, 1))]
    truncated = len(cycles) > max_cycles or next(found, None) is not None
    return CycleEnumeration(cycles=cycles, truncated=truncated)


def cycle_channels(cycle: Sequence[Channel]) -> list[tuple[Channel, Channel]]:
    """The dependency edges of a cycle, closing back to the start."""
    n = len(cycle)
    return [(cycle[i], cycle[(i + 1) % n]) for i in range(n)]


def cycles_through_channel(
    cdg: DiGraph, channel: Channel, *, max_cycles: int = 10_000
) -> CycleEnumeration:
    """Simple cycles that include ``channel``.

    Returns a :class:`CycleEnumeration` (len/iter-compatible with the old
    plain list) so a hit of the ``max_cycles`` cap is reported instead of
    being silently dropped on the filter.
    """
    enum = find_cycles(cdg, max_cycles=max_cycles)
    return CycleEnumeration(
        cycles=[c for c in enum.cycles if channel in c], truncated=enum.truncated
    )


def cycle_summary(cdg: DiGraph, *, max_cycles: int = 10_000) -> dict[str, object]:
    """Compact report used by experiment tables."""
    enum = find_cycles(cdg, max_cycles=max_cycles)
    lengths = sorted(len(c) for c in enum.cycles)
    return {
        "channels": cdg.number_of_nodes(),
        "dependencies": cdg.number_of_edges(),
        "acyclic": is_acyclic(cdg),
        "num_cycles": len(enum.cycles),
        "cycle_lengths": lengths,
        "enumeration_truncated": enum.truncated,
    }
