"""Channel dependency graph (CDG) construction and analysis.

Dally--Seitz: the CDG has a vertex per channel and a directed edge
``c1 -> c2`` whenever some message is permitted to use ``c2`` immediately
after ``c1``.  An acyclic CDG is *sufficient* for deadlock freedom; the
paper's whole point is that it is not *necessary*, even for oblivious
routing.

Public API
----------
:func:`build_cdg`              -- CDG from (network, routing algorithm).
:class:`DependencyInfo`        -- which (src, dst) pairs induce each edge.
:func:`is_acyclic`             -- Dally--Seitz sufficiency test.
:func:`find_cycles`            -- enumerate simple cycles (capped).
:func:`cycle_channels`         -- edge list of a cycle.
:func:`dally_seitz_numbering`  -- strictly-increasing channel numbering
                                  certificate for acyclic CDGs.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

#: public name -> the submodule defining it, imported on first access
_EXPORTS = {
    "build_cdg": "build",
    "DependencyInfo": "build",
    "is_acyclic": "analysis",
    "find_cycles": "analysis",
    "cycle_channels": "analysis",
    "cycle_summary": "analysis",
    "cycles_through_channel": "analysis",
    "dally_seitz_numbering": "numbering",
    "verify_numbering": "numbering",
    "build_adaptive_cdg": "adaptive",
    "duato_certificate": "adaptive",
    "DuatoCertificate": "adaptive",
    "deadlock_immune_channels": "flow_model",
    "FlowModelResult": "flow_model",
}

if TYPE_CHECKING:  # pragma: no cover - the static view of _EXPORTS
    from repro.cdg.adaptive import DuatoCertificate, build_adaptive_cdg, duato_certificate
    from repro.cdg.analysis import (
        cycle_channels,
        cycle_summary,
        cycles_through_channel,
        find_cycles,
        is_acyclic,
    )
    from repro.cdg.build import DependencyInfo, build_cdg
    from repro.cdg.flow_model import FlowModelResult, deadlock_immune_channels
    from repro.cdg.numbering import dally_seitz_numbering, verify_numbering

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
