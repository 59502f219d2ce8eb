"""Stall scheduling.

:class:`StallSchedule` encodes the Section 6 adversary: a router may delay a
message's in-network progress on chosen cycles.  The deterministic simulator
consumes it; the model checker explores stalls nondeterministically instead.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping


class StallSchedule:
    """Per-message sets of cycles on which in-network progress is frozen.

    ``stalls`` maps message id to an iterable of cycle numbers.  Used to
    reproduce the Section 6 "delayed one or more clock cycles" scenarios
    deterministically.
    """

    def __init__(self, stalls: Mapping[int, Iterable[int]] | None = None) -> None:
        self._stalls: dict[int, frozenset[int]] = {}
        if stalls:
            for mid, cycles in stalls.items():
                self._stalls[mid] = frozenset(int(c) for c in cycles)

    def stalled(self, mid: int, cycle: int) -> bool:
        cycles = self._stalls.get(mid)
        return cycles is not None and cycle in cycles

    def total_budget(self, mid: int) -> int:
        """Number of stall cycles scheduled for ``mid``."""
        return len(self._stalls.get(mid, frozenset()))
