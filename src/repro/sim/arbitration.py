"""Arbitration policies for simultaneous channel requests.

Section 3 of the paper makes two stipulations:

* Assumption 5 -- waiting messages are served in an order that prevents
  starvation (:class:`FifoArbitration` is the faithful default);
* the adversarial stipulation used to *construct* deadlocks: "when multiple
  messages arrive simultaneously and request the same output channel, and
  one of these messages can lead to a deadlock, that message is assumed to
  acquire the channel" (:class:`AdversarialArbitration`, driven by a
  preference order over message tags).

The deterministic simulator takes one policy; the exhaustive model checker
in :mod:`repro.analysis` instead *branches over every winner*, which
subsumes all policies.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.sim.message import MessageState
from repro.topology.channels import Channel


class ArbitrationPolicy(ABC):
    """Chooses, per contested channel, which requester wins this cycle."""

    @abstractmethod
    def choose(
        self, channel: Channel, requesters: Sequence[MessageState], cycle: int
    ) -> MessageState:
        """Return the winning requester (must be an element of ``requesters``)."""


class FifoArbitration(ArbitrationPolicy):
    """Longest-waiting requester wins; ties broken by lowest message id.

    Starvation-free (Assumption 5): a message's first-request cycle for a
    channel only ever gets older, so it eventually outranks newcomers.
    """

    def choose(
        self, channel: Channel, requesters: Sequence[MessageState], cycle: int
    ) -> MessageState:
        return min(
            requesters,
            key=lambda m: (m.first_request_cycle.get(channel.cid, cycle), m.mid),
        )


class AdversarialArbitration(ArbitrationPolicy):
    """The paper's deadlock-seeking tie-break.

    ``prefer`` is an ordered list of message tags; a requester whose tag
    appears earlier in the list beats any requester appearing later or not
    at all.  Requesters outside the list fall back to FIFO order.
    """

    def __init__(self, prefer: Sequence[str] = ()) -> None:
        self._rank = {tag: i for i, tag in enumerate(prefer)}
        self._fifo = FifoArbitration()

    def choose(
        self, channel: Channel, requesters: Sequence[MessageState], cycle: int
    ) -> MessageState:
        ranked = [m for m in requesters if m.spec.tag in self._rank]
        if ranked:
            return min(ranked, key=lambda m: (self._rank[m.spec.tag], m.mid))
        return self._fifo.choose(channel, requesters, cycle)
