"""Message model for the wormhole simulator.

A message (the paper uses message/packet interchangeably) is a header flit
followed by ``length - 1`` data flits.  Under oblivious routing the header
determines a unique path; the simulator nevertheless routes hop-by-hop
through the routing function, so the same engine would serve deterministic
adaptive extensions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.topology.channels import Channel, NodeId


class MessageStatus(enum.Enum):
    """Lifecycle of a message inside the simulator."""

    PENDING = "pending"  # injection time not reached / first channel not acquired
    ACTIVE = "active"  # holds at least one channel, header not yet consumed
    DRAINING = "draining"  # header consumed at destination, tail still in network
    DELIVERED = "delivered"  # all flits consumed
    FAILED = "failed"  # routing error (diagnostic state, not part of the model)


@dataclass(frozen=True)
class MessageSpec:
    """Immutable description of one message to inject.

    Parameters
    ----------
    mid:
        Unique id.
    src, dst:
        Endpoints (must differ).
    length:
        Total flits, header included.  Arbitrary (Assumption 1); must be >= 1.
    inject_time:
        Earliest cycle at which the header may request its first channel.
    tag:
        Free-form label used by experiments (e.g. ``"M1"``) and by the
        adversarial arbitration policy's preference list.
    """

    mid: int
    src: NodeId
    dst: NodeId
    length: int
    inject_time: int = 0
    tag: str = ""

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"message {self.mid}: src == dst == {self.src!r}")
        if self.length < 1:
            raise ValueError(f"message {self.mid}: length must be >= 1")
        if self.inject_time < 0:
            raise ValueError(f"message {self.mid}: inject_time must be >= 0")

    def display(self) -> str:
        return self.tag or f"m{self.mid}"


@dataclass
class MessageState:
    """Mutable runtime state of one message.

    ``acquired`` is the ordered list of channels currently held (tail first).
    The header flit, while in the network, is at the head of the queue of
    ``acquired[-1]``.  ``flits_injected`` counts flits that have entered the
    first channel; ``flits_consumed`` counts flits removed at the
    destination.
    """

    spec: MessageSpec
    status: MessageStatus = MessageStatus.PENDING
    acquired: list[Channel] = field(default_factory=list)
    flits_injected: int = 0
    flits_consumed: int = 0
    inject_cycle: int | None = None  # cycle the first channel was acquired
    arrival_cycle: int | None = None  # cycle the header was consumed
    done_cycle: int | None = None  # cycle the tail was consumed
    wait_cycles: int = 0  # cycles the header spent blocked (fairness metric)
    max_consecutive_wait: int = 0
    _current_wait: int = 0
    blocked_on: Channel | None = None  # channel requested but not granted
    #: adaptive routing only: the full candidate set the header is blocked
    #: on (OR semantics -- any one freeing unblocks the message)
    blocked_candidates: list[Channel] = field(default_factory=list)
    first_request_cycle: dict[int, int] = field(default_factory=dict)  # cid -> cycle (FIFO arb)

    @property
    def mid(self) -> int:
        return self.spec.mid

    @property
    def in_network(self) -> bool:
        return self.status in (MessageStatus.ACTIVE, MessageStatus.DRAINING)

    def latency(self) -> int | None:
        """Injection-to-last-flit-consumed latency, if delivered."""
        if self.done_cycle is None or self.inject_cycle is None:
            return None
        return self.done_cycle - self.spec.inject_time
