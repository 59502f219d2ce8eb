"""Arbitration policy tests."""

import pytest

from repro.routing import clockwise_ring
from repro.sim import (
    AdversarialArbitration,
    FifoArbitration,
    MessageSpec,
    Simulator,
)
from repro.sim.message import MessageState
from repro.topology import Network, ring


def _mk(mid, tag="", first_request=None):
    m = MessageState(spec=MessageSpec(mid, "A", "B", length=2, tag=tag))
    if first_request is not None:
        m.first_request_cycle[0] = first_request
    return m


@pytest.fixture
def chan():
    net = Network()
    return net.add_channel("A", "B")


def test_fifo_prefers_longest_waiter(chan):
    a = _mk(0, first_request=5)
    b = _mk(1, first_request=2)
    assert FifoArbitration().choose(chan, [a, b], 10) is b


def test_fifo_tie_breaks_by_mid(chan):
    a = _mk(0, first_request=2)
    b = _mk(1, first_request=2)
    assert FifoArbitration().choose(chan, [a, b], 10) is a


def test_adversarial_prefers_tagged(chan):
    a = _mk(0, tag="boring", first_request=0)
    b = _mk(1, tag="M2", first_request=9)
    arb = AdversarialArbitration(prefer=["M2", "M1"])
    assert arb.choose(chan, [a, b], 10) is b


def test_adversarial_falls_back_to_fifo(chan):
    a = _mk(0, first_request=5)
    b = _mk(1, first_request=2)
    arb = AdversarialArbitration(prefer=["Mx"])
    assert arb.choose(chan, [a, b], 10) is b


def test_fifo_starvation_freedom_end_to_end():
    """Under FIFO, all contenders on a shared channel eventually deliver."""
    net = ring(6)
    fn = clockwise_ring(net, 6)
    # many short messages all needing channel 0->1
    specs = [MessageSpec(i, 0, 3, length=2, inject_time=0) for i in range(8)]
    res = Simulator(net, fn, specs, arbitration=FifoArbitration()).run()
    assert res.completed


def test_engine_rejects_foreign_winner():
    class Broken(FifoArbitration):
        def choose(self, channel, requesters, cycle):
            return _mk(99)

    net = ring(4)
    fn = clockwise_ring(net, 4)
    specs = [MessageSpec(0, 0, 2, length=2), MessageSpec(1, 0, 3, length=2)]
    sim = Simulator(net, fn, specs, arbitration=Broken())
    with pytest.raises(RuntimeError, match="non-requester"):
        sim.run()
