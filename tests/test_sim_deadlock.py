"""Deadlock detection tests."""


from repro.routing import clockwise_ring
from repro.sim import MessageSpec, SimConfig, Simulator, build_wait_for_graph, detect_deadlock
from repro.sim.injection import StallSchedule
from repro.topology import ring


def ring_overload_specs(n=6, length=8):
    return [MessageSpec(i, i, (i + 3) % n, length=length) for i in range(n)]


def test_classic_ring_deadlock_detected():
    net = ring(6)
    res = Simulator(net, clockwise_ring(net, 6), ring_overload_specs()).run()
    assert res.deadlocked
    assert res.deadlock.kind == "wait-for-cycle"
    assert len(res.deadlock.message_ids) >= 2


def test_wait_for_graph_shape_at_deadlock():
    net = ring(6)
    sim = Simulator(net, clockwise_ring(net, 6), ring_overload_specs())
    while detect_deadlock(sim) is None:
        sim.step()
    g = build_wait_for_graph(sim)
    # every deadlocked message waits on exactly one channel -> out-degree 1
    report = detect_deadlock(sim)
    for mid in report.message_ids:
        assert g.out_degree(mid) == 1


def test_no_deadlock_on_light_ring():
    net = ring(6)
    specs = [MessageSpec(0, 0, 3, length=4), MessageSpec(1, 3, 0, length=4, inject_time=20)]
    res = Simulator(net, clockwise_ring(net, 6), specs).run()
    assert not res.deadlocked and res.completed


def test_stop_on_deadlock_false_continues_to_cap():
    net = ring(6)
    res = Simulator(
        net,
        clockwise_ring(net, 6),
        ring_overload_specs(),
        config=SimConfig(max_cycles=100, stop_on_deadlock=False, quiescence_window=10_000),
    ).run()
    assert res.deadlocked  # still reported
    assert res.cycles == 100


def test_quiescence_detector_catches_full_stall():
    """A message stalled forever trips the quiescence net, not the WFG."""
    net = ring(6)
    specs = [MessageSpec(0, 0, 3, length=4)]
    stalls = StallSchedule({0: range(1, 100_000)})
    res = Simulator(
        net,
        clockwise_ring(net, 6),
        specs,
        config=SimConfig(max_cycles=5_000, quiescence_window=32),
        stalls=stalls,
    ).run()
    assert res.deadlocked
    assert res.deadlock.kind == "quiescence"


def test_pending_future_injection_is_not_quiescence():
    net = ring(6)
    specs = [MessageSpec(0, 0, 3, length=2, inject_time=500)]
    res = Simulator(
        net,
        clockwise_ring(net, 6),
        specs,
        config=SimConfig(max_cycles=2_000, quiescence_window=32),
    ).run()
    assert res.completed


def test_deadlock_report_str():
    net = ring(6)
    res = Simulator(net, clockwise_ring(net, 6), ring_overload_specs()).run()
    s = str(res.deadlock)
    assert "deadlock" in s and "cycle" in s


def test_report_includes_header_queued_behind_the_knot():
    """The report is the greatest fixpoint, not just the wait-for cycle.

    Four messages deadlock on a clockwise 4-ring.  A fifth enters the ring
    from a feeder node, holds its feeder channel and waits on a channel a
    knot member holds: it can never progress either, so the report names
    it, although it lies on no wait-for cycle.
    """
    import networkx as nx

    from repro.routing.base import RoutingFunction

    net = ring(4)
    net.add_node("feeder")
    net.add_channel("feeder", 0, label="feed")
    cw = clockwise_ring(net, 4)

    class FeederRing(RoutingFunction):
        def route(self, in_channel, node, dest):
            if node == "feeder":
                return self.network.channels_between("feeder", 0)[0]
            return cw.route(in_channel, node, dest)

    specs = [MessageSpec(i, i, (i + 2) % 4, length=4) for i in range(4)]
    specs.append(MessageSpec(4, "feeder", 2, length=2))
    sim = Simulator(net, FeederRing(net), specs)
    res = sim.run()

    assert res.deadlock is not None
    assert res.deadlock.kind == "wait-for-cycle"
    assert res.deadlock.message_ids == (0, 1, 2, 3, 4)
    queued = sim.messages[4]
    assert queued.acquired and sim.channel_owner(queued.blocked_on) == 0
    on_cycles = {mid for cyc in nx.simple_cycles(build_wait_for_graph(sim)) for mid in cyc}
    assert on_cycles == {0, 1, 2, 3}
