"""Flit-level engine tests: movement, atomicity, pipelining, delivery."""

import pytest

from repro.routing import clockwise_ring, dimension_order_mesh
from repro.sim import MessageSpec, MessageStatus, SimConfig, Simulator
from repro.sim.trace import TraceRecorder
from repro.topology import mesh, ring


def make_ring_sim(specs, n=6, **kw):
    net = ring(n)
    return Simulator(net, clockwise_ring(net, n), specs, **kw)


class TestSimConfigValidation:
    """Bad knob values must fail at construction, not deep in the run loop."""

    def test_rejects_nonpositive_buffer_depth(self):
        with pytest.raises(ValueError, match="buffer_depth"):
            SimConfig(buffer_depth=0)
        with pytest.raises(ValueError, match="buffer_depth"):
            SimConfig(buffer_depth=-3)

    def test_rejects_nonpositive_max_cycles(self):
        with pytest.raises(ValueError, match="max_cycles"):
            SimConfig(max_cycles=0)
        with pytest.raises(ValueError, match="max_cycles"):
            SimConfig(max_cycles=-1)

    def test_rejects_unknown_switching(self):
        with pytest.raises(ValueError, match="unknown switching"):
            SimConfig(switching="circuit")
        with pytest.raises(ValueError, match="unknown switching"):
            SimConfig(switching="Wormhole")  # exact strings only

    def test_valid_switching_accepted(self):
        for s in ("wormhole", "store_and_forward", "virtual_cut_through"):
            assert SimConfig(buffer_depth=8, switching=s).switching == s

    def test_classmethod_constructors_validate_too(self):
        with pytest.raises(ValueError, match="buffer_depth"):
            SimConfig.store_and_forward(0)
        assert SimConfig.virtual_cut_through(4).buffer_depth == 4


class TestSingleMessage:
    def test_latency_formula(self):
        # path k channels, length L, unobstructed: done at t0 + k + L - 1
        for k, L in [(3, 4), (5, 1), (2, 7)]:
            sim = make_ring_sim([MessageSpec(0, 0, k, length=L)], n=8)
            res = sim.run()
            assert res.completed
            assert res.messages[0].latency() == k + L - 1

    def test_inject_time_respected(self):
        sim = make_ring_sim([MessageSpec(0, 0, 2, length=2, inject_time=5)])
        res = sim.run()
        assert res.messages[0].inject_cycle == 5

    def test_channels_released_behind_short_message(self):
        rec = TraceRecorder()
        sim = make_ring_sim([MessageSpec(0, 0, 5, length=1)], n=8, trace=rec)
        res = sim.run()
        assert res.completed
        # a 1-flit message frees each channel right after passing it
        releases = [c for c, k, d in rec.events if k == "release"]
        assert len(releases) == 5

    def test_status_transitions(self):
        sim = make_ring_sim([MessageSpec(0, 0, 2, length=3)])
        m = sim.messages[0]
        assert m.status is MessageStatus.PENDING
        sim.step()
        assert m.status is MessageStatus.ACTIVE
        sim.run()
        assert m.status is MessageStatus.DELIVERED


class TestAtomicAllocation:
    def test_channel_owned_exclusively(self):
        # two messages whose paths share channel 2->3
        specs = [
            MessageSpec(0, 0, 4, length=6),
            MessageSpec(1, 2, 4, length=6, inject_time=1),
        ]
        net = ring(6)
        sim = Simulator(net, clockwise_ring(net, 6), specs)
        for _ in range(40):
            sim.step()
            # invariant: a non-empty queue always has an owner
            for q in sim._queues.values():
                if q.queue:
                    assert q.owner is not None
        res_states = [m.status for m in sim.messages.values()]
        assert all(s is MessageStatus.DELIVERED for s in res_states)

    def test_blocked_message_holds_channels(self):
        # long message 0->3; second message 5->2 blocks behind it
        specs = [
            MessageSpec(0, 0, 3, length=20),
            MessageSpec(1, 5, 2, length=4, inject_time=2),
        ]
        net = ring(6)
        sim = Simulator(net, clockwise_ring(net, 6), specs)
        for _ in range(6):
            sim.step()
        m1 = sim.messages[1]
        # m1 must be blocked at channel 0->1 (owned by message 0)
        assert m1.blocked_on is not None
        assert sim.channel_owner(m1.blocked_on) == 0


class TestPipelinedHandoff:
    def test_same_cycle_channel_reuse(self):
        """A channel freed by a tail flit is acquirable in the same cycle.

        Message B (behind A on the ring) must acquire each channel exactly
        when A's tail leaves it, with no idle bubble: B's total time equals
        A's departure plus its own pipeline, not plus per-hop gaps.
        """
        net = ring(8)
        fn = clockwise_ring(net, 8)
        a = MessageSpec(0, 0, 4, length=3)
        b = MessageSpec(1, 0, 4, length=3, inject_time=0)
        sim = Simulator(net, fn, [a, b])
        res = sim.run()
        assert res.completed
        la = res.messages[0].latency()
        lb = res.messages[1].latency()
        # B starts L_a cycles after A (cs-style serialization on channel 0->1)
        assert lb == la + 3

    def test_buffer_depth_two_shortens_trains(self):
        net = ring(8)
        fn = clockwise_ring(net, 8)
        spec = [MessageSpec(0, 0, 2, length=6)]
        deep = Simulator(net, fn, spec, config=SimConfig(buffer_depth=3)).run()
        assert deep.completed
        # 2 channels x 3 flits of capacity: whole message fits in the path
        assert deep.messages[0].latency() == 2 + 6 - 1  # unchanged when unobstructed


class TestConfigValidation:
    def test_bad_buffer_depth(self):
        with pytest.raises(ValueError):
            SimConfig(buffer_depth=0)

    def test_bad_max_cycles(self):
        with pytest.raises(ValueError):
            SimConfig(max_cycles=0)

    def test_duplicate_mid_rejected(self):
        net = ring(4)
        with pytest.raises(ValueError, match="duplicate"):
            Simulator(
                net,
                clockwise_ring(net, 4),
                [MessageSpec(0, 0, 1, length=1), MessageSpec(0, 1, 2, length=1)],
            )


class TestMeshTraffic:
    def test_all_delivered_under_dor(self):
        from repro.sim.traffic import uniform_random_traffic

        net = mesh((4, 4))
        fn = dimension_order_mesh(net, 2)
        specs = uniform_random_traffic(net, rate=0.2, cycles=30, length=3, seed=5)
        res = Simulator(net, fn, specs, config=SimConfig(max_cycles=5000)).run()
        assert res.completed
        assert res.stats.delivered_messages == len(specs)

    def test_timeout_reported(self):
        net = ring(6)
        specs = [MessageSpec(i, i, (i + 3) % 6, length=8) for i in range(6)]
        res = Simulator(
            net,
            clockwise_ring(net, 6),
            specs,
            config=SimConfig(max_cycles=50, stop_on_deadlock=False, quiescence_window=1000),
        ).run()
        assert res.timed_out or res.deadlocked


class TestRoutingFailure:
    def test_undefined_route_marks_failed(self):
        from repro.routing import TableRouting
        from repro.topology import Network

        net = Network()
        ab = net.add_channel("A", "B")
        net.add_channel("B", "A")
        tr = TableRouting(net, {("A", "B"): [ab]})
        sim = Simulator(net, tr, [MessageSpec(0, "B", "A", length=2)])
        res = sim.run()
        assert res.messages[0].status is MessageStatus.FAILED
        assert res.delivered == 0


class TestUtilizationCounters:
    """SimStats.channel_busy_cycles driven through Simulator.step() directly,
    asserted against hand-computed flit movement (not via run())."""

    def _step_to_completion(self, sim, bound=200):
        for _ in range(bound):
            if all(
                m.status in (MessageStatus.DELIVERED, MessageStatus.FAILED)
                for m in sim.messages.values()
            ):
                return
            sim.step()
        raise AssertionError("simulation did not finish within the step bound")

    def test_unobstructed_message_busy_length_cycles_per_hop(self):
        # depth-1 wormhole: every path channel holds exactly one flit per
        # cycle from the header's arrival until the tail leaves, so each of
        # the k channels is busy exactly L cycles.
        for k, L in [(3, 1), (2, 2), (4, 3)]:
            sim = make_ring_sim(
                [MessageSpec(0, 0, k, length=L)],
                n=8,
                config=SimConfig(track_utilization=True),
            )
            self._step_to_completion(sim)
            busy = sim.stats.channel_busy_cycles
            assert len(busy) == k
            assert all(cycles == L for cycles in busy.values())

    def test_stalled_message_keeps_held_channel_busy(self):
        # A single flit frozen on cycles 1-2 sits in its first channel for
        # three cycles; the downstream hops still see it for one cycle each.
        from repro.sim.injection import StallSchedule

        sim = make_ring_sim(
            [MessageSpec(0, 0, 3, length=1)],
            n=8,
            config=SimConfig(track_utilization=True),
            stalls=StallSchedule({0: [1, 2]}),
        )
        self._step_to_completion(sim)
        assert sorted(sim.stats.channel_busy_cycles.values()) == [1, 1, 3]

    def test_counters_match_per_cycle_queue_occupancy(self):
        # Ground truth recomputed after every step through the public queue
        # accessor: a channel's counter goes up iff its queue was non-empty
        # at the end of that cycle.
        net = ring(6)
        specs = [
            MessageSpec(0, 0, 3, length=4),
            MessageSpec(1, 1, 4, length=2, inject_time=1),
            MessageSpec(2, 5, 2, length=3, inject_time=2),
        ]
        sim = Simulator(
            net,
            clockwise_ring(net, 6),
            specs,
            config=SimConfig(track_utilization=True),
        )
        expected = {}
        for _ in range(200):
            if all(
                m.status in (MessageStatus.DELIVERED, MessageStatus.FAILED)
                for m in sim.messages.values()
            ):
                break
            sim.step()
            for ch in net.channels:
                if sim.queue_of(ch).queue:
                    expected[ch.cid] = expected.get(ch.cid, 0) + 1
        assert sim.stats.channel_busy_cycles == expected
        assert expected  # the scenario actually moved flits


class TestRouteReuse:
    """A header routes once per hop, however long it stays blocked."""

    def test_route_calls_equal_total_hops(self):
        from repro.routing import RoutingAlgorithm
        from repro.routing.base import RoutingFunction
        from repro.sim.traffic import uniform_random_traffic

        net = mesh((8, 8))
        dor = dimension_order_mesh(net, 2)

        class CountingRouting(RoutingFunction):
            calls = 0

            def route(self, in_channel, node, dest):
                self.calls += 1
                return dor.route(in_channel, node, dest)

        counting = CountingRouting(net)
        specs = uniform_random_traffic(net, rate=0.06, cycles=120, length=4, seed=5)
        sim = Simulator(net, counting, specs)
        res = sim.run()
        assert res.completed
        # contention happened: headers sat blocked, and were re-examined
        assert sum(m.wait_cycles for m in res.messages.values()) > 0
        hops = sum(len(RoutingAlgorithm(dor).path(s.src, s.dst)) for s in specs)
        assert counting.calls == hops
        # finished messages are never routed again
        for _ in range(5):
            sim.step()
        assert counting.calls == hops
