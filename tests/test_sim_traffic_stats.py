"""Traffic generator and statistics tests."""

import pytest

from repro.sim.injection import InjectionSchedule, StallSchedule
from repro.sim.message import MessageSpec
from repro.sim.stats import SimStats
from repro.sim.traffic import uniform_random_traffic
from repro.topology import mesh, ring


class TestTraffic:
    def test_uniform_rate_scaling(self):
        net = mesh((4, 4))
        low = uniform_random_traffic(net, rate=0.05, cycles=200, seed=1)
        high = uniform_random_traffic(net, rate=0.4, cycles=200, seed=1)
        assert len(high) > len(low) > 0

    def test_uniform_no_self_messages(self):
        net = ring(5)
        for s in uniform_random_traffic(net, rate=0.5, cycles=50, seed=2):
            assert s.src != s.dst

    def test_uniform_deterministic_by_seed(self):
        net = ring(5)
        a = uniform_random_traffic(net, rate=0.3, cycles=30, seed=7)
        b = uniform_random_traffic(net, rate=0.3, cycles=30, seed=7)
        assert [(s.src, s.dst, s.inject_time) for s in a] == [
            (s.src, s.dst, s.inject_time) for s in b
        ]

    def test_bad_rate_rejected(self):
        net = ring(5)
        with pytest.raises(ValueError):
            uniform_random_traffic(net, rate=1.5, cycles=10)

    def test_unique_mids(self):
        net = mesh((3, 3))
        specs = uniform_random_traffic(net, rate=0.4, cycles=50, seed=6)
        mids = [s.mid for s in specs]
        assert len(set(mids)) == len(mids)


class TestInjectionSchedule:
    def test_add_assigns_ids(self):
        sched = InjectionSchedule()
        a = sched.add("A", "B", length=3)
        b = sched.add("B", "C", length=2, at=4, tag="M2")
        assert (a.mid, b.mid) == (0, 1)
        assert len(sched) == 2
        assert list(sched)[1].tag == "M2"

    def test_extend_rejects_duplicates(self):
        sched = InjectionSchedule()
        sched.add("A", "B", length=1)
        with pytest.raises(ValueError):
            sched.extend([MessageSpec(0, "X", "Y", length=1)])


class TestStallSchedule:
    def test_stalled_lookup(self):
        s = StallSchedule({3: [5, 6, 9]})
        assert s.stalled(3, 5) and s.stalled(3, 9)
        assert not s.stalled(3, 7)
        assert not s.stalled(4, 5)
        assert s.total_budget(3) == 3

    def test_delay_window(self):
        s = StallSchedule.delay_window(1, start=10, count=3)
        assert [s.stalled(1, t) for t in range(9, 14)] == [False, True, True, True, False]

    def test_merged(self):
        a = StallSchedule({1: [1]})
        b = StallSchedule({1: [2], 2: [3]})
        m = a.merged(b)
        assert m.stalled(1, 1) and m.stalled(1, 2) and m.stalled(2, 3)


class TestMessageSpecValidation:
    def test_src_eq_dst_rejected(self):
        with pytest.raises(ValueError):
            MessageSpec(0, "A", "A", length=2)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            MessageSpec(0, "A", "B", length=0)

    def test_negative_inject_rejected(self):
        with pytest.raises(ValueError):
            MessageSpec(0, "A", "B", length=1, inject_time=-1)

    def test_display(self):
        assert MessageSpec(3, "A", "B", length=1).display() == "m3"
        assert MessageSpec(3, "A", "B", length=1, tag="M1").display() == "M1"


class TestStats:
    def test_summary_empty(self):
        s = SimStats()
        out = s.summary()
        assert out["delivered_messages"] == 0

    def test_throughput(self):
        s = SimStats()
        s.cycles = 100
        s.delivered_flits = 250
        assert s.throughput_flits_per_cycle() == 2.5
