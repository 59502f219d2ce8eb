"""Traffic generator and statistics tests."""

import pytest

from repro.sim.injection import StallSchedule
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


class TestStallSchedule:
    def test_stalled_lookup(self):
        s = StallSchedule({3: [5, 6, 9]})
        assert s.stalled(3, 5) and s.stalled(3, 9)
        assert not s.stalled(3, 7)
        assert not s.stalled(4, 5)
        assert s.total_budget(3) == 3


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
    def test_throughput(self):
        s = SimStats()
        s.cycles = 100
        s.delivered_flits = 250
        assert s.throughput_flits_per_cycle() == 2.5
