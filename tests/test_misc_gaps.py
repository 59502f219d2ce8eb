"""Gap-filling tests for smaller branches across modules."""

import pytest

from repro.core.conditions import TheoremFiveInput
from repro.core.specs import CycleMessageSpec
from repro.sim.message import MessageSpec, MessageState


class TestConditionsInput:
    def test_extras_before_first_shared_wrap_to_last(self):
        """A non-shared message listed before any shared one sits, cyclically,
        after the last shared message."""
        specs = [
            CycleMessageSpec(approach_len=1, hold_len=2, uses_shared=False, label="E"),
            CycleMessageSpec(approach_len=4, hold_len=5, label="Ma"),
            CycleMessageSpec(approach_len=2, hold_len=4, label="Mc"),
            CycleMessageSpec(approach_len=3, hold_len=4, label="Mb"),
        ]
        inp = TheoremFiveInput.from_specs(specs)
        assert inp.extras_after[2][0].label == "E"

    def test_immediately_precedes_blocked_by_extra(self):
        specs = [
            CycleMessageSpec(approach_len=4, hold_len=5, label="Ma"),
            CycleMessageSpec(approach_len=1, hold_len=2, uses_shared=False, label="E"),
            CycleMessageSpec(approach_len=2, hold_len=4, label="Mc"),
            CycleMessageSpec(approach_len=3, hold_len=4, label="Mb"),
        ]
        inp = TheoremFiveInput.from_specs(specs)
        assert not inp.immediately_precedes(0, 1)  # E sits between
        assert inp.immediately_precedes(1, 2)

    def test_shared_between_wraps(self):
        specs = [
            CycleMessageSpec(approach_len=4, hold_len=5, label="Ma"),
            CycleMessageSpec(approach_len=2, hold_len=4, label="Mc"),
            CycleMessageSpec(approach_len=3, hold_len=4, label="Mb"),
        ]
        inp = TheoremFiveInput.from_specs(specs)
        assert inp.shared_between(2, 1) == (0,)
        assert inp.shared_between(0, 1) == ()


class TestMessageState:
    def test_latency_none_before_done(self):
        m = MessageState(spec=MessageSpec(0, "A", "B", length=2))
        assert m.latency() is None

    def test_leading_channel_none_initially(self):
        m = MessageState(spec=MessageSpec(0, "A", "B", length=2))
        assert not m.acquired  # the leading channel is acquired[-1]
        assert not m.in_network


class TestScriptedArbitrationDivergence:
    def test_missing_winner_raises(self):
        from repro.analysis.schedules import ScriptedArbitration
        from repro.topology import Network

        net = Network()
        ch = net.add_channel("A", "B")
        a = MessageState(spec=MessageSpec(0, "A", "B", length=1))
        b = MessageState(spec=MessageSpec(1, "A", "B", length=1))
        arb = ScriptedArbitration({(5, ch.cid): 99})
        with pytest.raises(RuntimeError, match="divergence"):
            arb.choose(ch, [a, b], 5)

    def test_unscripted_falls_back_to_fifo(self):
        from repro.analysis.schedules import ScriptedArbitration
        from repro.topology import Network

        net = Network()
        ch = net.add_channel("A", "B")
        a = MessageState(spec=MessageSpec(0, "A", "B", length=1))
        b = MessageState(spec=MessageSpec(1, "A", "B", length=1))
        a.first_request_cycle[ch.cid] = 3
        b.first_request_cycle[ch.cid] = 1
        arb = ScriptedArbitration({})
        assert arb.choose(ch, [a, b], 5) is b


class TestDelayResult:
    def test_profile_rows_render(self):
        from repro.experiments.generalization import GeneralizationResult

        res = GeneralizationResult(profile={1: 1, 2: None})
        rows = res.rows()
        assert rows[0]["min delay to deadlock"] == 1
        assert rows[1]["min delay to deadlock"] == ">max"
        assert not res.strictly_increasing

    def test_delay_result_flags(self):
        from repro.analysis.delay import min_delay_to_deadlock
        from repro.analysis.state import CheckerMessage

        # two disjoint messages: never deadlock at any budget
        msgs = [
            CheckerMessage(path=(0, 1), length=2, tag="a"),
            CheckerMessage(path=(5, 6), length=2, tag="b"),
        ]
        res = min_delay_to_deadlock(msgs, max_delay=2)
        assert res.min_delay is None
        assert res.deadlock_free_under_synchrony
        assert res.max_delay_tested == 2
