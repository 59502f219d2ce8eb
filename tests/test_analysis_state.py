"""Checker state-model tests: occupancy, transitions, deadlock detection."""

import pytest

from repro.analysis.state import CheckerMessage, SystemSpec


def linear_message(start, k, length, tag="m", base=0):
    """A message over channel ids base+start .. base+start+k-1."""
    return CheckerMessage(path=tuple(range(base + start, base + start + k)), length=length, tag=tag)


class TestCheckerMessage:
    def test_validation(self):
        with pytest.raises(ValueError):
            CheckerMessage(path=(), length=1)
        with pytest.raises(ValueError):
            CheckerMessage(path=(1, 2), length=0)
        with pytest.raises(ValueError, match="revisits"):
            CheckerMessage(path=(1, 2, 1), length=1)

    def test_k(self):
        assert CheckerMessage(path=(5, 6, 7), length=2).k == 3


class TestOccupancy:
    def test_initial_empty(self):
        spec = SystemSpec.uniform([linear_message(0, 4, 2)])
        assert spec.occupied_channels(spec.initial_state()) == {}

    def test_train_occupancy_growing(self):
        spec = SystemSpec.uniform([linear_message(0, 5, 3)])
        # h=3, inj=3, cons=0: flits occupy channels 0,1,2
        state = ((3, 3, 0, 0),)
        assert set(spec.occupied_channels(state)) == {0, 1, 2}

    def test_train_occupancy_sliding(self):
        spec = SystemSpec.uniform([linear_message(0, 5, 2)])
        # h=4, inj=2 (all injected), cons=0: occupies channels 2,3
        state = ((4, 2, 0, 0),)
        assert set(spec.occupied_channels(state)) == {2, 3}

    def test_draining_occupancy(self):
        spec = SystemSpec.uniform([linear_message(0, 4, 3)])
        # arrived (h=k+1=5), 1 consumed, 3 injected: 2 flits in last channels
        state = ((5, 3, 1, 0),)
        assert set(spec.occupied_channels(state)) == {2, 3}

    def test_done_occupies_nothing(self):
        spec = SystemSpec.uniform([linear_message(0, 4, 2)])
        state = ((5, 2, 2, 0),)
        assert spec.occupied_channels(state) == {}


class TestSuccessors:
    def test_single_message_advances_to_delivery(self):
        msg = linear_message(0, 3, 2)
        spec = SystemSpec.uniform([msg])
        state = spec.initial_state()
        # adversary may always wait; follow the always-advance branch
        for _ in range(3 + 2 + 2):
            succs = spec.successors(state)
            advancing = [s for s, acts in succs if s != state]
            if not advancing:
                break
            # pick the branch where the message moved furthest
            state = max(advancing, key=lambda s: (s[0][0], s[0][2]))
        assert spec.is_done(state, 0)

    def test_wait_self_loop_exists(self):
        spec = SystemSpec.uniform([linear_message(0, 3, 2)])
        init = spec.initial_state()
        assert any(s == init for s, _ in spec.successors(init))

    def test_stall_consumes_budget(self):
        spec = SystemSpec.uniform([linear_message(0, 3, 2)], budget=1)
        state = ((1, 1, 0, 1),)
        stalled = [s for s, acts in spec.successors(state) if acts[0] == "stall"]
        assert stalled and stalled[0][0] == (1, 1, 0, 0)

    def test_no_stall_without_budget(self):
        spec = SystemSpec.uniform([linear_message(0, 3, 2)], budget=0)
        state = ((1, 1, 0, 0),)
        assert all(acts[0] != "stall" for _, acts in spec.successors(state))

    def test_arbitration_branches_over_winners(self):
        # two messages whose first channel is the same
        a = CheckerMessage(path=(0, 1), length=1, tag="a")
        b = CheckerMessage(path=(0, 2), length=1, tag="b")
        spec = SystemSpec(messages=(a, b), budgets=(0, 0))
        init = spec.initial_state()
        wins = set()
        for s, acts in spec.successors(init):
            if acts[0] == "try" and acts[1] == "lose":
                wins.add("a")
            if acts[1] == "try" and acts[0] == "lose":
                wins.add("b")
        assert wins == {"a", "b"}

    def test_pipelined_handoff_same_cycle(self):
        """B can take channel 0 in the same cycle A's tail vacates it."""
        a = CheckerMessage(path=(0, 1, 2, 3), length=2, tag="a")
        b = CheckerMessage(path=(0, 1, 2, 3), length=2, tag="b")
        spec = SystemSpec(messages=(a, b), budgets=(0, 0))
        # A's tail is in channel 0 (h=2, inj=2): advancing A frees channel 0
        state = ((2, 2, 0, 0), (0, 0, 0, 0))
        succ_states = [s for s, acts in spec.successors(state)]
        # some successor has B injected (h=1) while A advanced (h=3)
        assert any(s[0][0] == 3 and s[1][0] == 1 for s in succ_states)

    def test_blocked_message_frozen(self):
        a = CheckerMessage(path=(0, 1, 2), length=3, tag="a")
        b = CheckerMessage(path=(5, 1, 6), length=1, tag="b")
        spec = SystemSpec(messages=(a, b), budgets=(0, 0))
        # a occupies channels 0,1 (h=2,f=2); b header in 5 wants channel 1
        state = ((2, 2, 0, 0), (1, 1, 0, 0))
        for s, acts in spec.successors(state):
            assert acts[1] in ("freeze", "adv")  # adv only if a's move freed 1
            if acts[1] == "freeze":
                assert s[1] == (1, 1, 0, 0)


class TestDeadlockDetection:
    def test_two_cycle_detected(self):
        # a holds 0 wants 1; b holds 1 wants 0
        a = CheckerMessage(path=(0, 1), length=1, tag="a")
        b = CheckerMessage(path=(1, 0), length=1, tag="b")
        spec = SystemSpec(messages=(a, b), budgets=(0, 0))
        state = ((1, 1, 0, 0), (1, 1, 0, 0))
        assert spec.deadlocked_set(state) == (0, 1)

    def test_chain_without_cycle_not_deadlock(self):
        a = CheckerMessage(path=(0, 1), length=1, tag="a")
        b = CheckerMessage(path=(1, 2), length=1, tag="b")
        spec = SystemSpec(messages=(a, b), budgets=(0, 0))
        state = ((1, 1, 0, 0), (1, 1, 0, 0))
        assert spec.deadlocked_set(state) == ()

    def test_draining_blocker_is_not_deadlock(self):
        # b waits on a channel held by a message that has arrived (draining)
        a = CheckerMessage(path=(0, 1), length=3, tag="a")
        b = CheckerMessage(path=(3, 1, 4), length=1, tag="b")
        spec = SystemSpec(messages=(a, b), budgets=(0, 0))
        # a: h=3 (=k+1: arrived), inj=3, cons=1 -> still holds channels 0,1
        state = ((3, 3, 1, 0), (1, 1, 0, 0))
        assert spec.deadlocked_set(state) == ()

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SystemSpec(messages=(linear_message(0, 2, 1),), budgets=(-1,))
        with pytest.raises(ValueError):
            SystemSpec(messages=(linear_message(0, 2, 1),), budgets=(0, 0))


def _trains_oblivious(spec, state):
    return [spec.flit_train(i, ms) for i, ms in enumerate(state)]


def _trains_adaptive(_system, state):
    # the flit train is the last inj - cons channels the header took
    return [taken[len(taken) - (inj - cons):] if inj > cons else ()
            for taken, inj, cons, _bud in state]


def _fig1_budget0():
    from repro.campaign.scenarios import build_scenario

    return SystemSpec.uniform(build_scenario("fig1", {}).messages, budget=0)


def _adaptive_mesh_2x2(**params):
    def build():
        from repro.analysis.adaptive_state import AdaptiveSystem
        from repro.campaign.scenarios import build_scenario

        bundle = build_scenario("adaptive-mesh", {"dims": [2, 2], **params})
        return AdaptiveSystem(*bundle.adaptive)

    return build


class TestExclusiveChannels:
    """No channel is ever in two messages' flit trains: a whole-space
    check over every reachable state, deadlocked ones included."""

    @pytest.mark.parametrize(
        "build,trains",
        [
            (_fig1_budget0, _trains_oblivious),
            # the four-corners knot: its deadlocked states are in the space
            (_adaptive_mesh_2x2(routing="full"), _trains_adaptive),
            (_adaptive_mesh_2x2(routing="escape", msgs=3), _trains_adaptive),
        ],
        ids=["fig1-budget0", "adaptive-mesh-2x2-full", "adaptive-mesh-2x2-escape3"],
    )
    def test_no_channel_held_twice(self, build, trains):
        from collections import deque

        system = build()
        init = system.initial_state()
        seen = {init}
        queue = deque([init])
        while queue:
            state = queue.popleft()
            held = [cid for train in trains(system, state) for cid in train]
            assert len(held) == len(set(held)), f"channel held twice in {state}"
            for nxt, _acts in system.successors(state):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        assert len(seen) > 100  # the check saw a real state space
