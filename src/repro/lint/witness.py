"""Constructive witnesses from static certificates (Theorem 2 schedules).

``CRT005`` certifies ``REACHABLE_DEADLOCK`` via a Definition-6 tiling
whose members meet the cycle only in their own held runs, with
pairwise-disjoint off-cycle approach prefixes.  Theorem 2's proof is
constructive: inject the members on a stall-free schedule timed so each
member reaches its blocking channel exactly one cycle *after* its
successor around the cycle has occupied it.  This module turns that
schedule into a first-class :class:`~repro.analysis.reachability.Witness`
so the certificate fast path can answer ``find_witness=True`` requests
with **zero** BFS states explored.

The schedule is the slack chain over the members in cycle order: member
``j`` first requests its blocked channel at cycle
``T_j + idx_j + held_j`` (``idx_j`` = position of its run start on its
own path), and its successor occupies that channel at the end of cycle
``T_{j+1} + idx_{j+1}``, so

    ``T_{j+1} = T_j + idx_j + held_j - idx_{j+1} - 1``

with the whole chain shifted so the earliest injection lands on cycle 0.
Going once around the loop accumulates total slack
``len(cycle) - len(members) >= 0`` (every member holds at least one
channel), so the chain is always consistent.

Soundness does not rest on that arithmetic: the builder *drives* the
schedule through :meth:`SystemSpec.successors` one synchronous cycle at
a time -- every step of an emitted witness is a genuine successor and
the final state is checked against :meth:`SystemSpec.deadlocked_set`.
Any divergence (or an over-budget scenario) returns ``None`` and the
caller falls back to the BFS.  :func:`validate_witness` exposes the same
step-by-step replay for arbitrary witnesses.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.reachability import Witness
from repro.analysis.state import SystemSpec, SystemState
from repro.lint.certificates import Certificate
from repro.obs import incr as _obs_incr
from repro.topology.channels import Channel

#: construction is abandoned (BFS fallback) beyond these sizes: driving
#: the schedule enumerates successors, which branch per free message
MAX_WITNESS_MESSAGES = 12
MAX_WITNESS_CYCLE = 64


def certificate_witness(
    cert: Certificate,
    spec: SystemSpec | None = None,
    *,
    budget: int = 0,
) -> Witness | None:
    """A replayable witness for a reachable certificate, or ``None``.

    Spec-level CRT005 certificates carry ``member_indices`` into the
    caller's spec (pass it as ``spec`` so the witness is over the same
    message set the search was asked about); cycle-level ones carry their
    members as standalone checker messages (``cert.messages``), from
    which a fresh uniform-budget spec is built.  Only CRT005 is
    constructive today -- the corollary and shared-channel certificates
    (CRT002-004, CRT006-007) assert existence without a schedule.
    """
    if cert.code != "CRT005" or not cert.deadlock_reachable:
        return None
    ev = cert.evidence
    starts = ev.get("starts")
    held = ev.get("held_lengths")
    raw_cycle = ev.get("cycle")
    if starts is None or held is None or raw_cycle is None:
        return None
    cycle = [c.cid if isinstance(c, Channel) else int(c) for c in raw_cycle]
    if spec is not None:
        member_indices = ev.get("member_indices")
        if member_indices is None:
            return None
        members = list(member_indices)
    elif cert.messages:
        spec = SystemSpec.uniform(cert.messages, budget=budget)
        members = list(range(len(cert.messages)))
    else:
        return None
    return build_crt005_witness(spec, members, list(starts), list(held), cycle)


def build_crt005_witness(
    spec: SystemSpec,
    member_indices: Sequence[int],
    starts: Sequence[int],
    held_lengths: Sequence[int],
    cycle: Sequence[int],
) -> Witness | None:
    """Drive the Theorem-2 stall-free schedule to its deadlock state.

    ``member_indices`` index into ``spec.messages``; ``starts`` and
    ``held_lengths`` describe each member's held run on ``cycle`` (a
    cid tuple), exactly as CRT005 evidence records them.  Returns a
    validated witness or ``None`` when the tiling data is inconsistent
    or the schedule diverges (the caller then falls back to the BFS).
    """
    n = len(cycle)
    m = len(member_indices)
    if m < 2 or sum(held_lengths) != n:
        _obs_incr("lint.certificate.witness_failed")
        return None
    if len(spec.messages) > MAX_WITNESS_MESSAGES or n > MAX_WITNESS_CYCLE:
        _obs_incr("lint.certificate.witness_failed")
        return None
    # members in cycle order; their held runs must partition the cycle
    # consecutively (member j's blocked channel = member j+1's run start)
    order = sorted(range(m), key=lambda j: starts[j])
    for a, b in zip(order, order[1:] + order[:1]):
        if (starts[a] + held_lengths[a]) % n != starts[b] % n:
            _obs_incr("lint.certificate.witness_failed")
            return None
    # position of each member's run start on its own path
    idx: dict[int, int] = {}
    for j in range(m):
        i = member_indices[j]
        msg = spec.messages[i]
        try:
            idx[j] = msg.path.index(cycle[starts[j]])
        except ValueError:
            _obs_incr("lint.certificate.witness_failed")
            return None
        if idx[j] + held_lengths[j] >= len(msg.path):
            _obs_incr("lint.certificate.witness_failed")
            return None
        if msg.length < held_lengths[j]:
            _obs_incr("lint.certificate.witness_failed")
            return None
    # slack-chain injection times, shifted so the earliest is cycle 0
    times = {order[0]: 0}
    for a, b in zip(order, order[1:]):
        times[b] = times[a] + idx[a] + held_lengths[a] - idx[b] - 1
    shift = -min(times.values())
    inject_at = {member_indices[j]: t + shift for j, t in times.items()}
    last_freeze = max(
        inject_at[member_indices[j]] + idx[j] + held_lengths[j] for j in range(m)
    )
    witness = _drive_schedule(spec, inject_at, max_rounds=last_freeze + 2)
    _obs_incr(
        "lint.certificate.witness_emitted"
        if witness is not None
        else "lint.certificate.witness_failed"
    )
    return witness


def _drive_schedule(
    spec: SystemSpec, inject_at: dict[int, int], *, max_rounds: int
) -> Witness | None:
    """Follow the injection schedule through ``successors`` to a deadlock.

    Per cycle, each scheduled member injects exactly at its time, then
    advances whenever free (never stalls); every other message only ever
    waits.  The matching joint choice is looked up among the genuine
    successors, so the resulting step list is valid by construction.
    """
    members = set(inject_at)
    state = spec.initial_state()
    steps: list[tuple[str, ...]] = []
    states: list[SystemState] = []
    for t in range(max_rounds + 1):
        chosen: tuple[SystemState, tuple[str, ...]] | None = None
        for nxt, actions in spec.successors(state):
            if _schedule_actions_ok(actions, state, t, inject_at, members):
                chosen = (nxt, actions)
                break
        if chosen is None:
            return None
        state, actions = chosen
        steps.append(actions)
        states.append(state)
        dead = spec.deadlocked_set(state)
        if dead:
            if members <= set(dead):
                return Witness(spec=spec, steps=steps, states=states, deadlocked=dead)
            return None
    return None


def _schedule_actions_ok(
    actions: tuple[str, ...],
    prev: SystemState,
    t: int,
    inject_at: dict[int, int],
    members: set[int],
) -> bool:
    for i, act in enumerate(actions):
        if i not in members:
            if act != "wait":
                return False
            continue
        h = prev[i][0]
        if h == 0:
            if act != ("try" if t == inject_at[i] else "wait"):
                return False
        elif act not in ("adv", "freeze"):
            # members advance greedily: no stalls, no losses, no drains
            return False
    return True


def validate_witness(witness: Witness) -> bool:
    """Replay a witness step by step through its system's ``successors``.

    Every ``(steps[t], states[t])`` pair must be a genuine successor of
    the previous state, and the final state's deadlocked set must be
    exactly the witness's ``deadlocked`` set.  This is the independent
    soundness check applied to constructed (non-BFS) witnesses; it works
    equally on BFS-produced ones, oblivious (:class:`SystemSpec`) or
    adaptive (:class:`~repro.analysis.adaptive_state.AdaptiveSystem`).
    """
    spec = witness.spec
    if not witness.steps or len(witness.steps) != len(witness.states):
        return False
    state = spec.initial_state()
    for actions, claimed in zip(witness.steps, witness.states):
        if not any(
            nxt == claimed and acts == actions
            for nxt, acts in spec.successors(state)
        ):
            return False
        state = claimed
    return spec.deadlocked_set(state) == witness.deadlocked


def replay_certificate_witness(
    witness: Witness,
    network: object,
    routing: object,
    src_dst: Sequence[tuple],
    *,
    max_cycles: int = 10_000,
) -> bool:
    """Cross-validate a witness on the flit-level simulator.

    Thin wrapper over :func:`repro.analysis.schedules.replay_witness`
    that records the outcome in the ``lint.certificate.replay.*``
    counters (the battery's cross-check task kind and the soundness
    tests both come through here).
    """
    from repro.analysis.schedules import replay_witness

    result = replay_witness(
        witness, network, routing, src_dst, max_cycles=max_cycles  # type: ignore[arg-type]
    )
    ok = bool(result.deadlocked)
    _obs_incr(
        "lint.certificate.replay.pass" if ok else "lint.certificate.replay.fail"
    )
    return ok
