"""Compact state model for the exhaustive wormhole reachability search.

Under oblivious routing with single-flit buffers (the paper's worst case --
Section 4 argues a deadlock impossible at buffer depth one and minimum
message length is impossible in general), the entire network state is
determined by, per message:

``h``    -- header progress: ``0`` not injected; ``1..k`` header occupies
            path channel ``h-1``; ``k+1`` header consumed at destination.
``inj``  -- flits injected so far (``<= length``).
``cons`` -- flits consumed at the destination so far.
``bud``  -- remaining adversarial stall budget (Section 6's router delay).

The flit train is contiguous: with one-flit buffers a data flit moves only
when the flit ahead of it moves, so the ``f = inj - cons`` flits in the
network occupy the ``f`` consecutive path channels ending at the front
channel ``min(h, k) - 1``.  These are exactly the semantics of
:class:`repro.sim.engine.Simulator` at ``buffer_depth=1`` (cross-validated
in ``tests/test_cross_validation.py``).

Per synchronous cycle each message takes one move:

* ``h == 0``: may request path channel 0 (``TRY``) or wait (free).
* ``1 <= h <= k`` and the next step is available: must advance (``ADV``) or
  spend a budget unit to stall (``STALL``) -- the synchrony assumption says
  an unblocked message cannot simply idle.
* header blocked by another message's flits: frozen (``FREEZE``, forced).
* ``h == k+1``: the destination consumes one flit per cycle (forced;
  Assumption 2 makes consumption non-refusable).

Simultaneous requests for one free channel branch over every possible
winner.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from collections.abc import Sequence

from repro.topology.channels import Channel

#: the smallest value of each analysis option; below it the question is
#: empty (no scenario to test, no state to explore, no cycle to lint) or
#: has no meaning
OPTION_MINIMUMS: dict[str, int] = {
    "budget": 0,
    "max_states": 1,
    "length_slack": 0,
    "extra_copies": 1,
    "max_cycles": 1,
    "max_delay": 0,
}


def check_options(**options: int) -> None:
    """Raise :class:`ValueError` naming the first option below its minimum.

    The one range check of the analysis options (keys of
    :data:`OPTION_MINIMUMS`): the CLI and serve run it where input
    enters, and the classifiers before they enumerate scenarios.  It
    lives here, beside the spec model, so ``repro lint`` can run it
    without loading the search.
    """
    for name, value in options.items():
        low = OPTION_MINIMUMS[name]
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


# Per-message state: (h, inj, cons, bud)
MsgState = tuple[int, int, int, int]
# Full system state: one MsgState per message, in message order.
SystemState = tuple[MsgState, ...]


@dataclass(frozen=True)
class CheckerMessage:
    """A message as seen by the checker: a fixed channel path plus length.

    ``path`` is the tuple of channel ids the header traverses (source to
    destination); ``length`` is the flit count; ``tag`` labels the message
    in witnesses and reports.
    """

    path: tuple[int, ...]
    length: int
    tag: str = ""

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("checker message needs a non-empty path")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if len(set(self.path)) != len(self.path):
            raise ValueError("path revisits a channel; oblivious routing would loop")

    @property
    def k(self) -> int:
        return len(self.path)

    @classmethod
    def from_channels(
        cls, channels: Sequence[Channel], length: int, tag: str = ""
    ) -> "CheckerMessage":
        return cls(path=tuple(c.cid for c in channels), length=length, tag=tag)


#: one move option of a message in a grant round: the action's label and
#: the channel it requests (``None`` when it requests no arbitration)
Option = tuple[str, int | None]


class CycleExpander:
    """The adversary of one synchronous cycle, written once.

    :meth:`successors` enumerates every joint choice of the adversary --
    each message's move, the winner of each contested channel -- for the
    oblivious :class:`SystemSpec` and the adaptive
    :class:`~repro.analysis.adaptive_state.AdaptiveSystem` alike.  A
    system supplies two hooks:

    ``_options(cur, pending, last)``
        the move options of each message in ``pending`` that can move in
        this round, as ``{i: [(label, channel), ...]}``; a message with
        none may label itself in ``last`` (``"freeze"``, ``"done"``).
    ``_apply(i, ms, label, channel)``
        message ``i``'s state after the chosen move.

    A label other than ``"wait"`` and ``"stall"`` is a move that can free
    a channel.
    """

    def _options(
        self, cur: list, pending: frozenset[int], last: list[str]
    ) -> dict[int, list[Option]]:
        raise NotImplementedError

    def _apply(self, i: int, ms: tuple, label: str, chan: int | None) -> tuple:
        raise NotImplementedError

    def successors(self, state: tuple) -> list[tuple[tuple, tuple[str, ...]]]:
        """All successor states for one synchronous cycle.

        Returns ``(next_state, actions)`` pairs where ``actions[i]`` is the
        last move message ``i`` took this cycle (``"wait"``, ``"stall"``,
        ``"freeze"``, ``"drain"``, ``"done"``, ``"lose"``, or the system's
        label of an advance).  The search deduplicates states; here every
        distinct joint choice is emitted so witnesses stay exact.

        **Pipelined channel handoff.**  Flits stream: when a tail flit
        vacates a channel during a cycle, another header may enter that
        channel in the *same* cycle (this is how the paper's schedules use
        ``cs`` -- "immediately after M1 has traversed [cs], the second
        message starts traversing [cs]").  The cycle is therefore expanded
        in *rounds*: each round moves messages whose next channel is
        currently free, applies the moves (which can free tail channels),
        and repeats until nothing else can move.  Each message moves at
        most one hop per cycle.  Simultaneous requests for one free
        channel branch over every possible winner; the losers ``"lose"``.
        """
        results: list[tuple[tuple, tuple[str, ...]]] = []
        seen: set[tuple[tuple, tuple[str, ...]]] = set()
        apply = self._apply

        def emit(cur: list, last: list[str]) -> None:
            key = (tuple(cur), tuple(last))
            if key not in seen:
                seen.add(key)
                results.append(key)

        def run_round(cur: list, pending: frozenset[int], last: list[str]) -> None:
            """Branch over one grant round; ``pending`` may still move."""
            options = self._options(cur, pending, last)
            if not options:
                emit(cur, last)
                return
            movers = sorted(options)
            # every joint choice, then every winner of each contested channel
            for combo in product(*[options[i] for i in movers]):
                chosen = list(zip(movers, combo))
                requests: dict[int, list[int]] = {}
                for i, (_act, chan) in chosen:
                    if chan is not None:
                        requests.setdefault(chan, []).append(i)
                contested = [c for c, cands in requests.items() if len(cands) > 1]
                for ws in product(*[requests[c] for c in contested]):
                    finish(cur, pending, last, chosen, dict(zip(contested, ws)))

        def finish(
            cur: list,
            pending: frozenset[int],
            last: list[str],
            chosen: list[tuple[int, Option]],
            winners: dict[int, int],
        ) -> None:
            nxt = list(cur)
            nxt_last = list(last)
            nxt_pending = set(pending)
            moved_any = False
            for i, (act, chan) in chosen:
                if chan is not None and chan in winners and winners[chan] != i:
                    act = "lose"
                    nxt_pending.discard(i)
                elif act != "wait":  # a waiter may try in a later round
                    nxt[i] = apply(i, nxt[i], act, chan)
                    nxt_pending.discard(i)
                    if act != "stall":
                        moved_any = True
                nxt_last[i] = act
            # messages whose channel was occupied stay pending; if nothing
            # moved this round, no channel freed -> fixpoint
            if moved_any:
                run_round(nxt, frozenset(nxt_pending), nxt_last)
            else:
                emit(nxt, nxt_last)

        n = len(state)
        run_round(list(state), frozenset(range(n)), ["wait"] * n)
        return results


@dataclass(frozen=True)
class SystemSpec(CycleExpander):
    """A checker scenario: messages plus per-message stall budgets."""

    messages: tuple[CheckerMessage, ...]
    budgets: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.messages) != len(self.budgets):
            raise ValueError("one budget per message required")
        if any(b < 0 for b in self.budgets):
            raise ValueError("budgets must be >= 0")
        # hot-path caches (profiled: attribute/property lookups dominate the
        # search loop otherwise); frozen dataclass, so set via object.
        object.__setattr__(self, "_paths", tuple(m.path for m in self.messages))
        object.__setattr__(self, "_ks", tuple(len(m.path) for m in self.messages))
        object.__setattr__(self, "_lens", tuple(m.length for m in self.messages))
        # the successor relation reads moves() and flit_train() through
        # per-message memos (state -> result): a message has few states,
        # and a lookup beats a call
        object.__setattr__(self, "_move_memo", tuple({} for _ in self.messages))
        object.__setattr__(self, "_train_memo", tuple({} for _ in self.messages))

    @classmethod
    def uniform(
        cls, messages: Sequence[CheckerMessage], *, budget: int = 0
    ) -> "SystemSpec":
        msgs = tuple(messages)
        return cls(messages=msgs, budgets=tuple(budget for _ in msgs))

    def initial_state(self) -> SystemState:
        return tuple((0, 0, 0, b) for b in self.budgets)

    # ------------------------------------------------------------------
    # state interpretation
    # ------------------------------------------------------------------
    def flit_train(self, i: int, ms: MsgState) -> tuple[int, ...]:
        """The channels message ``i``'s flit train holds in state ``ms``:
        the ``inj - cons`` path channels ending at the front channel
        ``min(h, k) - 1`` (none before injection or once drained)."""
        h, inj, cons, _bud = ms
        k = self._ks[i]  # type: ignore[attr-defined]
        end = h if h <= k else k
        return self._paths[i][end - inj + cons:end]  # type: ignore[attr-defined]

    def occupied_channels(self, state: SystemState) -> dict[int, int]:
        """Map channel id -> index of the occupying message."""
        occ: dict[int, int] = {}
        trains = self._train_memo  # type: ignore[attr-defined]
        for i, ms in enumerate(state):
            train = trains[i].get(ms)
            if train is None:
                train = trains[i][ms] = self.flit_train(i, ms)
            for cid in train:
                occ[cid] = i
        return occ

    def is_done(self, state: SystemState, i: int) -> bool:
        _h, _inj, cons, _bud = state[i]
        return cons == self.messages[i].length

    def blocked_owner(self, state: SystemState, i: int) -> int | None:
        """If message ``i``'s header is blocked, the blocking message index."""
        h, _inj, _cons, _bud = state[i]
        msg = self.messages[i]
        if not 1 <= h <= msg.k - 1:
            return None
        occ = self.occupied_channels(state)
        return occ.get(msg.path[h])

    def deadlocked_set(self, state: SystemState) -> tuple[int, ...]:
        """Messages on a wait-for cycle in ``state`` (empty tuple if none).

        Edge ``i -> j`` when ``i``'s header waits on a channel occupied by
        ``j``.  A cycle is a genuine deadlock: every member's only possible
        move depends on another member moving.
        """
        occ = self.occupied_channels(state)
        wait: dict[int, int] = {}
        for i, (h, _inj, _cons, _bud) in enumerate(state):
            msg = self.messages[i]
            if 1 <= h <= msg.k - 1:
                owner = occ.get(msg.path[h])
                if owner is not None and owner != i:
                    wait[i] = owner
        # find a cycle in the functional graph `wait`
        color: dict[int, int] = {}  # 1 = in progress, 2 = finished
        for start in wait:
            if color.get(start):
                continue
            trail: list[int] = []
            node = start
            while node in wait and color.get(node) is None:
                color[node] = 1
                trail.append(node)
                node = wait[node]
            if color.get(node) == 1:
                # found a cycle; extract it from the trail
                idx = trail.index(node)
                for n in trail:
                    color[n] = 2
                return tuple(sorted(trail[idx:]))
            for n in trail:
                color[n] = 2
        return ()


    # ------------------------------------------------------------------
    # the adversary's moves (expanded by CycleExpander.successors)
    # ------------------------------------------------------------------
    def moves(self, i: int, ms: MsgState) -> list[Option]:
        """Message ``i``'s move options in state ``ms`` when the channel it
        requests (the first option's) is free; none once it is done.

        A message at injection tries for its first path channel or waits;
        a header in the network advances, into its next channel or (from
        the last) into the node, and the router may stall it while budget
        remains; a consumed header drains one flit per cycle.
        """
        h, _inj, cons, bud = ms
        k = self._ks[i]  # type: ignore[attr-defined]
        if cons == self._lens[i]:  # type: ignore[attr-defined]
            return []
        if h == 0:
            return [("try", self._paths[i][0]), ("wait", None)]  # type: ignore[attr-defined]
        if h > k:
            return [("drain", None)]
        # the arrival into the node (h == k) requests no arbitration
        adv: Option = ("adv", self._paths[i][h] if h < k else None)  # type: ignore[attr-defined]
        return [adv, ("stall", None)] if bud > 0 else [adv]

    def _options(
        self, cur: list[MsgState], pending: frozenset[int], last: list[str]
    ) -> dict[int, list[Option]]:
        occ = self.occupied_channels(tuple(cur))
        moves = self._move_memo  # type: ignore[attr-defined]
        options: dict[int, list[Option]] = {}
        for i in pending:
            ms = cur[i]
            opts = moves[i].get(ms)
            if opts is None:
                opts = moves[i][ms] = self.moves(i, ms)
            if not opts:
                last[i] = "done"
            elif opts[0][1] not in occ:
                options[i] = opts
            elif ms[0]:
                last[i] = "freeze"
            # else: an injection stays pending silently (may free later round)
        return options

    def _apply(self, i: int, ms: MsgState, label: str, chan: int | None) -> MsgState:
        h, inj, cons, bud = ms
        k = self._ks[i]  # type: ignore[attr-defined]
        length = self._lens[i]  # type: ignore[attr-defined]
        if label == "stall":
            bud -= 1
        elif label == "try":
            h, inj = 1, 1
        elif label == "adv":
            h += 1
            if h == k + 1:
                cons += 1  # header consumed on arrival
            if inj < length and (inj - cons) < min(h, k):
                inj += 1
        elif label == "drain":
            cons += 1
            if inj < length and (inj - cons) < k:
                inj += 1
        elif label == "wait":
            pass  # an injection's wait keeps the state
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown action {label!r}")
        return (h, inj, cons, bud)
