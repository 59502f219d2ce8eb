"""Classify CDG cycles: reachable deadlock vs false resource cycle.

This operationalizes the paper's central distinction.  Given a cycle in the
channel dependency graph of an oblivious routing algorithm, the classifier

1. finds the messages (source--destination pairs) whose paths realise the
   cycle's dependencies,
2. enumerates the ways those messages can *tile* the cycle into a
   Definition-6 deadlock configuration -- each message holds a consecutive
   segment of cycle channels and is blocked at the first cycle channel of
   the next message,
3. hands each candidate configuration (messages at their minimum adequate
   lengths, optionally swept longer and/or duplicated) to the exhaustive
   reachability search.

If *some* candidate deadlock configuration is reachable the cycle is a real
deadlock hazard; if *every* candidate is unreachable the cycle is a false
resource cycle (unreachable configuration).

Completeness caveats -- stated here because a classifier that hides them
would overclaim: the search is exact for the candidate scenarios generated,
but the generator bounds message multiplicity (``extra_copies``) and length
slack (``length_slack``).  The paper's Theorem 1 proof reasons over the same
bounded families (minimum lengths, single-flit buffers, extra interposed
messages), and for the figure networks the bounds used here are those of
the paper's argument.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import cast


from repro.analysis.reachability import SearchLimitExceeded, SearchResult, search_deadlock
from repro.analysis.state import CheckerMessage, SystemSpec, check_options
from repro.obs import span as _obs_span
from repro.routing.base import RoutingAlgorithm
from repro.topology.channels import Channel, NodeId

Pair = tuple[NodeId, NodeId]

#: the most candidate scenarios :func:`classify_cycle` searches; past it,
#: with no deadlock found, "false resource cycle" would be unshown
MAX_SCENARIOS = 256


def classify_configuration(
    messages: Sequence["CheckerMessage"],
    *,
    budget: int = 0,
    copy_depth: int = 1,
    max_copies_total: int = 2,
    length_slack: int = 0,
    max_states: int = 20_000_000,
) -> tuple[bool, SearchResult]:
    """Full-adversary reachability verdict for a fixed message-type set.

    The paper's adversary may inject *additional* messages of the defined
    source--destination types (Assumption 1) and choose their lengths; the
    proofs of Theorems 1 and 5 use interposed extra messages to delay a
    cycle member (a copy takes the member's next channel and drains there,
    stalling it for ``length`` cycles).  This helper therefore searches the
    base scenario plus every augmentation with up to ``copy_depth`` extra
    copies per message type and at most ``max_copies_total`` extra messages
    overall (the paper's constructions interpose one), and sweeps base
    lengths up to ``length_slack`` above minimum.

    Returns ``(deadlock_reachable, result_of_first_deadlocking_scenario_or_last)``.
    Raises :class:`ValueError` when an option leaves no scenario to search
    (``length_slack < 0``) or is otherwise out of range.
    """
    check_options(budget=budget, length_slack=length_slack, max_states=max_states)
    with _obs_span("classify.config", messages=len(messages)) as sp:
        base = list(messages)
        n = len(base)
        copy_subsets: list[tuple[int, ...]] = [()]
        for r in range(1, min(copy_depth * n, max_copies_total) + 1):
            copy_subsets.extend(
                s
                for s in itertools.combinations_with_replacement(range(n), r)
                if all(s.count(i) <= copy_depth for i in set(s))
            )
        all_lengths = itertools.product(
            *[range(m.length, m.length + length_slack + 1) for m in base]
        )
        result: SearchResult | None = None
        for lengths, subset in itertools.product(all_lengths, copy_subsets):
            sized = [CheckerMessage(m.path, ln, m.tag) for m, ln in zip(base, lengths)]
            msgs = sized + [
                CheckerMessage(sized[i].path, sized[i].length, f"{sized[i].tag}+{j}")
                for j, i in enumerate(subset)
            ]
            result = search_deadlock(
                SystemSpec.uniform(msgs, budget=budget),
                max_states=max_states,
                find_witness=False,
            )
            if result.deadlock_reachable:
                break
        assert result is not None
        sp.set(
            verdict="reachable" if result.deadlock_reachable else "deadlock-free",
            certificate=result.certificate,
        )
        sp.incr("classify.configs")
    return result.deadlock_reachable, result


@dataclass
class CycleClassification:
    """Verdict for one CDG cycle."""

    cycle: tuple[Channel, ...]
    deadlock_reachable: bool
    tilings_tested: int
    scenarios_tested: int
    witness_result: SearchResult | None = field(default=None, repr=False)
    notes: list[str] = field(default_factory=list)
    #: rule code of the static certificate that decided (or confirmed) the
    #: verdict; ``None`` when the search decided alone.
    #: ``scenarios_tested == 0`` iff the certificate alone decided.
    certificate: str | None = None

    @property
    def is_false_resource_cycle(self) -> bool:
        return not self.deadlock_reachable


def messages_for_cycle(
    alg: RoutingAlgorithm,
    cycle: Sequence[Channel],
    pairs: Sequence[Pair] | None = None,
) -> dict[Pair, list[tuple[int, int]]]:
    """Pairs whose path intersects the cycle, with their cycle runs."""
    from repro.lint.tiling import cycle_runs
    from repro.routing.properties import _domain

    cycle_cids = [ch.cid for ch in cycle]
    out: dict[Pair, list[tuple[int, int]]] = {}
    for pair in _domain(alg, pairs):
        path = alg.try_path(*pair)
        if path is None:
            continue
        runs = cycle_runs(cycle_cids, [ch.cid for ch in path])
        if runs:
            out[pair] = runs
    return out


def classify_cycle(
    alg: RoutingAlgorithm,
    cycle: Sequence[Channel],
    *,
    pairs: Sequence[Pair] | None = None,
    length_slack: int = 1,
    extra_copies: int = 1,
    budget: int = 0,
    max_states: int = 2_000_000,
    certificates: str | None = None,
) -> CycleClassification:
    """Decide whether ``cycle`` can produce a reachable deadlock.

    ``length_slack`` sweeps message lengths from the minimum (enough flits
    to hold the message's segment) up to minimum + slack.  ``extra_copies``
    additionally tests scenarios with up to that many duplicate messages of
    each type (the paper's "more than four messages" case in Theorem 1's
    proof).  ``budget`` is the per-message stall allowance (0 = the paper's
    tight synchrony).

    ``certificates`` mirrors :func:`~repro.analysis.reachability.search_deadlock`
    (the contract is :func:`repro.lint.certificates.certified_search`):
    ``"on"`` (default) asks :func:`repro.lint.certificates.cycle_certificate`
    first and skips every search when a static REACHABLE_DEADLOCK argument
    (Corollaries 1-3, Theorems 2-4) applies; ``"off"`` disables the
    pre-pass; ``"check"`` runs both and raises
    :class:`~repro.lint.certificates.CertificateMismatch` on disagreement.
    There is no static deadlock-free verdict at cycle level, so "cycle is a
    false resource cycle" always comes from the search.

    Raises :class:`ValueError` when an option leaves no scenario to search
    (``length_slack < 0`` or ``extra_copies < 1``) or is otherwise out of
    range: a verdict over zero scenarios would say nothing.  Raises
    :class:`~repro.analysis.reachability.SearchLimitExceeded` when the
    options ask for more than :data:`MAX_SCENARIOS` scenarios and none
    within the cap deadlocks.
    """
    check_options(
        budget=budget,
        length_slack=length_slack,
        extra_copies=extra_copies,
        max_states=max_states,
    )
    # the certificate contract (lazy import: lint sits above analysis)
    from repro.lint import certificates as certs

    cycle = tuple(cycle)

    def shortcut(cert: certs.Certificate) -> CycleClassification:
        # constructive certificates (CRT005) also yield a zero-search
        # witness over the certificate's own message set; the others
        # leave witness_result as None (existence without a schedule)
        from repro.lint.witness import certificate_witness

        witness_result = None
        wit = certificate_witness(cert, budget=budget)
        if wit is not None:
            witness_result = SearchResult(
                deadlock_reachable=True,
                witness=wit,
                states_explored=0,
                spec=wit.spec,
                certificate=cert.code,
            )
        return CycleClassification(
            cycle=cycle,
            deadlock_reachable=True,
            tilings_tested=1,
            scenarios_tested=0,
            witness_result=witness_result,
            notes=[f"static certificate {cert.code}: {cert.rationale}"],
        )

    with _obs_span("classify.cycle", channels=len(cycle)) as sp:
        # in check mode the bounded search must agree with the certificate:
        # its scenario family includes the certificate's tiling
        result = certs.certified_search(
            certificates,
            lambda: certs.cycle_certificate(alg, cycle, pairs),
            shortcut,
            lambda: _classify_cycle_search(
                alg,
                cycle,
                pairs=pairs,
                length_slack=length_slack,
                extra_copies=extra_copies,
                budget=budget,
                max_states=max_states,
                certificates=certificates,
            ),
        )
        sp.set(
            verdict="reachable" if result.deadlock_reachable else "false-cycle",
            tilings_tested=result.tilings_tested,
            scenarios_tested=result.scenarios_tested,
            certificate=result.certificate,
        )
        sp.incr("classify.cycles")
        sp.incr("classify.scenarios", result.scenarios_tested)
        if result.certificate is not None and result.scenarios_tested == 0:
            sp.incr("classify.certificate_short_circuits")
            sp.event("classify.certificate_fastpath", code=result.certificate)
    return result


def _classify_cycle_search(
    alg: RoutingAlgorithm,
    cycle: tuple[Channel, ...],
    *,
    pairs: Sequence[Pair] | None,
    length_slack: int,
    extra_copies: int,
    budget: int,
    max_states: int,
    certificates: str | None,
) -> CycleClassification:
    """The search-based classification (certificate pre-pass already done);
    each scenario search runs in the same ``certificates`` mode."""
    from repro.lint.tiling import enumerate_tilings

    candidates = messages_for_cycle(alg, cycle, pairs)
    tilings = enumerate_tilings(len(cycle), candidates)
    notes: list[str] = []
    if not tilings:
        notes.append("no Definition-6 tiling exists; cycle cannot deadlock")
        return CycleClassification(
            cycle=cycle,
            deadlock_reachable=False,
            tilings_tested=0,
            scenarios_tested=0,
            notes=notes,
        )

    scenarios = 0
    for tiling in tilings:
        base_msgs: list[CheckerMessage] = []
        for member, held in zip(tiling.members, tiling.held_lengths):
            src, dst = cast(Pair, member)
            base_msgs.append(
                CheckerMessage.from_channels(
                    alg.path(src, dst), length=max(1, held), tag=f"{src}->{dst}"
                )
            )
        length_options = [
            range(m.length, m.length + length_slack + 1) for m in base_msgs
        ]
        for lengths in itertools.product(*length_options):
            for copies in range(1, extra_copies + 1):
                scenarios += 1
                if scenarios > MAX_SCENARIOS:
                    raise SearchLimitExceeded(
                        f"no deadlock in the first {MAX_SCENARIOS} cycle scenarios "
                        "(the cap); lower length_slack or extra_copies"
                    )
                msgs: list[CheckerMessage] = []
                for m, ln in zip(base_msgs, lengths):
                    for c in range(copies):
                        tag = m.tag if c == 0 else f"{m.tag}(copy{c})"
                        msgs.append(CheckerMessage(path=m.path, length=ln, tag=tag))
                spec = SystemSpec.uniform(msgs, budget=budget)
                # verdict first: most scenarios are deadlock-free, and a
                # verdict search keeps no parents; a deadlocking one is
                # searched again, over the same states, for its witness
                probe = search_deadlock(
                    spec,
                    max_states=max_states,
                    find_witness=False,
                    certificates=certificates,
                )
                result = probe
                if probe.deadlock_reachable:
                    result = search_deadlock(
                        spec, max_states=max_states, certificates=certificates
                    )
                if result.deadlock_reachable:
                    return CycleClassification(
                        cycle=cycle,
                        deadlock_reachable=True,
                        tilings_tested=len(tilings),
                        scenarios_tested=scenarios,
                        witness_result=result,
                        notes=notes,
                    )

    notes.append(
        "no tested scenario reaches a deadlock: false resource cycle "
        f"(lengths swept +{length_slack}, copies up to {extra_copies}, budget {budget})"
    )
    return CycleClassification(
        cycle=cycle,
        deadlock_reachable=False,
        tilings_tested=len(tilings),
        scenarios_tested=scenarios,
        notes=notes,
    )
