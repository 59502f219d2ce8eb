"""BFS reachability search for wormhole deadlock configurations.

Explores every state reachable from the empty network under the adversary
described in :mod:`repro.analysis.state`.  Terminates because the state
space is finite (header positions, flit counts and budgets are all
bounded); a configurable state cap turns pathological blow-ups into loud
:class:`SearchLimitExceeded` errors instead of silently-partial answers.
"""

from __future__ import annotations

import os
import time
import warnings
from collections import deque
from dataclasses import dataclass, field

from repro.analysis.state import SystemSpec, SystemState

# the kernel engine module needs only the stdlib (its compiled library
# loads lazily at the first search, never at import)
from repro.analysis import kernelpath as _kernelpath
from repro.analysis.kernelpath import counters_snapshot as _k_counters_snapshot
from repro.analysis.kernelpath import kernel_unavailable_reason as _kernel_unavailable
from repro.analysis.kernelpath import kernel_engine_for as _kernel_engine_for
from repro.analysis.kernelpath import peek_engine as _peek_kernel
from repro.obs import get as _obs_get

#: every name accepted by ``engine=`` / ``REPRO_SEARCH_ENGINE``: the
#: compiled default and the oracle
SEARCH_ENGINES = ("kernel", "reference")

#: how often a kernel request ran on the reference engine instead -- no
#: compiled kernel library loaded, or the spec was too wide for it
#: (telemetry reads this via snapshot deltas, like the engine COUNTERS)
ENGINE_COUNTERS: dict[str, int] = {"search.engine.fallback.reference": 0}

#: fallback warning classes already issued in this process
_fallback_warned: set[type] = set()


def resolve_engine(engine: str | None, spec: SystemSpec) -> str:
    """The concrete engine a search of ``spec`` will run on.

    ``None`` defers to ``REPRO_SEARCH_ENGINE``; with neither set, the
    request is the compiled ``kernel`` engine.  A kernel request -- the
    default or named -- runs on the kernel when its compiled library
    loads (a C compiler, or a cached build) and ``spec`` has at most
    ``MAX_KERNEL_MSGS`` messages.  Otherwise it runs on ``reference``: a
    loud fallback, warned once per process (a
    :class:`~repro.analysis.kernelpath.WideSpecFallbackWarning` for a
    wide spec, else a :class:`RuntimeWarning` naming why no library
    loaded) and counted in ``search.engine.fallback.reference`` on every
    fallen-back search.  Unknown names raise :class:`ValueError`.
    """
    eng = engine or os.environ.get("REPRO_SEARCH_ENGINE") or "kernel"
    if eng not in SEARCH_ENGINES:
        raise ValueError(
            f"unknown search engine {eng!r}; use 'kernel' or 'reference'"
        )
    if eng == "reference":
        return eng
    n = len(spec.messages)
    limit = _kernelpath.MAX_KERNEL_MSGS
    warning: Warning
    if not 1 <= n <= limit:
        channels = len({cid for m in spec.messages for cid in m.path})
        warning = _kernelpath.WideSpecFallbackWarning("kernel", n, channels, limit)
    else:
        reason = _kernel_unavailable()
        if reason is None:
            return "kernel"
        warning = RuntimeWarning(
            f"compiled search kernel unavailable ({reason}); falling back "
            "to the reference engine (same verdicts, slower)"
        )
    ENGINE_COUNTERS["search.engine.fallback.reference"] += 1
    if type(warning) not in _fallback_warned:
        _fallback_warned.add(type(warning))
        warnings.warn(warning, stacklevel=3)
    return "reference"


class SearchLimitExceeded(RuntimeError):
    """The search hit its state cap before finishing -- result unknown."""


class KernelOutOfMemory(SearchLimitExceeded):
    """The compiled kernel could not grow its search storage -- result unknown.

    A limit like the state cap, so callers that report a cap hit (the
    ``search``/``classify`` commands exit 2 with one line) report this
    the same way.  ``states_explored`` is the partial count at the stop.
    """

    def __init__(self, states_explored: int) -> None:
        self.states_explored = states_explored
        super().__init__(
            f"kernel search ran out of memory after {states_explored} states; "
            "tighten the scenario or lower the cap"
        )


@dataclass
class Witness:
    """A replayable path from the empty network to a deadlock state.

    ``steps[t]`` is the tuple of per-message actions taken in cycle ``t``;
    ``states[t]`` is the state *after* that cycle (``states[-1]`` is the
    deadlock state).  ``deadlocked`` lists the message indices on the
    wait-for cycle.
    """

    spec: SystemSpec
    steps: list[tuple[str, ...]]
    states: list[SystemState]
    deadlocked: tuple[int, ...]

    @property
    def num_cycles(self) -> int:
        return len(self.steps)

    def render(self) -> str:
        """Human-readable cycle-by-cycle account of the deadlock formation."""
        tags = [m.tag or f"msg{i}" for i, m in enumerate(self.spec.messages)]
        lines = [f"deadlock witness over {self.num_cycles} cycles; "
                 f"cycle members: {', '.join(tags[i] for i in self.deadlocked)}"]
        for t, (acts, st) in enumerate(zip(self.steps, self.states)):
            parts = []
            for i, (act, ms) in enumerate(zip(acts, st)):
                h, inj, cons, bud = ms
                parts.append(f"{tags[i]}:{act}(h={h},f={inj - cons},b={bud})")
            lines.append(f"t={t:<3} " + "  ".join(parts))
        return "\n".join(lines)


@dataclass
class SearchResult:
    """Outcome of :func:`search_deadlock`."""

    deadlock_reachable: bool
    witness: Witness | None
    states_explored: int
    spec: SystemSpec | None = field(repr=False, default=None)
    #: rule code of the static certificate that decided (or confirmed) the
    #: verdict, e.g. ``"CRT001"``; ``None`` when the BFS decided alone.
    #: ``states_explored == 0`` iff the certificate alone decided.
    certificate: str | None = None

    @property
    def is_false_resource_cycle(self) -> bool:
        """Convenience alias: unreachable deadlock == false resource cycle."""
        return not self.deadlock_reachable


def _symmetry_canonicalizer(spec: SystemSpec):
    """Canonical-form function exploiting identical message types.

    Messages with the same (path, length, initial budget) are
    interchangeable: permuting their per-message states maps reachable
    states to reachable states and preserves deadlock.  Canonicalising by
    sorting within each equivalence class can shrink the visited set
    dramatically when copies are present (the Theorem 1 "more than four
    messages" searches).  Returns ``None`` when every message is unique.
    """
    groups: dict[tuple, list[int]] = {}
    for i, (m, b) in enumerate(zip(spec.messages, spec.budgets)):
        groups.setdefault((m.path, m.length, b), []).append(i)
    classes = [idxs for idxs in groups.values() if len(idxs) > 1]
    if not classes:
        return None

    if all(len(idxs) == 2 for idxs in classes):
        # identical messages overwhelmingly come in pairs (the "add a copy"
        # searches); canonicalizing is then a compare-and-swap per pair,
        # with no allocation when the state is already canonical
        pairs = [(idxs[0], idxs[1]) for idxs in classes]

        def canon(state: SystemState) -> SystemState:
            for i, j in pairs:
                if state[j] < state[i]:
                    out = list(state)
                    for a, b in pairs:
                        if out[b] < out[a]:
                            out[a], out[b] = out[b], out[a]
                    return tuple(out)
            return state

        return canon

    def canon(state: SystemState) -> SystemState:
        out = list(state)
        for idxs in classes:
            vals = sorted([out[i] for i in idxs])
            for i, v in zip(idxs, vals):
                out[i] = v
        return tuple(out)

    return canon


def search_deadlock(
    spec: SystemSpec,
    *,
    max_states: int = 2_000_000,
    find_witness: bool = True,
    symmetry_reduction: bool | None = None,
    engine: str | None = None,
    certificates: str | None = None,
) -> SearchResult:
    """Decide whether any reachable state of ``spec`` is a deadlock.

    Parameters
    ----------
    spec:
        The scenario (messages, paths, lengths, stall budgets).
    max_states:
        Hard cap on distinct states explored; exceeding it raises
        :class:`SearchLimitExceeded` (never a silent partial verdict).
    find_witness:
        When true, parent pointers are kept so a full
        :class:`Witness` trace can be reconstructed.
    symmetry_reduction:
        Deduplicate states up to permutation of identical message types
        (same path, length and budget).  Sound and complete for the
        reachability verdict, but witness action rows may name a different
        member of an identical pair than a non-reduced search would, so it
        defaults to on only when ``find_witness`` is false.
    engine:
        ``"kernel"`` runs the whole search as one compiled fused loop
        through :class:`~repro.analysis.kernelpath.KernelEngine`;
        ``"reference"`` keeps the original :meth:`SystemSpec.successors`
        implementation as the cross-checking oracle.  ``None`` (default)
        reads ``REPRO_SEARCH_ENGINE``, else picks ``kernel``.  A kernel
        request falls back to ``reference`` loudly when no compiled kernel
        library loads or the spec is too wide for it (see
        :func:`resolve_engine`).  Both engines produce identical verdicts,
        ``states_explored`` counts and witnesses (pinned by
        ``tests/test_kernelpath_differential.py``).
    certificates:
        ``"on"`` (default) consults the static linter first: when
        :func:`repro.lint.certificates.spec_certificate` decides the
        verdict, the BFS is skipped entirely (``states_explored == 0``,
        ``certificate`` set to the rule code).  Reachable certificates
        short-circuit even with ``find_witness=True``: CRT005's stall-free
        injection schedule is driven through ``SystemSpec.successors`` into
        a validated :class:`Witness`
        (:func:`repro.lint.witness.certificate_witness`); the BFS runs only
        if that construction fails.  Constructed witnesses are valid
        replayable traces but -- unlike BFS witnesses -- not guaranteed to
        be minimum-cycle.  ``"off"`` disables the pre-pass;
        ``"check"`` runs *both* and raises
        :class:`~repro.lint.certificates.CertificateMismatch` if they
        disagree (the cross-checking analogue of the kernel/reference
        engine pair).  The ``REPRO_STATIC_CERTIFICATES`` environment
        variable supplies the default.

    Notes
    -----
    BFS order means a search-produced witness has the minimum number of
    cycles over all deadlock formations -- handy for reports and replay
    tests.  Certificate-constructed witnesses follow the Theorem-2
    schedule instead, which may take more cycles.
    """
    tel = _obs_get()
    if tel is None:
        # telemetry disabled (the default): straight to the search with
        # zero additional work beyond the one env lookup in obs.get()
        return _search_deadlock_impl(
            spec,
            max_states=max_states,
            find_witness=find_witness,
            symmetry_reduction=symmetry_reduction,
            engine=resolve_engine(engine, spec),
            certificates=certificates,
        )

    before = {**_k_counters_snapshot(), **ENGINE_COUNTERS}
    # resolved once, inside the metered window (a first-use backend load
    # or fallback counts), and named on the span as the engine that ran
    resolved = resolve_engine(engine, spec)
    with tel.span(
        "search.deadlock",
        engine=resolved,
        find_witness=find_witness,
        messages=len(spec.messages),
    ) as sp:
        t0 = time.perf_counter()
        result = _search_deadlock_impl(
            spec,
            max_states=max_states,
            find_witness=find_witness,
            symmetry_reduction=symmetry_reduction,
            engine=resolved,
            certificates=certificates,
        )
        dur = time.perf_counter() - t0
        after = {**_k_counters_snapshot(), **ENGINE_COUNTERS}
        sp.set(
            verdict="reachable" if result.deadlock_reachable else "deadlock-free",
            states_explored=result.states_explored,
            certificate=result.certificate,
        )
        if dur > 0 and result.states_explored:
            sp.set(states_per_sec=round(result.states_explored / dur, 1))
        # per-phase profile from the kernel engine, when it ran (peeked,
        # so the engine-cache counters stay undisturbed)
        phases: dict[str, float] = {}
        depth: int | None = None
        if resolved == "kernel":
            keng = _peek_kernel(spec)
            if keng is not None:
                phases = keng.phase_seconds
                depth = keng.last_search_depth
                if keng.last_backend is not None:
                    sp.set(kernel_backend=keng.last_backend)
        if result.witness is not None:
            sp.set(frontier_depth=result.witness.num_cycles)
        elif depth is not None and result.states_explored:
            sp.set(frontier_depth=depth)
        if result.states_explored:
            for phase, seconds in phases.items():
                if seconds > 0:
                    tel.incr(f"kernelpath.phase.{phase}_s", round(seconds, 6))
            if dur > 0:
                tel.observe(
                    "search.states_per_sec",
                    result.states_explored / dur,
                    engine=resolved,
                )
        tel.incr("search.calls")
        tel.incr("search.states_explored", result.states_explored)
        if result.certificate is not None and result.states_explored == 0:
            tel.incr("search.certificate_short_circuits")
            tel.event(
                "search.certificate_fastpath",
                code=result.certificate,
                deadlock_reachable=result.deadlock_reachable,
            )
        for name, value in after.items():
            delta = value - before.get(name, 0)
            if delta:
                tel.incr(name, delta)
    return result


def _search_deadlock_impl(
    spec: SystemSpec,
    *,
    max_states: int,
    find_witness: bool,
    symmetry_reduction: bool | None,
    engine: str,
    certificates: str | None,
) -> SearchResult:
    """The search proper; ``engine`` is already a concrete engine name."""
    if symmetry_reduction is None:
        symmetry_reduction = not find_witness

    init = spec.initial_state()
    dead = spec.deadlocked_set(init)
    if dead:  # pragma: no cover - empty network can't deadlock
        raise AssertionError("initial state deadlocked; spec is malformed")

    # static-certificate pre-pass (lazy import: lint sits above analysis)
    from repro.lint.certificates import (
        CertificateMismatch,
        certificates_mode,
        spec_certificate,
    )

    cert_mode = certificates_mode(certificates)
    cert = spec_certificate(spec) if cert_mode != "off" else None
    if cert is not None and cert_mode == "on":
        if not cert.deadlock_reachable:
            return SearchResult(
                deadlock_reachable=False,
                witness=None,
                states_explored=0,
                spec=spec,
                certificate=cert.code,
            )
        if not find_witness:
            return SearchResult(
                deadlock_reachable=True,
                witness=None,
                states_explored=0,
                spec=spec,
                certificate=cert.code,
            )
        # reachable certificate with a witness requested: construct the
        # certificate's stall-free schedule directly (zero search states);
        # only a failed construction falls through to the BFS.
        from repro.lint.witness import certificate_witness

        wit = certificate_witness(cert, spec)
        if wit is not None:
            return SearchResult(
                deadlock_reachable=True,
                witness=wit,
                states_explored=0,
                spec=spec,
                certificate=cert.code,
            )

    if engine == "reference":
        result = _search_reference(
            spec,
            init,
            max_states=max_states,
            find_witness=find_witness,
            symmetry_reduction=symmetry_reduction,
        )
    else:
        result = _search_kernel(
            spec,
            max_states=max_states,
            find_witness=find_witness,
            symmetry_reduction=symmetry_reduction,
        )

    if cert is not None:
        if cert_mode == "check" and result.deadlock_reachable != cert.deadlock_reachable:
            raise CertificateMismatch(
                f"static certificate {cert.code} says "
                f"{'reachable' if cert.deadlock_reachable else 'deadlock-free'} "
                f"but the search found the opposite "
                f"({result.states_explored} states explored)"
            )
        result.certificate = cert.code
    return result


def _search_reference(
    spec: SystemSpec,
    init: SystemState,
    *,
    max_states: int,
    find_witness: bool,
    symmetry_reduction: bool,
) -> SearchResult:
    """The original :meth:`SystemSpec.successors`-driven BFS (oracle engine)."""
    canon = _symmetry_canonicalizer(spec) if symmetry_reduction else None
    visited: set[SystemState] = {canon(init) if canon else init}
    parent: dict[SystemState, tuple[SystemState, tuple[str, ...]]] = {}
    queue: deque[SystemState] = deque([init])

    while queue:
        state = queue.popleft()
        for nxt, actions in spec.successors(state):
            key = canon(nxt) if canon else nxt
            if key in visited:
                continue
            visited.add(key)
            if len(visited) > max_states:
                raise SearchLimitExceeded(
                    f"exceeded {max_states} states; tighten the scenario or raise the cap"
                )
            if find_witness:
                parent[nxt] = (state, actions)
            dead = spec.deadlocked_set(nxt)
            if dead:
                witness = None
                if find_witness:
                    witness = _rebuild_witness(spec, parent, init, nxt, dead)
                return SearchResult(
                    deadlock_reachable=True,
                    witness=witness,
                    states_explored=len(visited),
                    spec=spec,
                )
            queue.append(nxt)

    return SearchResult(
        deadlock_reachable=False,
        witness=None,
        states_explored=len(visited),
        spec=spec,
    )


def _search_kernel(
    spec: SystemSpec,
    *,
    max_states: int,
    find_witness: bool,
    symmetry_reduction: bool,
) -> SearchResult:
    """Search through the compiled :class:`KernelEngine` of ``spec``."""
    eng = _kernel_engine_for(spec)
    if not find_witness:
        reachable, explored = eng.search(
            max_states=max_states, symmetry_reduction=symmetry_reduction
        )
        return SearchResult(
            deadlock_reachable=reachable,
            witness=None,
            states_explored=explored,
            spec=spec,
        )

    # witness search: compiled BFS with bare parent pointers; the action
    # rows are recovered for the states on the deadlock path only (see
    # KernelEngine.search_witness), so witness searches run at nearly
    # verdict-search speed while returning the reference's exact witness
    found, count, steps, states, dead = eng.search_witness(
        max_states=max_states, symmetry_reduction=symmetry_reduction
    )
    witness = None
    if found:
        assert steps is not None and states is not None
        witness = Witness(spec=spec, steps=steps, states=states, deadlocked=dead)
    return SearchResult(
        deadlock_reachable=found,
        witness=witness,
        states_explored=count,
        spec=spec,
    )


def _rebuild_witness(
    spec: SystemSpec,
    parent: dict[SystemState, tuple[SystemState, tuple[str, ...]]],
    init: SystemState,
    final: SystemState,
    dead: tuple[int, ...],
) -> Witness:
    steps: list[tuple[str, ...]] = []
    states: list[SystemState] = []
    cur = final
    while cur != init:
        prev, actions = parent[cur]
        steps.append(actions)
        states.append(cur)
        cur = prev
    steps.reverse()
    states.reverse()
    return Witness(spec=spec, steps=steps, states=states, deadlocked=dead)
