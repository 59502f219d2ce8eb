"""BFS reachability search for wormhole deadlock configurations.

Explores every state reachable from the empty network under the adversary
described in :mod:`repro.analysis.state`.  Terminates because the state
space is finite (header positions, flit counts and budgets are all
bounded); a configurable state cap turns pathological blow-ups into loud
:class:`SearchLimitExceeded` errors instead of silently-partial answers.

:func:`explore` is the one Python exploration loop: the reference engine
runs it over a :class:`SystemSpec`, the adaptive search of
:mod:`repro.analysis.adaptive_state` over an ``AdaptiveSystem``.  The
compiled kernel (:mod:`repro.analysis.kernelpath`) keeps its own loop.
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.analysis.state import SystemSpec, SystemState

# the kernel engine module needs only the stdlib (its compiled library
# loads lazily at the first search, never at import)
from repro.analysis import kernelpath as _kernelpath
from repro.analysis.kernelpath import kernel_unavailable_reason as _kernel_unavailable
from repro.analysis.kernelpath import kernel_engine_for as _kernel_engine_for
from repro.analysis.kernelpath import _LIMIT_MSG
from repro.obs import incr as _obs_incr
from repro.obs import span as _obs_span

#: every name accepted by ``search_deadlock(engine=...)``: the compiled
#: default and the oracle
SEARCH_ENGINES = ("kernel", "reference")

#: fallback warning classes already issued in this process
_fallback_warned: set[type] = set()


def resolve_engine(engine: str | None, spec: SystemSpec) -> str:
    """The concrete engine a search of ``spec`` will run on.

    ``None`` requests the compiled ``kernel`` engine.  A kernel request
    -- the default or named -- runs on the kernel when its compiled
    library loads (a C compiler, or a cached build) and ``spec`` has at most
    ``MAX_KERNEL_MSGS`` messages.  Otherwise it runs on ``reference``: a
    loud fallback, warned once per process (a
    :class:`~repro.analysis.kernelpath.WideSpecFallbackWarning` for a
    wide spec, else a :class:`RuntimeWarning` naming why no library
    loaded) and counted in ``search.engine.fallback.reference`` on every
    fallen-back search.  Unknown names raise :class:`ValueError`.
    """
    eng = engine or "kernel"
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
    _obs_incr("search.engine.fallback.reference")
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


if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Protocol

    class SearchSystem(Protocol):
        """What :func:`explore` and a :class:`Witness` read of a system:
        :class:`SystemSpec` and
        :class:`~repro.analysis.adaptive_state.AdaptiveSystem` fit."""

        @property
        def messages(self) -> Any: ...

        def initial_state(self) -> Any: ...

        def successors(self, state: Any) -> list[tuple[Any, tuple[str, ...]]]: ...

        def deadlocked_set(self, state: Any) -> tuple[int, ...]: ...


@dataclass
class Witness:
    """A replayable path from the empty network to a deadlock state.

    ``spec`` is the searched system (a :class:`SystemSpec`, or an
    :class:`~repro.analysis.adaptive_state.AdaptiveSystem`).
    ``steps[t]`` is the tuple of per-message actions taken in cycle ``t``;
    ``states[t]`` is the state *after* that cycle (``states[-1]`` is the
    deadlock state).  ``deadlocked`` lists the message indices on the
    wait-for cycle.
    """

    spec: SearchSystem
    steps: list[tuple[str, ...]]
    states: list[Any]
    deadlocked: tuple[int, ...]

    @property
    def num_cycles(self) -> int:
        return len(self.steps)

    @property
    def tags(self) -> list[str]:
        """Each message's name in reports: its tag, else ``msg<index>``."""
        return [m.tag or f"msg{i}" for i, m in enumerate(self.spec.messages)]

    def render(self) -> str:
        """Human-readable cycle-by-cycle account of the deadlock formation."""
        tags = self.tags
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
    """Outcome of :func:`search_deadlock` (``spec`` a :class:`SystemSpec`)
    and of
    :func:`~repro.analysis.adaptive_state.search_adaptive_deadlock`
    (``spec`` an :class:`~repro.analysis.adaptive_state.AdaptiveSystem`)."""

    deadlock_reachable: bool
    witness: Witness | None
    states_explored: int
    spec: SearchSystem | None = field(repr=False, default=None)
    #: rule code of the static certificate that decided (or confirmed) the
    #: verdict, e.g. ``"CRT001"``; ``None`` when the BFS decided alone.
    #: ``states_explored == 0`` iff the certificate alone decided.
    certificate: str | None = None
    #: BFS levels a verdict-only kernel search expanded (reported as the
    #: ``frontier_depth`` span attribute); ``None`` on other searches
    frontier_depth: int | None = field(default=None, repr=False, compare=False)

    @property
    def is_false_resource_cycle(self) -> bool:
        """Convenience alias: unreachable deadlock == false resource cycle."""
        return not self.deadlock_reachable

    @property
    def deadlocked_tags(self) -> tuple[str, ...]:
        """The witness's deadlocked members by :attr:`Witness.tags` name;
        empty without a witness."""
        if self.witness is None:
            return ()
        tags = self.witness.tags
        return tuple(tags[i] for i in self.witness.deadlocked)


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
    engine:
        ``"kernel"`` runs the whole search as one compiled fused loop
        through :class:`~repro.analysis.kernelpath.KernelEngine`;
        ``"reference"`` runs :func:`explore` over
        :meth:`SystemSpec.successors` as the cross-checking oracle.
        ``None`` (default) picks ``kernel``.  This is the one place the engine can be named:
        the layers above always take the default.  A kernel
        request falls back to ``reference`` loudly when no compiled kernel
        library loads or the spec is too wide for it (see
        :func:`resolve_engine`).  Both engines produce identical verdicts,
        ``states_explored`` counts and witnesses (pinned by
        ``tests/test_kernelpath_differential.py``).
    certificates:
        The static-certificate mode of
        :func:`repro.lint.certificates.certified_search`, the one
        contract of every search entry point.
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
    Every search deduplicates states up to permutation of identical
    messages (same path, length and budget; see
    :func:`_symmetry_canonicalizer`), which is sound and complete for the
    verdict.  So ``states_explored`` is the reduced count whether or not
    a witness is asked for, and a witness is a path through first-reached
    representatives.  BFS order means a search-produced witness has the
    minimum number of cycles over all deadlock formations -- handy for
    reports and replay tests.  Certificate-constructed witnesses follow the Theorem-2
    schedule instead, which may take more cycles.
    """
    # resolved once, and named on the span as the engine that ran
    engine = resolve_engine(engine, spec)

    def shortcut(cert) -> SearchResult | None:
        # a reachable certificate with a witness requested builds its
        # stall-free schedule (zero search states); only a failed
        # construction falls through to the BFS
        wit = None
        if cert.deadlock_reachable and find_witness:
            from repro.lint.witness import certificate_witness

            wit = certificate_witness(cert, spec)
            if wit is None:
                return None
        return SearchResult(
            deadlock_reachable=cert.deadlock_reachable,
            witness=wit,
            states_explored=0,
            spec=spec,
        )

    def search() -> SearchResult:
        if engine != "reference":
            return _search_kernel(
                spec, max_states=max_states, find_witness=find_witness
            )
        found, explored, witness = explore(
            spec,
            max_states=max_states,
            find_witness=find_witness,
            canon=_symmetry_canonicalizer(spec),
        )
        return SearchResult(
            deadlock_reachable=found,
            witness=witness,
            states_explored=explored,
            spec=spec,
        )

    # the certificate contract (lazy import: lint sits above analysis);
    # spec_certificate is looked up at each call
    from repro.lint import certificates as certs

    with _obs_span(
        "search.deadlock",
        engine=engine,
        find_witness=find_witness,
        messages=len(spec.messages),
    ) as sp:
        t0 = time.perf_counter()
        dead = spec.deadlocked_set(spec.initial_state())
        if dead:  # pragma: no cover - empty network can't deadlock
            raise AssertionError("initial state deadlocked; spec is malformed")
        result = certs.certified_search(
            certificates, lambda: certs.spec_certificate(spec), shortcut, search
        )
        dur = time.perf_counter() - t0
        sp.set(
            verdict="reachable" if result.deadlock_reachable else "deadlock-free",
            states_explored=result.states_explored,
            certificate=result.certificate,
        )
        if dur > 0 and result.states_explored:
            rate = result.states_explored / dur
            sp.set(states_per_sec=round(rate, 1))
            sp.observe("search.states_per_sec", rate, engine=engine)
        if sp.live and engine == "kernel" and result.states_explored:
            sp.set(kernel_backend=_kernelpath.resolve_backend())
        if result.witness is not None:
            sp.set(frontier_depth=result.witness.num_cycles)
        elif result.frontier_depth is not None:
            sp.set(frontier_depth=result.frontier_depth)
        sp.incr("search.calls")
        sp.incr("search.states_explored", result.states_explored)
        if result.certificate is not None and result.states_explored == 0:
            sp.incr("search.certificate_short_circuits")
            sp.event(
                "search.certificate_fastpath",
                code=result.certificate,
                deadlock_reachable=result.deadlock_reachable,
            )
    return result


def _search_kernel(
    spec: SystemSpec, *, max_states: int, find_witness: bool
) -> SearchResult:
    """Search through the compiled :class:`KernelEngine` of ``spec``."""
    eng = _kernel_engine_for(spec)
    if not find_witness:
        reachable, explored, depth = eng.search(max_states=max_states)
        return SearchResult(
            deadlock_reachable=reachable,
            witness=None,
            states_explored=explored,
            spec=spec,
            frontier_depth=depth,
        )

    # witness search: compiled BFS with bare parent pointers; the action
    # rows are recovered for the states on the deadlock path only (see
    # KernelEngine.search_witness), so witness searches run at nearly
    # verdict-search speed while returning the reference's exact witness
    found, count, steps, states, dead = eng.search_witness(max_states=max_states)
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


def explore(
    system: SearchSystem,
    *,
    max_states: int,
    find_witness: bool,
    canon: Callable[[Any], Any] | None = None,
) -> tuple[bool, int, Witness | None]:
    """Breadth-first search of ``system`` for a reachable deadlock.

    The one exploration loop of the Python side: the reference engine
    runs it over a :class:`SystemSpec`, the adaptive search over an
    :class:`~repro.analysis.adaptive_state.AdaptiveSystem`.  It reads
    only the :class:`SearchSystem` protocol, stops at the first
    deadlocked state it discovers and returns ``(deadlock_reachable,
    states_explored, witness)``.  ``states_explored`` counts distinct
    states (up to ``canon``, which maps a state to its dedup key), and
    one past ``max_states`` raises :class:`SearchLimitExceeded`.  With
    ``find_witness`` a parent map is kept and a reachable answer carries
    its minimum-cycle :class:`Witness`: the first emission that reached
    each state on the path names that step's actions.
    """
    init = system.initial_state()
    visited = {canon(init) if canon else init}
    parent: dict[Any, tuple[Any, tuple[str, ...]]] = {}
    queue = deque([init])
    while queue:
        state = queue.popleft()
        for nxt, actions in system.successors(state):
            key = canon(nxt) if canon else nxt
            if key in visited:
                continue
            visited.add(key)
            if len(visited) > max_states:
                raise SearchLimitExceeded(_LIMIT_MSG.format(max_states=max_states))
            if find_witness:
                parent[nxt] = (state, actions)
            dead = system.deadlocked_set(nxt)
            if dead:
                witness = None
                if find_witness:
                    steps: list[tuple[str, ...]] = []
                    states = []
                    cur = nxt
                    while cur != init:
                        states.append(cur)
                        cur, acts = parent[cur]
                        steps.append(acts)
                    steps.reverse()
                    states.reverse()
                    witness = Witness(spec=system, steps=steps, states=states, deadlocked=dead)
                return True, len(visited), witness
            queue.append(nxt)
    return False, len(visited), None
