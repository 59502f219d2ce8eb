"""Static deadlock certificates (Dally--Seitz and paper Section 5).

A :class:`Certificate` is a machine-checked static verdict strong enough to
replace the exhaustive reachability search:

``DEADLOCK_FREE``
    The dependency structure is acyclic (Dally & Seitz).  Sound by the
    standard argument: any wormhole deadlock contains a wait-for cycle
    among messages, and each holder's contiguous occupied path segment maps
    the waited-on channels onto a cycle of dependency edges -- impossible
    in an acyclic dependency graph.  Budget-independent (stalls add no
    wait-for edges).  For *adaptive* routing functions the same verdict
    comes from Duato's escape-channel condition (``CRT008``,
    :func:`adaptive_certificate`): a connected escape subfunction with an
    acyclic escape CDG, evidenced by the escape channel set and a
    topological drain order.

``REACHABLE_DEADLOCK``
    A Definition-6 deadlock configuration exists *and* is provably
    reachable, by one of:

    * **Disjoint tiling** (``CRT005``, the Theorem 2 shape): the tiling's
      members interact only on the cycle -- each member's path meets the
      cycle in exactly its single run, and the off-cycle approach prefixes
      are pairwise disjoint.  Then the members can be injected on a
      schedule where each one runs unobstructed to its blocking position
      after its successor has occupied it; the circular arrival constraints
      have total slack ``sum(held) = len(cycle) > 0`` so a consistent
      schedule always exists, with no stalls (budget 0) and message lengths
      ``>= held`` keeping every held channel covered by the flit train.
      This certificate is self-contained: it does not assume any theorem.
    * **Single shared channel** (``CRT006`` Theorem 3 with minimal routing,
      ``CRT007`` Theorem 4 with two messages): the members' off-cycle
      prefixes pairwise intersect in exactly one common channel.  These
      mirror the paper's theorem hypotheses and are issued only at the
      cycle/algorithm level, where the claim -- *some* scenario of the
      cycle deadlocks -- matches the theorems' existence statements.
    * **Closure corollaries** (``CRT002``--``CRT004``, Corollaries 1--3):
      an input-channel-independent / suffix-closed / coherent algorithm has
      no unreachable configurations, so a statically verified suffix-message
      tiling of any CDG cycle (one single-flit message per cycle edge,
      starting exactly on that edge) is a reachable deadlock.

Certificates always carry replayable evidence; every reachable certificate
includes the concrete :class:`~repro.analysis.state.CheckerMessage` set of
its deadlock configuration so tests can hand it back to the search engine.

``REPRO_STATIC_CERTIFICATES`` (``on`` / ``off`` / ``check``) gates the
fast-path consumers, mirroring ``REPRO_SEARCH_ENGINE`` from the kernel/
reference search pattern: ``check`` runs both the certificate and the
search and raises :class:`CertificateMismatch` on disagreement.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.analysis.state import CheckerMessage, SystemSpec
from repro.cdg import cycles as cdg_cycles
from repro.cdg.analysis import CycleEnumeration, is_acyclic
from repro.lint.diagnostics import DEADLOCK_FREE, REACHABLE_DEADLOCK
from repro.lint.tiling import Tiling, cycle_runs, enumerate_tilings
from repro.routing.base import RoutingAlgorithm
from repro.routing.properties import PropertyScan
from repro.topology.channels import Channel, NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

Pair = tuple[NodeId, NodeId]

ENV_VAR = "REPRO_STATIC_CERTIFICATES"
MODES = ("on", "off", "check")


def certificates_mode(override: str | None = None) -> str:
    """Resolve the certificate gating mode (parameter beats environment)."""
    mode = override if override is not None else os.environ.get(ENV_VAR, "on")
    if mode not in MODES:
        raise ValueError(
            f"unknown certificates mode {mode!r}; use one of {', '.join(MODES)}"
        )
    return mode


class CertificateMismatch(AssertionError):
    """A static certificate disagreed with the search engine (check mode)."""


#: process-wide activity counters for the certificate layer, mirrored into
#: telemetry when it is enabled; always incremented so tests can assert on
#: them without standing up the telemetry stack
CERT_COUNTERS: dict[str, int] = {
    "lint.certificate.witness_emitted": 0,
    "lint.certificate.witness_failed": 0,
    "lint.certificate.replay.pass": 0,
    "lint.certificate.replay.fail": 0,
    "lint.certificate.adaptive.decided": 0,
    "lint.certificate.adaptive.undecided": 0,
}


def bump_counter(name: str, value: int = 1) -> None:
    """Increment a certificate-activity counter (and telemetry, if on)."""
    CERT_COUNTERS[name] = CERT_COUNTERS.get(name, 0) + value
    from repro.obs import get as _obs_get

    tel = _obs_get()
    if tel is not None:
        tel.incr(name, value)


@dataclass(frozen=True)
class Certificate:
    """A static verdict with its machine-checkable evidence."""

    code: str  # lint rule code, e.g. "CRT001"
    verdict: str  # DEADLOCK_FREE | REACHABLE_DEADLOCK
    rationale: str
    evidence: dict[str, Any] = field(default_factory=dict)
    #: for reachable verdicts: the concrete deadlock configuration, replayable
    #: through ``search_deadlock`` with certificates off
    messages: tuple[CheckerMessage, ...] = ()

    def __post_init__(self) -> None:
        if self.verdict not in (DEADLOCK_FREE, REACHABLE_DEADLOCK):
            raise ValueError(f"unknown certificate verdict {self.verdict!r}")

    @property
    def deadlock_reachable(self) -> bool:
        return self.verdict == REACHABLE_DEADLOCK


# ----------------------------------------------------------------------
# spec level (fixed message set): used by search_deadlock's pre-pass
# ----------------------------------------------------------------------
def spec_adjacency(spec: SystemSpec) -> dict[int, dict[int, None]]:
    """Channel-id dependency graph induced by the spec's message paths, as
    successor dicts in first-use order (the search pre-pass needs no
    networkx)."""
    adj: dict[int, dict[int, None]] = {}
    for m in spec.messages:
        for cid in m.path:
            adj.setdefault(cid, {})
        for a, b in zip(m.path, m.path[1:]):
            adj[a][b] = None
    return adj


def spec_dependency_graph(spec: SystemSpec) -> nx.DiGraph:
    """:func:`spec_adjacency` as a networkx ``DiGraph`` (same order)."""
    import networkx as nx

    adj = spec_adjacency(spec)
    g = nx.DiGraph()
    g.add_nodes_from(adj)
    g.add_edges_from((a, b) for a, succ in adj.items() for b in succ)
    return g


def spec_certificate(
    spec: SystemSpec, *, max_cycles: int = 200, max_tilings: int = 64
) -> Certificate | None:
    """Static verdict for a fixed scenario, or ``None`` when undecided.

    Only the two self-contained arguments are used at this level: the
    acyclic dependency graph (deadlock-free at any budget) and the disjoint
    tiling (reachable with the spec's own lengths, at any budget).  The
    theorem-based shared-channel certificates are deliberately *not*
    applied here: with fixed message lengths their hypotheses concern the
    existence of some scenario, not this exact one.
    """
    adj = spec_adjacency(spec)
    if cdg_cycles.is_acyclic(adj):
        order = {cid: i for i, cid in enumerate(cdg_cycles.topological_order(adj))}
        return Certificate(
            code="CRT001",
            verdict=DEADLOCK_FREE,
            rationale=(
                "message dependency graph is acyclic (Dally-Seitz): every "
                "wormhole deadlock needs a dependency cycle"
            ),
            evidence={"numbering": order, "channels": len(adj)},
        )

    paths = [m.path for m in spec.messages]
    lengths = [m.length for m in spec.messages]
    count = 0
    for cyc in cdg_cycles.simple_cycles(adj):
        count += 1
        if count > max_cycles:
            break
        cycle = tuple(cyc)
        candidates = {
            i: runs
            for i, p in enumerate(paths)
            if (runs := cycle_runs(cycle, p))
        }
        for tiling in enumerate_tilings(len(cycle), candidates, max_tilings=max_tilings):
            member_info = _check_disjoint_tiling(cycle, paths, tiling)
            if member_info is None:
                continue
            if any(lengths[m] < h for m, h in zip(tiling.members, tiling.held_lengths)):
                continue
            members = [spec.messages[i] for i in tiling.members]
            return Certificate(
                code="CRT005",
                verdict=REACHABLE_DEADLOCK,
                rationale=(
                    "dependency cycle admits a Definition-6 tiling whose members "
                    "meet the cycle only in their own runs with pairwise-disjoint "
                    "approach prefixes (Theorem 2 shape); a stall-free injection "
                    "schedule reaches the deadlock"
                ),
                evidence={
                    "cycle": list(cycle),
                    "members": [m.tag or f"msg{i}" for i, m in zip(tiling.members, members)],
                    "member_indices": list(tiling.members),
                    "starts": list(tiling.starts),
                    "held_lengths": list(tiling.held_lengths),
                },
                messages=tuple(members),
            )
    return None


def _check_disjoint_tiling(
    cycle: Sequence[int],
    paths: Sequence[Sequence[int]],
    tiling: Tiling,
) -> list[tuple[int, tuple[int, ...]]] | None:
    """Verify the CRT005 conditions for one tiling over cid paths.

    Returns ``[(block_position, prefix)]`` per member, or ``None`` if any
    condition fails:

    * at least two members;
    * each member's path meets the cycle in exactly the held run's channels
      (one consecutive stretch -- so its approach prefix avoids the cycle
      and it never wanders back onto it);
    * the blocked channel really is on the path right after the held
      segment;
    * the off-cycle prefixes are pairwise disjoint.
    """
    if len(tiling) < 2:
        return None
    n = len(cycle)
    cycset = set(cycle)
    out: list[tuple[int, tuple[int, ...]]] = []
    prefixes: list[set[int]] = []
    for member, start, held in zip(tiling.members, tiling.starts, tiling.held_lengths):
        path = list(paths[member])
        # the member's run: consecutive cycle channels from its start until
        # the path leaves the cycle order
        run_channels = []
        try:
            idx = path.index(cycle[start])
        except ValueError:
            return None
        j = idx
        while j < len(path) and path[j] == cycle[(start + (j - idx)) % n] and j - idx < n:
            run_channels.append(path[j])
            j += 1
        if set(path) & cycset != set(run_channels):
            return None
        if idx + held >= len(path) or path[idx + held] != cycle[(start + held) % n]:
            return None
        prefix = tuple(path[:idx])
        pset = set(prefix)
        if pset & cycset:
            return None  # defensive; implied by the exact-run condition
        if any(pset & q for q in prefixes):
            return None
        prefixes.append(pset)
        out.append((idx + held, prefix))
    return out


# ----------------------------------------------------------------------
# adaptive routing: Duato's escape-channel certificate (CRT008)
# ----------------------------------------------------------------------
def adaptive_certificate(fn: Any) -> Certificate | None:
    """Static verdict for an adaptive routing function, or ``None``.

    Duato's sufficiency (``CRT008``): a *connected* escape subfunction
    with an acyclic escape CDG makes the adaptive function deadlock-free
    even though its full CDG may be cyclic -- a blocked message can always
    fall back to the escape channels, which drain in topological order
    (the certificate's evidence carries that order).  Functions without
    an escape subfunction fall back to Dally--Seitz over the full
    adaptive CDG (``CRT001``).  There is no static reachable-deadlock
    argument at this level: the oblivious tiling certificates reason over
    fixed paths, which an adaptive router can abandon mid-flight.
    """
    from repro.cdg.adaptive import build_adaptive_cdg, duato_certificate

    if getattr(fn, "escape_function", None) is not None:
        duato = duato_certificate(fn)
        if duato.deadlock_free:
            bump_counter("lint.certificate.adaptive.decided")
            return Certificate(
                code="CRT008",
                verdict=DEADLOCK_FREE,
                rationale=(
                    "connected escape subfunction with an acyclic escape CDG "
                    "(Duato): every blocked message can always route onto the "
                    "escape channels, which drain in topological order"
                ),
                evidence={
                    "escape_channels": list(duato.escape_channels),
                    "escape_order": [ch.short() for ch in duato.escape_order],
                    "full_cdg_acyclic": duato.full_cdg_acyclic,
                    "escape_connected": duato.escape_connected,
                },
            )
        bump_counter("lint.certificate.adaptive.undecided")
        return None
    full = build_adaptive_cdg(fn)
    if is_acyclic(full):
        drain = cdg_cycles.topological_order(full.adj)
        order = {ch.short(): i for i, ch in enumerate(drain)}
        bump_counter("lint.certificate.adaptive.decided")
        return Certificate(
            code="CRT001",
            verdict=DEADLOCK_FREE,
            rationale=(
                "full adaptive channel dependency graph is acyclic: "
                "deadlock-free by Dally-Seitz regardless of route choice"
            ),
            evidence={"numbering": order, "channels": full.number_of_nodes()},
        )
    bump_counter("lint.certificate.adaptive.undecided")
    return None


# ----------------------------------------------------------------------
# cycle / algorithm level: used by classify_cycle and the lint engine
# ----------------------------------------------------------------------
def _channel_tilings(
    alg: RoutingAlgorithm,
    cycle: Sequence[Channel],
    scan: PropertyScan,
    *,
    max_tilings: int,
) -> tuple[tuple[int, ...], dict[Pair, tuple[int, ...]], list[Tiling]]:
    """Cid cycle, member paths, and Definition-6 tilings for one CDG cycle."""
    cyc = tuple(ch.cid for ch in cycle)
    member_paths: dict[Pair, tuple[int, ...]] = {}
    candidates: dict[Pair, list[tuple[int, int]]] = {}
    for pair, path in scan.paths.items():
        if path is None:
            continue
        cids = tuple(ch.cid for ch in path)
        runs = cycle_runs(cyc, cids)
        if runs:
            member_paths[pair] = cids
            candidates[pair] = runs
    return cyc, member_paths, enumerate_tilings(len(cyc), candidates, max_tilings=max_tilings)


def _shared_channel_structure(
    cycle: Sequence[int],
    paths: dict[Pair, tuple[int, ...]],
    tiling: Tiling,
) -> tuple[int, list[tuple[int, tuple[int, ...]]]] | None:
    """Single-shared-channel check (Theorems 3/4): prefixes meet in one channel.

    Same per-member conditions as the disjoint tiling, except the off-cycle
    prefixes must all contain one common channel ``x`` and pairwise
    intersect in exactly ``{x}``.  Returns ``(x, member_info)`` or ``None``.
    """
    if len(tiling) < 2:
        return None
    n = len(cycle)
    cycset = set(cycle)
    prefixes: list[set[int]] = []
    info: list[tuple[int, tuple[int, ...]]] = []
    for member, start, held in zip(tiling.members, tiling.starts, tiling.held_lengths):
        path = list(paths[member])
        try:
            idx = path.index(cycle[start])
        except ValueError:
            return None
        run_channels = []
        j = idx
        while j < len(path) and path[j] == cycle[(start + (j - idx)) % n] and j - idx < n:
            run_channels.append(path[j])
            j += 1
        if set(path) & cycset != set(run_channels):
            return None
        if idx + held >= len(path) or path[idx + held] != cycle[(start + held) % n]:
            return None
        prefix = tuple(path[:idx])
        prefixes.append(set(prefix))
        info.append((idx + held, prefix))
    common = set.intersection(*prefixes) if prefixes else set()
    if len(common) != 1:
        return None
    x = next(iter(common))
    for a in range(len(prefixes)):
        for b in range(a + 1, len(prefixes)):
            if prefixes[a] & prefixes[b] != {x}:
                return None
    return x, info


def _tiling_messages(
    alg: RoutingAlgorithm, tiling: Tiling, paths: dict[Pair, tuple[int, ...]]
) -> tuple[CheckerMessage, ...]:
    """The tiling's members as checker messages at minimum adequate lengths."""
    return tuple(
        CheckerMessage(
            path=paths[pair], length=max(1, held), tag=f"{pair[0]}->{pair[1]}"
        )
        for pair, held in zip(tiling.members, tiling.held_lengths)
    )


def suffix_tiling_messages(
    alg: RoutingAlgorithm, cdg: nx.DiGraph, cycle: Sequence[Channel]
) -> list[CheckerMessage] | None:
    """One single-flit message per cycle edge, verified to start on it.

    For edge ``c_i -> c_{i+1}`` pick an inducing pair ``(s, d)`` and check
    that the algorithm routes ``(src(c_i), d)`` along a path that *starts*
    ``[c_i, c_{i+1}, ...]`` -- the suffix message of the Corollary 1--3
    arguments.  The resulting set tiles the cycle: message ``i`` holds
    ``c_i`` (one flit) with its header blocked at ``c_{i+1}``, held by
    message ``i+1``.  Returns ``None`` if any edge has no verifiable
    suffix message, in which case no corollary certificate is issued.
    """
    msgs: list[CheckerMessage] = []
    n = len(cycle)
    for i, ch in enumerate(cycle):
        nxt = cycle[(i + 1) % n]
        data = cdg.get_edge_data(ch, nxt)
        if data is None:
            return None
        found = None
        for _, d in sorted(data["info"].pairs, key=repr):
            if ch.src == d:
                continue
            p = alg.try_path(ch.src, d)
            if p is not None and len(p) >= 2 and p[0].cid == ch.cid and p[1].cid == nxt.cid:
                found = CheckerMessage(
                    path=tuple(c.cid for c in p),
                    length=1,
                    tag=f"{ch.short()}~>{d}",
                )
                break
        if found is None:
            return None
        msgs.append(found)
    return msgs


def _covers_all_pairs(scan: PropertyScan) -> bool:
    nodes = scan.alg.network.nodes
    want = {(s, d) for s in nodes for d in nodes if s != d}
    return set(scan.domain) == want


def _corollary_certificate(
    alg: RoutingAlgorithm,
    scan: PropertyScan,
    cdg: nx.DiGraph,
    cycle: Sequence[Channel],
) -> Certificate | None:
    """Corollary 1/2/3 certificate for one concrete CDG cycle."""
    suffix_ok = scan.suffix_closed()
    coherent = suffix_ok and scan.coherent()
    ici = (
        scan.input_channel_independent()
        and scan.connected()
        and _covers_all_pairs(scan)
    )
    if not (suffix_ok or coherent or ici):
        return None
    msgs = suffix_tiling_messages(alg, cdg, cycle)
    if msgs is None:
        return None
    if coherent:
        code, prop, ref = "CRT004", "coherent", "Corollary 3"
    elif suffix_ok:
        code, prop, ref = "CRT003", "suffix-closed", "Corollary 2"
    else:
        code, prop, ref = "CRT002", "input-channel independent (N x N -> C)", "Corollary 1"
    return Certificate(
        code=code,
        verdict=REACHABLE_DEADLOCK,
        rationale=(
            f"routing is {prop}, so it has no unreachable configurations "
            f"({ref}); the cycle's verified suffix-message tiling is therefore "
            "a reachable deadlock"
        ),
        evidence={
            "property": prop,
            "cycle": [ch for ch in cycle],
            "suffix_messages": list(msgs),
        },
        messages=tuple(msgs),
    )


def cycle_certificate(
    alg: RoutingAlgorithm,
    cycle: Sequence[Channel],
    pairs: Sequence[Pair] | None = None,
    *,
    scan: PropertyScan | None = None,
    cdg: nx.DiGraph | None = None,
    max_tilings: int = 256,
) -> Certificate | None:
    """Static REACHABLE_DEADLOCK verdict for one CDG cycle, or ``None``.

    The existence claim matches :func:`repro.analysis.classify.classify_cycle`:
    *some* scenario of messages realising this cycle reaches a deadlock.
    No deadlock-free certificate exists at this level -- a cycle that
    resists every static argument still needs the search.
    """
    if scan is None:
        scan = PropertyScan(alg, pairs)
    cyc, member_paths, tilings = _channel_tilings(alg, cycle, scan, max_tilings=max_tilings)
    by_cid = {ch.cid: ch for ch in cycle}

    # self-contained disjoint-tiling argument first
    for tiling in tilings:
        if _check_disjoint_tiling(cyc, _as_list(member_paths, tiling), tiling_local(tiling)) is not None:
            return Certificate(
                code="CRT005",
                verdict=REACHABLE_DEADLOCK,
                rationale=(
                    "Definition-6 tiling with pairwise-disjoint off-cycle "
                    "approaches (Theorem 2 shape); reachable by a stall-free "
                    "injection schedule"
                ),
                evidence=_tiling_evidence(cycle, tiling),
                messages=_tiling_messages(alg, tiling, member_paths),
            )

    # closure corollaries (Cor. 1-3) over the scan's domain
    if cdg is None:
        from repro.cdg.build import build_cdg

        cdg = build_cdg(alg, list(scan.domain))
    cert = _corollary_certificate(alg, scan, cdg, cycle)
    if cert is not None:
        return cert

    # theorem-based shared-channel structure
    for tiling in tilings:
        shared = _shared_channel_structure(cyc, member_paths, tiling)
        if shared is None:
            continue
        x, _ = shared
        if len(tiling) == 2:
            return Certificate(
                code="CRT007",
                verdict=REACHABLE_DEADLOCK,
                rationale=(
                    "two messages tile the cycle and share exactly one channel "
                    "outside it (Theorem 4): the deadlocked configuration is "
                    "reachable"
                ),
                evidence={**_tiling_evidence(cycle, tiling), "shared_channel": by_cid.get(x, x)},
                messages=_tiling_messages(alg, tiling, member_paths),
            )
        if scan.minimal():
            return Certificate(
                code="CRT006",
                verdict=REACHABLE_DEADLOCK,
                rationale=(
                    "minimal routing with a cycle whose tiling members all share "
                    "a single channel outside the cycle (Theorem 3): the deadlock "
                    "is reachable"
                ),
                evidence={**_tiling_evidence(cycle, tiling), "shared_channel": by_cid.get(x, x)},
                messages=_tiling_messages(alg, tiling, member_paths),
            )
    return None


def _as_list(paths: dict[Pair, tuple[int, ...]], tiling: Tiling) -> list[tuple[int, ...]]:
    """Member paths indexed positionally, matching the index-rewritten tiling."""
    return [paths[m] for m in tiling.members]


def tiling_local(tiling: Tiling) -> Tiling:
    """Rewrite a pair-keyed tiling to positional member indices."""
    return Tiling(
        members=list(range(len(tiling.members))),
        starts=list(tiling.starts),
        held_lengths=list(tiling.held_lengths),
    )


def _tiling_evidence(cycle: Sequence[Channel], tiling: Tiling) -> dict[str, Any]:
    return {
        "cycle": list(cycle),
        "members": [f"{s}->{d}" for s, d in tiling.members],
        "starts": list(tiling.starts),
        "held_lengths": list(tiling.held_lengths),
    }


def algorithm_certificate(
    scan: PropertyScan,
    cdg: nx.DiGraph,
    cycles: CycleEnumeration,
    *,
    max_probe_cycles: int = 32,
    max_tilings: int = 256,
) -> Certificate | None:
    """Static verdict for a whole routing algorithm, or ``None``.

    Acyclic CDG yields DEADLOCK_FREE (with the Dally--Seitz numbering as
    evidence); otherwise the enumerated cycles are probed for any
    reachable-deadlock certificate.  A truncated cycle enumeration can
    still certify REACHABLE_DEADLOCK (existence needs one good cycle) and
    never weakens DEADLOCK_FREE (acyclicity is decided exactly).
    """
    if is_acyclic(cdg):
        from repro.cdg.numbering import dally_seitz_numbering

        numbering = dally_seitz_numbering(cdg)
        return Certificate(
            code="CRT001",
            verdict=DEADLOCK_FREE,
            rationale=(
                "channel dependency graph is acyclic: deadlock-free by "
                "Dally-Seitz, witnessed by a strictly increasing numbering"
            ),
            evidence={
                "channels": cdg.number_of_nodes(),
                "dependencies": cdg.number_of_edges(),
                "numbering": {ch.short(): i for ch, i in numbering.items()},
            },
        )
    for cycle in list(cycles)[:max_probe_cycles]:
        cert = cycle_certificate(
            scan.alg, cycle, scan=scan, cdg=cdg, max_tilings=max_tilings
        )
        if cert is not None:
            return cert
    return None
