"""The lint rule registry and the built-in rule catalogue.

Each :class:`Rule` has a stable code (``TOP``/``RTE``/``PRP``/``CDG``/``CRT``
families), a paper reference, and a check function over a
:class:`~repro.lint.engine.LintContext`.  Rules are pure inspections: they
never run the reachability search.  See ``docs/LINT.md`` for the catalogue
with per-rule paper citations.

Severity conventions: ``error`` means the target is malformed (broken
routes, duplicate VCs) -- the lint CLI exits non-zero; ``warning`` flags
analysis-degrading conditions (truncated cycle enumeration, source-only
nodes); ``info`` records structural facts and certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.cdg.cycles import shortest_cycle
from repro.lint.diagnostics import DEADLOCK_FREE, REACHABLE_DEADLOCK, Diagnostic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import LintContext

#: evidence lists are capped so a pathological target cannot bloat reports
EVIDENCE_CAP = 12


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    code: str
    title: str
    severity: str
    paper_ref: str
    check: Callable[["LintContext"], list[Diagnostic]] = field(compare=False)
    #: certificate rules are mutually exclusive: the engine stops after the
    #: first one that fires
    certificate: bool = False


_RULES: dict[str, Rule] = {}


def register_rule(rule: Rule) -> Rule:
    if rule.code in _RULES:
        raise ValueError(f"duplicate rule code {rule.code!r}")
    _RULES[rule.code] = rule
    return rule


def rule(
    code: str, title: str, *, severity: str, paper_ref: str, certificate: bool = False
) -> Callable[[Callable[["LintContext"], list[Diagnostic]]], Callable]:
    def deco(fn: Callable[["LintContext"], list[Diagnostic]]) -> Callable:
        register_rule(
            Rule(
                code=code,
                title=title,
                severity=severity,
                paper_ref=paper_ref,
                check=fn,
                certificate=certificate,
            )
        )
        return fn

    return deco


def all_rules() -> list[Rule]:
    """Registered rules, in registration (execution) order."""
    return list(_RULES.values())


def get_rule(code: str) -> Rule:
    try:
        return _RULES[code]
    except KeyError:
        raise KeyError(
            f"unknown lint rule {code!r}; known: {', '.join(sorted(_RULES))}"
        ) from None


def _cap(items: list[Any]) -> list[Any]:
    return items[:EVIDENCE_CAP]


# ----------------------------------------------------------------------
# TOP: topology well-formedness
# ----------------------------------------------------------------------
@rule(
    "TOP001",
    "dangling node (no incoming or no outgoing channels)",
    severity="warning",
    paper_ref="Definition 1",
)
def _top_dangling(ctx: "LintContext") -> list[Diagnostic]:
    net = ctx.network
    source_only = [n for n in net.nodes if not net.channels_in(n)]
    sink_only = [n for n in net.nodes if not net.channels_out(n)]
    out: list[Diagnostic] = []
    if source_only or sink_only:
        out.append(
            Diagnostic(
                code="TOP001",
                severity="warning",
                message=(
                    f"{len(source_only)} source-only and {len(sink_only)} sink-only "
                    "node(s): messages cannot transit them (figure constructions "
                    "do this deliberately; real topologies should not)"
                ),
                evidence={
                    "source_only": _cap(source_only),
                    "sink_only": _cap(sink_only),
                },
            )
        )
    return out


@rule(
    "TOP002",
    "duplicate virtual channel on one physical link",
    severity="error",
    paper_ref="Definition 1 (channels as distinct resources)",
)
def _top_duplicate_vc(ctx: "LintContext") -> list[Diagnostic]:
    seen: dict[tuple, int] = {}
    dups: list[dict[str, Any]] = []
    for ch in ctx.network.channels:
        key = (ch.src, ch.dst, ch.vc)
        if key in seen:
            dups.append({"first": seen[key], "second": ch.cid, "link": f"{ch.src}->{ch.dst}", "vc": ch.vc})
        else:
            seen[key] = ch.cid
    if not dups:
        return []
    return [
        Diagnostic(
            code="TOP002",
            severity="error",
            message=f"{len(dups)} duplicate VC assignment(s) on physical links (builder bug)",
            evidence={"duplicates": _cap(dups)},
        )
    ]


@rule(
    "TOP003",
    "network is not strongly connected",
    severity="info",
    paper_ref="Definition 1",
)
def _top_strong(ctx: "LintContext") -> list[Diagnostic]:
    from repro.cdg.graph import is_strongly_connected, strongly_connected_components

    g = ctx.network.node_digraph()
    if ctx.network.num_nodes == 0 or is_strongly_connected(g.adj):
        return []
    comps = sorted(strongly_connected_components(g.adj), key=len, reverse=True)
    return [
        Diagnostic(
            code="TOP003",
            severity="info",
            message=(
                f"not strongly connected: {len(comps)} components, largest "
                f"{len(comps[0])} of {ctx.network.num_nodes} nodes (Definition 1 "
                "asks for strong connectivity; figure constructions relax it)"
            ),
            evidence={"component_sizes": _cap([len(c) for c in comps])},
        )
    ]


# ----------------------------------------------------------------------
# RTE: routing table / function well-formedness
# ----------------------------------------------------------------------
@rule(
    "RTE001",
    "undefined route in the checked domain",
    severity="error",
    paper_ref="Definitions 2-3",
)
def _rte_undefined(ctx: "LintContext") -> list[Diagnostic]:
    bad = [
        {"pair": pair, "error": str(err)}
        for pair, err in ctx.route_errors().items()
        if err.kind == "undefined"
    ]
    if not bad:
        return []
    return [
        Diagnostic(
            code="RTE001",
            severity="error",
            message=f"{len(bad)} pair(s) in the domain have no defined route",
            evidence={"pairs": _cap(bad)},
        )
    ]


@rule(
    "RTE002",
    "broken route (divergent, inconsistent or channel-revisiting)",
    severity="error",
    paper_ref="Definitions 2-3 (oblivious routing must terminate)",
)
def _rte_broken(ctx: "LintContext") -> list[Diagnostic]:
    bad = [
        {"pair": pair, "kind": err.kind, "error": str(err)}
        for pair, err in ctx.route_errors().items()
        if err.kind != "undefined"
    ]
    if not bad:
        return []
    return [
        Diagnostic(
            code="RTE002",
            severity="error",
            message=f"{len(bad)} route(s) are structurally broken (would loop or diverge)",
            evidence={"pairs": _cap(bad)},
        )
    ]


@rule(
    "RTE003",
    "nonminimal routes (minimality slack)",
    severity="info",
    paper_ref="Theorem 3 hypothesis",
)
def _rte_nonminimal(ctx: "LintContext") -> list[Diagnostic]:
    scan = ctx.scan
    spl = ctx.network.shortest_path_lengths()
    slack = {
        pair: len(path) - spl[pair[0]][pair[1]]
        for pair, path in scan.paths.items()
        if path is not None
    }
    nonmin = {pair: s for pair, s in slack.items() if s > 0}
    if not nonmin:
        return []
    worst = sorted(nonmin.items(), key=lambda kv: -kv[1])
    return [
        Diagnostic(
            code="RTE003",
            severity="info",
            message=(
                f"{len(nonmin)} of {len(slack)} routes are nonminimal "
                f"(max slack {worst[0][1]} hops); Theorem 3's reachability "
                "guarantee requires minimal routing"
            ),
            evidence={
                "nonminimal_pairs": len(nonmin),
                "max_slack": worst[0][1],
                "worst": _cap([{"pair": p, "slack": s} for p, s in worst]),
            },
        )
    ]


# ----------------------------------------------------------------------
# PRP: structural properties (Definitions 7-9, Corollary 1 hypothesis)
# ----------------------------------------------------------------------
def _closure_diag(ctx: "LintContext", code: str, kind: str, definition: str) -> list[Diagnostic]:
    violations = ctx.scan.closure_violations(kind)
    if not violations:
        return []
    return [
        Diagnostic(
            code=code,
            severity="info",
            message=(
                f"not {kind}-closed ({definition}): {len(violations)} violating "
                "(source, destination, intermediate) triple(s)"
            ),
            evidence={
                "count": len(violations),
                "violations": _cap(
                    [
                        {"pair": pair, "via": w, "reason": reason}
                        for pair, w, reason in violations
                    ]
                ),
            },
        )
    ]


@rule(
    "PRP001",
    "prefix-closure violations",
    severity="info",
    paper_ref="Definition 7",
)
def _prp_prefix(ctx: "LintContext") -> list[Diagnostic]:
    return _closure_diag(ctx, "PRP001", "prefix", "Definition 7")


@rule(
    "PRP002",
    "suffix-closure violations",
    severity="info",
    paper_ref="Definition 8 / Corollary 2",
)
def _prp_suffix(ctx: "LintContext") -> list[Diagnostic]:
    return _closure_diag(ctx, "PRP002", "suffix", "Definition 8")


@rule(
    "PRP003",
    "routes revisiting a node",
    severity="info",
    paper_ref="Definition 9 (coherence)",
)
def _prp_revisit(ctx: "LintContext") -> list[Diagnostic]:
    bad = ctx.scan.node_revisit_violations()
    if not bad:
        return []
    return [
        Diagnostic(
            code="PRP003",
            severity="info",
            message=(
                f"{len(bad)} route(s) visit a node twice (or are undefined), "
                "breaking the coherence requirement"
            ),
            evidence={"pairs": _cap(bad)},
        )
    ]


@rule(
    "PRP004",
    "input-channel dependence (not of N x N -> C form)",
    severity="info",
    paper_ref="Corollary 1 hypothesis",
)
def _prp_ici(ctx: "LintContext") -> list[Diagnostic]:
    conflicts = ctx.scan.ici_conflicts()
    if not conflicts:
        return []
    return [
        Diagnostic(
            code="PRP004",
            severity="info",
            message=(
                f"routing depends on the input channel at {len(conflicts)} "
                "(node, destination) point(s): not expressible as R: N x N -> C"
            ),
            evidence={
                "conflicts": _cap(
                    [
                        {"node": n, "dest": d, "outputs": outs}
                        for (n, d), outs in conflicts.items()
                    ]
                )
            },
        )
    ]


# ----------------------------------------------------------------------
# CDG: dependency-graph structure
# ----------------------------------------------------------------------
@rule(
    "CDG001",
    "cyclic channel dependency graph",
    severity="info",
    paper_ref="Dally-Seitz; Section 2",
)
def _cdg_cyclic(ctx: "LintContext") -> list[Diagnostic]:
    if ctx.cdg_acyclic:
        return []
    if ctx.needs_cycles:
        cycles = ctx.cycles
        shortest = min(cycles.cycles, key=len) if cycles.cycles else None
        found = f"CDG has {len(cycles)}{'+' if cycles.truncated else ''} simple cycle(s)"
        evidence = {
            "num_cycles": len(cycles),
            "truncated": cycles.truncated,
            "shortest_cycle": list(shortest) if shortest is not None else None,
        }
    else:
        found = "CDG is cyclic (cycles not enumerated: the certificate decides the verdict)"
        evidence = {
            "num_cycles": None,
            "truncated": None,
            "shortest_cycle": shortest_cycle(ctx.cdg.adj),
        }
    return [
        Diagnostic(
            code="CDG001",
            severity="info",
            message=(
                f"{found}: Dally-Seitz does not apply; deadlock freedom, if any, "
                "must come from unreachability"
            ),
            evidence=evidence,
        )
    ]


@rule(
    "CDG002",
    "cycle enumeration truncated at the cap",
    severity="warning",
    paper_ref="analysis soundness (no silent truncation)",
)
def _cdg_truncated(ctx: "LintContext") -> list[Diagnostic]:
    if not ctx.needs_cycles or not ctx.cycles.truncated:
        return []
    return [
        Diagnostic(
            code="CDG002",
            severity="warning",
            message=(
                f"cycle enumeration stopped at max_cycles={ctx.max_cycles}: "
                "cycle counts and per-cycle conclusions cover only the "
                "enumerated prefix"
            ),
            evidence={"max_cycles": ctx.max_cycles, "enumerated": len(ctx.cycles)},
        )
    ]


# ----------------------------------------------------------------------
# CRT: certificates (mutually exclusive; engine stops at the first hit)
# ----------------------------------------------------------------------
def _certificate_diag(ctx: "LintContext", code: str) -> list[Diagnostic]:
    cert = ctx.certificate()
    if cert is None or cert.code != code:
        return []
    verdict = DEADLOCK_FREE if cert.verdict == DEADLOCK_FREE else REACHABLE_DEADLOCK
    evidence = dict(cert.evidence)
    if cert.messages:
        evidence["deadlock_messages"] = list(cert.messages)
    return [
        Diagnostic(
            code=code,
            severity="info",
            message=cert.rationale,
            evidence=evidence,
            certificate=verdict,
        )
    ]


@rule(
    "CRT001",
    "acyclic CDG: deadlock-free (Dally-Seitz numbering)",
    severity="info",
    paper_ref="Dally & Seitz 1987",
    certificate=True,
)
def _crt_acyclic(ctx: "LintContext") -> list[Diagnostic]:
    return _certificate_diag(ctx, "CRT001")


@rule(
    "CRT002",
    "N x N -> C routing with cyclic CDG: reachable deadlock",
    severity="info",
    paper_ref="Corollary 1",
    certificate=True,
)
def _crt_cor1(ctx: "LintContext") -> list[Diagnostic]:
    return _certificate_diag(ctx, "CRT002")


@rule(
    "CRT003",
    "suffix-closed routing with cyclic CDG: reachable deadlock",
    severity="info",
    paper_ref="Corollary 2",
    certificate=True,
)
def _crt_cor2(ctx: "LintContext") -> list[Diagnostic]:
    return _certificate_diag(ctx, "CRT003")


@rule(
    "CRT004",
    "coherent routing with cyclic CDG: reachable deadlock",
    severity="info",
    paper_ref="Corollary 3",
    certificate=True,
)
def _crt_cor3(ctx: "LintContext") -> list[Diagnostic]:
    return _certificate_diag(ctx, "CRT004")


@rule(
    "CRT005",
    "disjoint-approach cycle tiling: reachable deadlock",
    severity="info",
    paper_ref="Theorem 2 (constructive schedule)",
    certificate=True,
)
def _crt_disjoint(ctx: "LintContext") -> list[Diagnostic]:
    return _certificate_diag(ctx, "CRT005")


@rule(
    "CRT006",
    "minimal routing, single shared channel: reachable deadlock",
    severity="info",
    paper_ref="Theorem 3",
    certificate=True,
)
def _crt_thm3(ctx: "LintContext") -> list[Diagnostic]:
    return _certificate_diag(ctx, "CRT006")


@rule(
    "CRT007",
    "two messages, single shared channel: reachable deadlock",
    severity="info",
    paper_ref="Theorem 4",
    certificate=True,
)
def _crt_thm4(ctx: "LintContext") -> list[Diagnostic]:
    return _certificate_diag(ctx, "CRT007")


@rule(
    "CRT008",
    "connected acyclic escape subfunction: deadlock-free (Duato)",
    severity="info",
    paper_ref="Duato '91/'93; Section 7 (adaptive routing)",
    certificate=True,
)
def _crt_duato(ctx: "LintContext") -> list[Diagnostic]:
    return _certificate_diag(ctx, "CRT008")
