"""The lint engine: run the rule registry over a target.

Two entry points:

* :func:`lint_algorithm` -- full static analysis of a routing algorithm
  (topology, routing table, Definition 7-9 properties, CDG structure,
  certificates).  This is what ``python -m repro lint`` and the campaign's
  ``lint`` task kind run.
* :func:`lint_messages` -- spec-level analysis of a fixed message set, as
  used by :func:`repro.analysis.reachability.search_deadlock`'s certificate
  pre-pass.

Shared expensive artefacts (the :class:`~repro.routing.properties.PropertyScan`,
the CDG, the capped cycle enumeration, the certificate) live on a
:class:`LintContext` and are computed lazily, at most once, no matter how
many rules consult them.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from repro.analysis.state import CheckerMessage, SystemSpec
from repro.cdg import cycles as cdg_cycles
from repro.cdg.analysis import CycleEnumeration, find_cycles, is_acyclic
from repro.cdg.build import build_cdg
from repro.lint.certificates import (
    Certificate,
    algorithm_certificate,
    spec_adjacency,
    spec_certificate,
)
from repro.lint.diagnostics import Diagnostic, LintReport
from repro.lint.rules import all_rules
from repro.routing.base import RoutingAlgorithm, RoutingError
from repro.routing.properties import PropertyScan
from repro.topology.channels import NodeId
from repro.topology.network import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

    from repro.routing.adaptive import AdaptiveRoutingFunction

Pair = tuple[NodeId, NodeId]

_UNSET: Any = object()


class LintContext:
    """Lazy shared state for one :func:`lint_algorithm` run."""

    def __init__(
        self,
        alg: RoutingAlgorithm,
        pairs: Sequence[Pair] | None = None,
        *,
        max_cycles: int = 10_000,
        max_probe_cycles: int = 32,
    ) -> None:
        self.alg = alg
        self.network: Network = alg.network
        self.pairs = list(pairs) if pairs is not None else None
        self.max_cycles = max_cycles
        self.max_probe_cycles = max_probe_cycles
        #: adaptive functions get the full candidate-relation CDG and the
        #: Duato certificate; scan-based rules see their deterministic
        #: projection (first candidate) via ``alg`` as usual
        self.is_adaptive: bool = bool(getattr(alg.fn, "is_adaptive", False))
        self._scan: PropertyScan | None = None
        self._cdg: nx.DiGraph | None = None
        self._cycles: CycleEnumeration | None = None
        self._route_errors: dict[Pair, RoutingError] | None = None
        self._certificate: Certificate | None = _UNSET

    # ------------------------------------------------------------------
    # lazy artefacts
    # ------------------------------------------------------------------
    @property
    def scan(self) -> PropertyScan:
        if self._scan is None:
            self._scan = PropertyScan(self.alg, self.pairs)
        return self._scan

    @property
    def cdg(self) -> nx.DiGraph:
        if self._cdg is None:
            if self.is_adaptive:
                from repro.cdg.adaptive import build_adaptive_cdg

                self._cdg = build_adaptive_cdg(self.alg.fn)
            else:
                self._cdg = build_cdg(self.alg, list(self.scan.domain))
        return self._cdg

    @property
    def cdg_acyclic(self) -> bool:
        return is_acyclic(self.cdg)

    @property
    def cycles(self) -> CycleEnumeration:
        if self._cycles is None:
            self._cycles = find_cycles(self.cdg, max_cycles=self.max_cycles)
        return self._cycles

    def route_errors(self) -> dict[Pair, RoutingError]:
        """Routing failures over the domain, keyed by (source, destination)."""
        if self._route_errors is None:
            errors: dict[Pair, RoutingError] = {}
            for pair in self.scan.domain:
                if self.scan.paths.get(pair) is not None:
                    continue
                try:
                    self.alg.path(*pair)
                except RoutingError as err:
                    errors[pair] = err
            self._route_errors = errors
        return self._route_errors

    def certificate(self) -> Certificate | None:
        """The (at most one) static certificate, computed once.

        A broken routing domain (undefined or structurally invalid routes)
        suppresses certification entirely: the corollary arguments assume
        the checked property holds over the whole intended domain.
        Adaptive functions are certified through
        :func:`repro.lint.certificates.adaptive_certificate` (Duato's
        CRT008 or full-CDG Dally--Seitz) -- the oblivious tiling and
        corollary arguments do not transfer to a router that can abandon
        the scanned path mid-flight.
        """
        if self._certificate is _UNSET:
            if self.is_adaptive:
                from repro.lint.certificates import adaptive_certificate

                self._certificate = adaptive_certificate(self.alg.fn)
            elif any(
                err.kind != "undefined" for err in self.route_errors().values()
            ):
                self._certificate = None
            else:
                self._certificate = algorithm_certificate(
                    self.scan,
                    self.cdg,
                    self.cycles,
                    max_probe_cycles=self.max_probe_cycles,
                )
        return self._certificate


def lint_algorithm(
    alg: RoutingAlgorithm,
    pairs: Sequence[Pair] | None = None,
    *,
    name: str | None = None,
    max_cycles: int = 10_000,
    max_probe_cycles: int = 32,
) -> LintReport:
    """Run every registered rule over a routing algorithm."""
    from repro.obs import get as _obs_get

    ctx = LintContext(
        alg, pairs, max_cycles=max_cycles, max_probe_cycles=max_probe_cycles
    )
    target = name if name is not None else f"{alg.fn.name()} on {alg.network.name}"
    tel = _obs_get()
    if tel is None:
        return _lint_algorithm_impl(ctx, target)
    with tel.span("lint.algorithm", target=target) as sp:
        report = _lint_algorithm_impl(ctx, target)
        cert_diag = report.certificate_diagnostic
        sp.set(
            verdict=report.verdict,
            diagnostics=len(report.diagnostics),
            rules_run=len(report.rules_run),
            certificate=None if cert_diag is None else cert_diag.code,
        )
        tel.incr("lint.runs")
        tel.incr("lint.diagnostics", len(report.diagnostics))
    return report


def _lint_algorithm_impl(ctx: LintContext, target: str) -> LintReport:
    report = LintReport(target=target)
    certified = False
    for rule in all_rules():
        if rule.certificate and certified:
            # certificates are mutually exclusive: at most one fires
            report.rules_run.append(rule.code)
            continue
        findings = rule.check(ctx)
        report.rules_run.append(rule.code)
        for diag in findings:
            report.diagnostics.append(diag)
            if diag.certificate is not None:
                certified = True
    return report


def lint_adaptive(
    fn: "AdaptiveRoutingFunction",
    pairs: Sequence[Pair] | None = None,
    *,
    name: str | None = None,
    max_cycles: int = 10_000,
) -> LintReport:
    """Lint an adaptive routing function.

    Wraps ``fn`` in a :class:`~repro.routing.base.RoutingAlgorithm` and
    runs the full rule catalogue: scan-based rules (RTE/PRP) see the
    function's deterministic projection (first candidate), while the CDG
    and certificate rules see the full candidate relation through the
    adaptive CDG and CRT008/CRT001
    (:func:`repro.lint.certificates.adaptive_certificate`).
    """
    return lint_algorithm(
        RoutingAlgorithm(fn), pairs, name=name, max_cycles=max_cycles
    )


def lint_messages(
    messages: Sequence[CheckerMessage],
    *,
    budget: int = 0,
    name: str = "message spec",
) -> LintReport:
    """Spec-level lint: a fixed message set with uniform stall budgets.

    Much narrower than :func:`lint_algorithm` -- only the dependency-graph
    summary and the two self-contained spec certificates apply (see
    :func:`repro.lint.certificates.spec_certificate` for why the
    theorem-based certificates are excluded at this level).
    """
    spec = SystemSpec.uniform(messages, budget=budget)
    report = LintReport(target=name)
    adj = spec_adjacency(spec)
    channels = len(adj)
    dependencies = sum(len(succ) for succ in adj.values())
    acyclic = cdg_cycles.is_acyclic(adj)
    report.rules_run.append("SPC001")
    report.diagnostics.append(
        Diagnostic(
            code="SPC001",
            severity="info",
            message=(
                f"{len(spec.messages)} message(s) over {channels} "
                f"channel(s), {dependencies} dependencies, "
                f"{'acyclic' if acyclic else 'cyclic'} dependency graph"
            ),
            evidence={
                "messages": len(spec.messages),
                "channels": channels,
                "dependencies": dependencies,
                "acyclic": acyclic,
            },
        )
    )
    cert = spec_certificate(spec)
    for code in ("CRT001", "CRT005"):
        report.rules_run.append(code)
    if cert is not None:
        evidence = dict(cert.evidence)
        if cert.messages:
            evidence["deadlock_messages"] = list(cert.messages)
        report.diagnostics.append(
            Diagnostic(
                code=cert.code,
                severity="info",
                message=cert.rationale,
                evidence=evidence,
                certificate=cert.verdict,
            )
        )
    return report
