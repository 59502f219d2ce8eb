"""Structured lint diagnostics.

A :class:`Diagnostic` is one finding of one rule: a stable rule code, a
severity, a human-readable message, and machine-readable *evidence* -- the
violating ``(s, d, w)`` triple, the concrete CDG cycle, the shared channel,
the replayable deadlock configuration.  Evidence keeps real Python objects
(channels, node ids, :class:`~repro.analysis.state.CheckerMessage`) so
in-process consumers (the certificate fast-path, the evidence-replay tests)
can act on it directly; :func:`jsonable` lowers it to plain JSON for the
CLI and the campaign ledger.

A :class:`LintReport` is the outcome of one lint run: the diagnostics, the
rules that ran, and at most one *certificate* -- a static verdict strong
enough to replace the reachability search (``DEADLOCK_FREE`` from
Dally--Seitz acyclicity, ``REACHABLE_DEADLOCK`` from the Section 5
corollaries / theorem constructions).  Its JSON form, carried by the
campaign ``lint`` task, is what :func:`render_report` (every lint output)
and :func:`report_exit_code` read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

#: certificate verdicts
DEADLOCK_FREE = "DEADLOCK_FREE"
REACHABLE_DEADLOCK = "REACHABLE_DEADLOCK"

#: severity levels, in increasing order of badness
SEVERITIES = ("info", "warning", "error")
_SEV_RANK = {s: i for i, s in enumerate(SEVERITIES)}


def jsonable(value: Any) -> Any:
    """Lower an evidence value to plain JSON types.

    Channels become ``{"cid", "name"}`` dicts, tuples become lists, node
    ids and other rich objects fall back to ``str``; dict keys are always
    stringified (node-id tuples are not valid JSON keys).
    """
    from repro.topology.channels import Channel

    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Channel):
        return {"cid": value.cid, "name": value.short()}
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        seq = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [jsonable(v) for v in seq]
    if hasattr(value, "path") and hasattr(value, "length") and hasattr(value, "tag"):
        # CheckerMessage (kept duck-typed to avoid an import cycle)
        return {"path": list(value.path), "length": value.length, "tag": value.tag}
    return str(value)


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one lint rule."""

    code: str
    severity: str
    message: str
    evidence: Mapping[str, Any] = field(default_factory=dict)
    #: set on certificate-bearing diagnostics: DEADLOCK_FREE / REACHABLE_DEADLOCK
    certificate: str | None = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )
        if self.certificate not in (None, DEADLOCK_FREE, REACHABLE_DEADLOCK):
            raise ValueError(f"unknown certificate {self.certificate!r}")

    def to_json(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "evidence": {k: jsonable(v) for k, v in self.evidence.items()},
            "certificate": self.certificate,
        }


@dataclass
class LintReport:
    """All diagnostics from one lint run over one target."""

    target: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    rules_run: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------
    @property
    def certificate_diagnostic(self) -> Diagnostic | None:
        """The (single) certificate-bearing diagnostic, if any."""
        for d in self.diagnostics:
            if d.certificate is not None:
                return d
        return None

    @property
    def certificate(self) -> str | None:
        d = self.certificate_diagnostic
        return None if d is None else d.certificate

    @property
    def verdict(self) -> str:
        """``deadlock_free`` / ``reachable_deadlock`` / ``undecided``."""
        cert = self.certificate
        if cert == DEADLOCK_FREE:
            return "deadlock_free"
        if cert == REACHABLE_DEADLOCK:
            return "reachable_deadlock"
        return "undecided"

    @property
    def max_severity(self) -> str | None:
        if not self.diagnostics:
            return None
        return max((d.severity for d in self.diagnostics), key=_SEV_RANK.__getitem__)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        return {
            "target": self.target,
            "verdict": self.verdict,
            "certificate": self.certificate,
            "certificate_code": (
                None
                if self.certificate_diagnostic is None
                else self.certificate_diagnostic.code
            ),
            "max_severity": self.max_severity,
            "rules_run": list(self.rules_run),
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }


def render_report(report: Mapping[str, Any], *, verbose: bool = False) -> str:
    """The text form of one report's JSON (:meth:`LintReport.to_json`):
    a verdict line, then one line per diagnostic, each followed by its
    evidence when ``verbose``."""
    diagnostics = report["diagnostics"]
    lines = [f"lint {report['target']}: verdict={report['verdict']}"
             f" ({len(diagnostics)} finding"
             f"{'s' if len(diagnostics) != 1 else ''},"
             f" {len(report['rules_run'])} rules run)"]
    for d in diagnostics:
        cert = f"  [certificate: {d['certificate']}]" if d["certificate"] else ""
        lines.append(f"  {d['code']} {d['severity']}: {d['message']}{cert}")
        if verbose:
            lines.extend(f"      {k}: {v}" for k, v in d["evidence"].items())
    return "\n".join(lines)


def report_errors(report: Mapping[str, Any]) -> int:
    """How many of a report JSON's diagnostics have severity ``error``."""
    return sum(d["severity"] == "error" for d in report["diagnostics"])


def report_exit_code(report: Mapping[str, Any]) -> int:
    """0 when a report JSON is clean (no error-severity findings), 1 otherwise."""
    return 1 if report_errors(report) else 0
