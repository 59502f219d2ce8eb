"""SARIF 2.1.0 export for lint reports (``repro lint --sarif``).

Lowers lint reports, in their JSON form
(:meth:`~repro.lint.diagnostics.LintReport.to_json`), to a single
`SARIF <https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html>`_
log so CI systems and editors can annotate lint targets.  One run per
log; one result per diagnostic; rule metadata (title, severity, paper
reference, help URI into ``docs/LINT.md``) comes from the rule registry,
with unregistered codes (the spec-level ``SPC001`` summary) synthesized
in place.

Severity mapping: ``info`` -> ``note``, ``warning`` -> ``warning``,
``error`` -> ``error`` -- so a SARIF viewer's error count matches the
lint CLI's exit-code criterion.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.lint.rules import get_rule

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
    "master/Schemata/sarif-schema-2.1.0.json"
)

#: lint severity -> SARIF result level
LEVELS = {"info": "note", "warning": "warning", "error": "error"}

#: default base for per-rule help URIs (anchors are lower-cased codes)
HELP_BASE = "docs/LINT.md"

#: codes emitted outside the rule registry (spec-level lint)
_EXTRA_RULES: dict[str, tuple[str, str, str]] = {
    # code -> (title, severity, paper_ref)
    "SPC001": (
        "message-spec dependency summary",
        "info",
        "Definition 6 (spec-level lint)",
    ),
}


def _rule_entry(code: str, help_base: str) -> dict[str, Any]:
    """SARIF ``reportingDescriptor`` for one rule code."""
    try:
        rule = get_rule(code)
        title, severity, paper_ref = rule.title, rule.severity, rule.paper_ref
        certificate = rule.certificate
    except KeyError:
        title, severity, paper_ref = _EXTRA_RULES.get(
            code, (f"diagnostic {code}", "info", "")
        )
        certificate = False
    return {
        "id": code,
        "shortDescription": {"text": title},
        "helpUri": f"{help_base}#{code.lower()}",
        "defaultConfiguration": {"level": LEVELS.get(severity, "note")},
        "properties": {
            "severity": severity,
            "paperRef": paper_ref,
            "certificate": certificate,
        },
    }


def sarif_log(
    reports: Sequence[Mapping[str, Any]], *, help_base: str = HELP_BASE
) -> dict[str, Any]:
    """One SARIF 2.1.0 log covering every report's diagnostics."""
    codes = sorted({d["code"] for report in reports for d in report["diagnostics"]})
    results: list[dict[str, Any]] = []
    for report in reports:
        for diag in report["diagnostics"]:
            result: dict[str, Any] = {
                "ruleId": diag["code"],
                "level": LEVELS[diag["severity"]],
                "message": {"text": diag["message"]},
                "locations": [
                    {
                        "logicalLocations": [
                            {"name": report["target"], "kind": "module"}
                        ]
                    }
                ],
                "properties": {
                    "target": report["target"],
                    "verdict": report["verdict"],
                    "certificate": diag["certificate"],
                    "evidence": diag["evidence"],
                },
            }
            results.append(result)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": help_base,
                        "rules": [_rule_entry(c, help_base) for c in codes],
                    }
                },
                "results": results,
            }
        ],
    }
