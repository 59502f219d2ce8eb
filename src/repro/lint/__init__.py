"""Static deadlock linter for oblivious and adaptive wormhole routing.

A rule engine over routing algorithms and message specs that turns the
paper's static arguments into machine-checkable *certificates*:

* acyclic CDG  =>  ``DEADLOCK_FREE``  (Dally--Seitz),
* structural properties (Corollaries 1-3) or constructive tilings
  (Theorems 2-4)  =>  ``REACHABLE_DEADLOCK``,
* connected acyclic escape subfunction  =>  ``DEADLOCK_FREE`` for
  adaptive routing (Duato, CRT008).

Reachable verdicts from the Theorem-2 tiling (CRT005) are *constructive*:
:func:`certificate_witness` replays the certificate's stall-free
injection schedule through the state model and emits a validated
:class:`~repro.analysis.reachability.Witness` without any search.

The analysis layer consults these certificates as a pre-pass before
running the reachability search (gated by ``REPRO_STATIC_CERTIFICATES``);
``python -m repro lint`` exposes the full rule catalogue on the command
line, with ``--sarif`` producing a SARIF 2.1.0 log for CI.  See
``docs/LINT.md`` for the catalogue with paper citations.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

#: public name -> the submodule defining it, imported on first access
_EXPORTS = {
    "ENV_VAR": "certificates",
    "DEADLOCK_FREE": "diagnostics",
    "REACHABLE_DEADLOCK": "diagnostics",
    "Certificate": "certificates",
    "CertificateMismatch": "certificates",
    "Diagnostic": "diagnostics",
    "LintContext": "engine",
    "LintReport": "diagnostics",
    "Rule": "rules",
    "Run": "tiling",
    "Tiling": "tiling",
    "adaptive_certificate": "certificates",
    "algorithm_certificate": "certificates",
    "all_rules": "rules",
    "build_crt005_witness": "witness",
    "certificate_witness": "witness",
    "certificates_mode": "certificates",
    "cycle_certificate": "certificates",
    "cycle_runs": "tiling",
    "enumerate_tilings": "tiling",
    "get_rule": "rules",
    "jsonable": "diagnostics",
    "lint_adaptive": "engine",
    "lint_algorithm": "engine",
    "lint_messages": "engine",
    "replay_certificate_witness": "witness",
    "sarif_log": "sarif",
    "spec_certificate": "certificates",
    "spec_dependency_graph": "certificates",
    "suffix_tiling_messages": "certificates",
    "validate_witness": "witness",
}

if TYPE_CHECKING:  # pragma: no cover - the static view of _EXPORTS
    from repro.lint.certificates import (
        ENV_VAR,
        Certificate,
        CertificateMismatch,
        adaptive_certificate,
        algorithm_certificate,
        certificates_mode,
        cycle_certificate,
        spec_certificate,
        spec_dependency_graph,
        suffix_tiling_messages,
    )
    from repro.lint.diagnostics import (
        DEADLOCK_FREE,
        REACHABLE_DEADLOCK,
        Diagnostic,
        LintReport,
        jsonable,
    )
    from repro.lint.engine import LintContext, lint_adaptive, lint_algorithm, lint_messages
    from repro.lint.rules import Rule, all_rules, get_rule
    from repro.lint.sarif import sarif_log
    from repro.lint.tiling import Run, Tiling, cycle_runs, enumerate_tilings
    from repro.lint.witness import (
        build_crt005_witness,
        certificate_witness,
        replay_certificate_witness,
        validate_witness,
    )

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
