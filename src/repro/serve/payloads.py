"""Canonical verdict payloads shared by the CLI and the serve API.

The acceptance contract for verification-as-a-service is that a cold
``/v1/search`` (or ``/v1/classify``) response and ``python -m repro
search ... --json`` (or ``classify ... --json``) are *byte-identical*:
same keys, same order, same serialisation.  The only
way to keep that true under refactors is for both callers to build the
payload through one function -- these.

All builders return plain ordered dicts; :func:`dumps` is the one
serialisation (``json.dumps(..., indent=2)``) both the CLI printer and
the HTTP response writer use.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # annotations only: the CLI's --json paths stay light
    from repro.campaign.tasks import TaskResult


def dumps(payload: Any) -> str:
    """The shared wire/stdout serialisation (no trailing newline)."""
    return json.dumps(payload, indent=2)


def search_payload(
    *,
    scenario: str,
    params: dict[str, Any],
    budget: int,
    verdict: str,
    deadlock_reachable: bool,
    states_explored: int | None,
    certificate: str | None,
    witness_cycles: int | None,
) -> dict[str, Any]:
    """The ``search --json`` payload (field order is part of the contract)."""
    return {
        "scenario": scenario,
        "params": params,
        "budget": budget,
        "verdict": verdict,
        "deadlock_reachable": deadlock_reachable,
        "states_explored": states_explored,
        "certificate": certificate,
        "witness_cycles": witness_cycles,
    }


def search_payload_from_result(
    result: TaskResult, *, params: dict[str, Any], budget: int
) -> dict[str, Any]:
    """Rebuild the CLI search payload from a campaign ``reachability`` result.

    The campaign runner never reconstructs witnesses (``find_witness``
    stays off so cached verdicts are engine-independent), matching the
    CLI's default ``--witness`` off: ``witness_cycles`` is ``null`` on
    both sides.
    """
    return search_payload(
        scenario=result.scenario,
        params=params,
        budget=budget,
        verdict=result.verdict,
        deadlock_reachable=result.verdict == "deadlock",
        states_explored=result.detail.get("states_explored"),
        certificate=result.detail.get("certificate"),
        witness_cycles=None,
    )


def classify_payload(
    *,
    scenario: str,
    params: dict[str, Any],
    mode: str,
    deadlock_reachable: bool,
    certificate: str | None,
    states_explored: int | None = None,
    tilings_tested: int | None = None,
    scenarios_tested: int | None = None,
    notes: list[str] | None = None,
) -> dict[str, Any]:
    """The ``classify --json`` payload (field order is part of the contract).

    ``mode="cycle"`` (a CDG cycle classified) carries the tiling and
    scenario counts and the classifier's notes, and calls an unreachable
    cycle a ``false-resource-cycle``; ``mode="configuration"`` (a message
    set) carries ``states_explored`` and says ``unreachable``.
    """
    if mode == "cycle":
        return {
            "scenario": scenario,
            "params": params,
            "mode": "cycle",
            "verdict": "deadlock" if deadlock_reachable else "false-resource-cycle",
            "deadlock_reachable": deadlock_reachable,
            "tilings_tested": tilings_tested,
            "scenarios_tested": scenarios_tested,
            "certificate": certificate,
            "notes": notes,
        }
    return {
        "scenario": scenario,
        "params": params,
        "mode": "configuration",
        "verdict": "deadlock" if deadlock_reachable else "unreachable",
        "deadlock_reachable": deadlock_reachable,
        "states_explored": states_explored,
        "certificate": certificate,
    }


def classify_payload_from_result(
    result: TaskResult, *, params: dict[str, Any]
) -> dict[str, Any]:
    """Rebuild the CLI classify payload from a campaign ``classify`` result.

    Cycle-mode results are the ones carrying ``tilings_tested``; their
    task verdict ``unreachable`` reads ``false-resource-cycle`` here, as
    in the CLI.
    """
    detail = result.detail
    return classify_payload(
        scenario=result.scenario,
        params=params,
        mode="cycle" if "tilings_tested" in detail else "configuration",
        deadlock_reachable=result.verdict == "deadlock",
        certificate=detail.get("certificate"),
        states_explored=detail.get("states_explored"),
        tilings_tested=detail.get("tilings_tested"),
        scenarios_tested=detail.get("scenarios_tested"),
        notes=detail.get("notes"),
    )


def lint_payload_from_result(
    result: TaskResult, *, params: dict[str, Any]
) -> dict[str, Any]:
    """The ``/v1/lint`` payload from a campaign ``lint`` result."""
    detail = result.detail
    return {
        "scenario": result.scenario,
        "params": params,
        "verdict": result.verdict,
        "certificate": detail.get("certificate"),
        "max_severity": detail.get("max_severity"),
        "diagnostics": detail.get("diagnostics"),
        "errors": detail.get("errors"),
        "rules_run": detail.get("rules_run"),
    }
