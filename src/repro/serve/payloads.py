"""Verdict payloads of the query commands, built from their task results.

A ``/v1/search``, ``/v1/classify`` or ``/v1/lint`` response body and the
output of ``python -m repro search ... --json`` (``classify ... --json``,
``lint ... --json``) are *byte-identical*: same keys, same order, same
serialisation.  That holds by construction: both sides answer the query
through the same campaign task (:func:`repro.campaign.query.query_task`)
and render its :class:`~repro.campaign.tasks.TaskResult` the same way:
``search`` and ``classify`` through the one builder of their command
here, ``lint`` as the lint report its result carries
(``detail["report"]``).

Every builder takes a task result and returns a plain ordered dict;
:func:`dumps` is the one serialisation (``json.dumps(..., indent=2)``)
the CLI printer and the HTTP response writer both use.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # annotations only: the CLI's --json paths stay light
    from repro.campaign.tasks import TaskResult


def dumps(payload: Any) -> str:
    """The shared wire/stdout serialisation (no trailing newline)."""
    return json.dumps(payload, indent=2)


def search_payload_from_result(
    result: TaskResult, *, params: dict[str, Any]
) -> dict[str, Any]:
    """The ``search --json`` payload of a ``reachability`` result (field
    order is part of the contract).

    ``witness_cycles`` is ``null`` unless the task searched with
    ``witness`` (``search --witness``; serve never sets it).
    """
    detail = result.detail
    return {
        "scenario": result.scenario,
        "params": params,
        "budget": result.params["budget"],
        "verdict": result.verdict,
        "deadlock_reachable": result.verdict == "deadlock",
        "states_explored": detail.get("states_explored"),
        "certificate": detail.get("certificate"),
        "witness_cycles": detail.get("witness_cycles"),
    }


def classify_payload_from_result(
    result: TaskResult, *, params: dict[str, Any]
) -> dict[str, Any]:
    """The ``classify --json`` payload of a ``classify`` result (field
    order is part of the contract).

    A classified CDG cycle (cycle mode: the results carrying
    ``tilings_tested``) carries the tiling and scenario counts and the
    classifier's notes, and its task verdict ``unreachable`` reads
    ``false-resource-cycle`` here; a classified message set
    (configuration mode) carries ``states_explored`` and says
    ``unreachable``.
    """
    detail = result.detail
    reachable = result.verdict == "deadlock"
    if "tilings_tested" in detail:
        return {
            "scenario": result.scenario,
            "params": params,
            "mode": "cycle",
            "verdict": "deadlock" if reachable else "false-resource-cycle",
            "deadlock_reachable": reachable,
            "tilings_tested": detail["tilings_tested"],
            "scenarios_tested": detail.get("scenarios_tested"),
            "certificate": detail.get("certificate"),
            "notes": detail.get("notes"),
        }
    return {
        "scenario": result.scenario,
        "params": params,
        "mode": "configuration",
        "verdict": result.verdict,
        "deadlock_reachable": reachable,
        "states_explored": detail.get("states_explored"),
        "certificate": detail.get("certificate"),
    }
