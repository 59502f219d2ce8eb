"""One query, one task: the builder behind the query commands and endpoints.

A query names a scenario, its parameters and the analysis options of
one command: ``repro search``/``classify``/``lint`` and serve's
``/v1/search``/``/v1/classify``/``/v1/lint``.  :func:`query_task`
checks the parameters and options and builds the
:class:`~repro.campaign.tasks.CampaignTask` that answers the query.  The
CLI runs that task in-process with ``execute_task``; serve answers it
from its cache or its batcher.  So both sides answer one query through
one task, and a bad query raises :class:`ValueError` on both: the CLI
prints one ``<cmd>:`` line and exits 2, serve replies 400.

The module imports nothing at its top level: the CLI builds its option
flags from :data:`QUERY_OPTIONS` at start-up, whatever the command.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.tasks import CampaignTask

#: the analysis options of each query kind, with their defaults: the
#: flags of ``repro search``/``classify``/``lint`` and of their ``repro
#: client`` twins, and the top-level body keys of the serve endpoints.
#: They merge into the task params, and so into the content hash: the
#: same question is always the same cache key
QUERY_OPTIONS: dict[str, dict[str, int]] = {
    "reachability": {"budget": 0, "max_states": 4_000_000},
    "classify": {
        "budget": 0,
        "max_states": 2_000_000,
        "length_slack": 0,
        "extra_copies": 1,
    },
    "lint": {"max_cycles": 10_000},
}

#: task params that set how a task analyses, not what its scenario
#: builds (no scenario builder reads one); a query's scenario params may
#: not name one, or a client could set options the query does not offer
ANALYSIS_OPTIONS = frozenset(
    {"budget", "max_states", "length_slack", "extra_copies", "copy_depth",
     "max_cycles", "max_delay", "witness"}
)


def query_options(kind: str, given: Mapping[str, Any]) -> dict[str, int]:
    """The options of a ``kind`` query: each value in ``given``, else its
    default; raises :class:`ValueError` on a non-integer or out-of-range
    value."""
    from repro.analysis.state import check_options

    options: dict[str, int] = {}
    for name, default in QUERY_OPTIONS[kind].items():
        value = given.get(name, default)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        options[name] = value
    check_options(**options)
    return options


def query_task(
    kind: str,
    scenario: str,
    params: Any,
    given: Mapping[str, Any],
    *,
    witness: bool = False,
) -> CampaignTask:
    """The task answering one query: ``scenario`` built from ``params``,
    analysed with the ``kind`` options read from ``given``.

    ``witness`` (``repro search --witness``) asks the ``reachability``
    task to reconstruct a deadlock schedule; no endpoint offers it.
    Raises :class:`ValueError` for a bad query.
    """
    from repro.campaign.tasks import CampaignTask

    if not isinstance(params, dict):
        raise ValueError("params must be a JSON object")
    options = query_options(kind, given)
    smuggled = sorted(ANALYSIS_OPTIONS.intersection(params))
    if smuggled:
        raise ValueError(
            f"params may not set the analysis option {smuggled[0]!r}; it is "
            "not a scenario parameter"
        )
    merged = {**params, **options}
    if witness:
        merged["witness"] = True
    try:
        return CampaignTask(kind=kind, scenario=scenario, params=tuple(merged.items()))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid task: {exc}") from None
