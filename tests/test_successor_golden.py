"""Golden emissions of the checker's adversary (the successor relations).

The search engines all read their moves from two successor relations:
:meth:`repro.analysis.state.SystemSpec.successors` (oblivious routing) and
:meth:`repro.analysis.adaptive_state.AdaptiveSystem.successors` (adaptive
routing).  The kernel differential suite compares two engines that both
read ``SystemSpec.successors``, so a reordering of its emissions would
pass there silently; this file pins the relations themselves against
``tests/fixtures/successor_golden.json``.

* **Oblivious specs** -- a breadth-first search that expands states in
  the reference engine's order, stopping where it stops.  The fixture
  holds a sha256 over every expanded state's ordered ``(state, actions)``
  emission, and the reference engine's verdict, ``states_explored`` and
  witness rows (actions and states of every cycle, deadlocked members).
* **Adaptive specs** -- the four ``adaptive-mesh`` specs of the paper
  battery, searched with the certificates off.  The fixture holds a
  sha256 over the distinct states in first-discovery order, their count,
  and the adaptive search's verdict, ``states_explored`` and deadlocked
  tags.

The fixture records the adversary's semantics; it is not rewritten to
make a change pass.  Only a deliberate change of those semantics may
regenerate it::

    PYTHONPATH=src python tests/test_successor_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import deque
from pathlib import Path
from typing import Any

import pytest

from repro.analysis import SystemSpec, search_deadlock
from repro.analysis.adaptive_state import AdaptiveSystem, search_adaptive_deadlock
from repro.campaign.scenarios import build_scenario

FIXTURE = Path(__file__).parent / "fixtures" / "successor_golden.json"

#: name -> (scenario, params, uniform stall budget)
OBLIVIOUS: dict[str, tuple[str, dict[str, Any], int]] = {
    "fig1 budget=0": ("fig1", {}, 0),
    "fig1 budget=1": ("fig1", {}, 1),
    "fig2-pair d1=3 d2=1 hold=3": ("fig2-pair", {"d1": 3, "d2": 1, "hold": 3}, 0),
    "gen m=1 budget=1": ("gen", {"m": 1}, 1),
}

#: name -> adaptive-mesh params (the paper battery's adaptive tasks)
ADAPTIVE: dict[str, dict[str, Any]] = {
    "escape 2x2 msgs=2": {"routing": "escape", "dims": (2, 2), "msgs": 2},
    "escape 3x3 msgs=2": {"routing": "escape", "dims": (3, 3), "msgs": 2},
    "full 2x2 msgs=4": {"routing": "full", "dims": (2, 2), "msgs": 4},
    "full 2x2 msgs=2": {"routing": "full", "dims": (2, 2), "msgs": 2},
}


def _bfs(system, on_expand) -> tuple[bool, int]:
    """Breadth-first search over ``system.successors`` in the reference
    order, stopping at the first deadlocked state discovered; calls
    ``on_expand(state, emission)`` for each expanded state and returns
    ``(deadlock_reachable, distinct states seen)``."""
    init = system.initial_state()
    visited = {init}
    queue = deque([init])
    while queue:
        state = queue.popleft()
        emission = system.successors(state)
        on_expand(state, emission)
        for nxt, _acts in emission:
            if nxt in visited:
                continue
            visited.add(nxt)
            if system.deadlocked_set(nxt):
                return True, len(visited)
            queue.append(nxt)
    return False, len(visited)


def oblivious_fingerprint(scenario: str, params: dict[str, Any], budget: int) -> dict[str, Any]:
    spec = SystemSpec.uniform(build_scenario(scenario, params).messages, budget=budget)
    digest = hashlib.sha256()
    expanded = 0

    def on_expand(state, emission) -> None:
        nonlocal expanded
        expanded += 1
        digest.update(repr((state, emission)).encode())

    reachable, seen = _bfs(spec, on_expand)
    res = search_deadlock(spec, engine="reference", find_witness=True, certificates="off")
    out: dict[str, Any] = {
        "emission_sha256": digest.hexdigest(),
        "expanded": expanded,
        "seen": seen,
        "reachable": res.deadlock_reachable,
        "states_explored": res.states_explored,
        "witness": None,
    }
    if res.witness is not None:
        out["witness"] = {
            "steps": [list(row) for row in res.witness.steps],
            "states": [[list(ms) for ms in st] for st in res.witness.states],
            "deadlocked": list(res.witness.deadlocked),
        }
    return out


def adaptive_fingerprint(params: dict[str, Any]) -> dict[str, Any]:
    fn, messages = build_scenario("adaptive-mesh", params).adaptive
    system = AdaptiveSystem(fn, messages)
    order = [system.initial_state()]
    known = set(order)

    def on_expand(_state, emission) -> None:
        for nxt, _acts in emission:
            if nxt not in known:
                known.add(nxt)
                order.append(nxt)

    _reachable, seen = _bfs(system, on_expand)
    # the BFS stops inside an emission at the deadlocked state
    order = order[:seen]
    res = search_adaptive_deadlock(fn, messages, certificates="off")
    return {
        "discovery_sha256": hashlib.sha256(
            "\n".join(repr(s) for s in order).encode()
        ).hexdigest(),
        "discovered": len(order),
        "reachable": res.deadlock_reachable,
        "states_explored": res.states_explored,
        "deadlocked_tags": list(res.deadlocked_tags),
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, Any]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden["oblivious"]) == sorted(OBLIVIOUS)
    assert sorted(golden["adaptive"]) == sorted(ADAPTIVE)


@pytest.mark.parametrize("name", sorted(OBLIVIOUS))
def test_oblivious_emission_matches_golden(name, golden):
    assert oblivious_fingerprint(*OBLIVIOUS[name]) == golden["oblivious"][name]


@pytest.mark.parametrize("name", sorted(ADAPTIVE))
def test_adaptive_discovery_matches_golden(name, golden):
    assert adaptive_fingerprint(ADAPTIVE[name]) == golden["adaptive"][name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_successor_golden.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {
        "oblivious": {name: oblivious_fingerprint(*case) for name, case in OBLIVIOUS.items()},
        "adaptive": {name: adaptive_fingerprint(p) for name, p in ADAPTIVE.items()},
    }
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(OBLIVIOUS) + len(ADAPTIVE)} cases to {FIXTURE}")
