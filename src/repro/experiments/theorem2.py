"""Experiment E4 -- Theorem 2 and Corollaries 1-3.

Theorem 2: a cycle whose shared channels lie *within* the cycle always
yields a reachable deadlock.  Verified over a family of overlapping-ring
configurations.

Corollaries 1-3: oblivious algorithms of the ``N x N -> C`` form,
suffix-closed algorithms, and coherent algorithms have no unreachable
cyclic configurations -- i.e. for those baselines every CDG cycle (if any)
is a reachable deadlock.  Verified on:

* the unrestricted clockwise ring (cyclic CDG, ``N x N -> C``, coherent):
  its single cycle must classify as *deadlock*;
* dimension-order mesh, e-cube hypercube, dateline torus (coherent or
  suffix-closed): acyclic CDGs, so the corollaries hold vacuously and the
  Dally--Seitz numbering certificate exists.

Both tables are campaign tasks run through the campaign runner:
``reachability theorem2-overlap`` for the overlap family (three of the four
are ``paper-battery`` tasks), and ``classify ring-cycle`` plus
``cdg baseline-cdg`` for the corollaries (all ``paper-battery`` tasks at
the default ring size).  Only the property scan runs in-process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.campaign.scenarios import build_scenario
from repro.campaign.tasks import CampaignTask
from repro.experiments.grid import run_grid

#: (row name, ``theorem2-overlap`` parameters); ``overlap8x4`` is
#: :func:`repro.core.within_cycle.theorem2_default`
OVERLAP_CONFIGS: list[tuple[str, dict[str, Any]]] = [
    ("overlap8x4", {"ring_n": 8, "entries": (0, 2, 4, 6), "run_lens": (4, 4, 4, 4)}),
    ("overlap6x3", {"ring_n": 6, "entries": (0, 2, 4), "run_lens": (3, 3, 3)}),
    ("overlap10x2-deep", {"ring_n": 10, "entries": (0, 5), "run_lens": (7, 7)}),
    (
        "overlap9x3-uneven",
        {
            "ring_n": 9,
            "entries": (0, 3, 7),
            "run_lens": (4, 5, 3),
            "approach_lens": (2, 1, 3),
        },
    ),
]

#: (row name, ``baseline-cdg`` parameters) of the acyclic baselines
BASELINES: list[tuple[str, dict[str, Any]]] = [
    ("DOR mesh 4x4", {"algorithm": "dor", "dims": (4, 4)}),
    ("ecube hcube3", {"algorithm": "ecube", "d": 3}),
    ("dateline torus 4x4", {"algorithm": "dateline", "dims": (4, 4)}),
]


@dataclass
class Theorem2Result:
    overlap_rows: list[dict[str, object]] = field(default_factory=list)

    @property
    def all_deadlock(self) -> bool:
        return all(r["deadlock"] for r in self.overlap_rows)


def run_theorem2_experiment() -> Theorem2Result:
    """Every within-cycle-sharing configuration must deadlock."""
    tasks = [
        CampaignTask.make("reachability", "theorem2-overlap", **cfg)
        for _, cfg in OVERLAP_CONFIGS
    ]
    results = run_grid(tasks, spec_name="theorem2")
    return Theorem2Result(
        overlap_rows=[
            {
                "config": name,
                "messages": len(cfg["entries"]),
                "ring": cfg["ring_n"],
                "deadlock": r.verdict == "deadlock",
                "states": r.detail["states_explored"],
            }
            for (name, cfg), r in zip(OVERLAP_CONFIGS, results)
        ]
    )


def run_corollary_baselines(*, ring_n: int = 5) -> list[dict[str, object]]:
    """Property + cycle-classification table for the classic baselines.

    The ring's one CDG cycle is classified; every other baseline reads
    ``no cycles`` only when its CDG is acyclic with a valid Dally--Seitz
    numbering.
    """
    ring = (f"cw-ring{ring_n}", {"algorithm": "clockwise", "n": ring_n})
    results = run_grid(
        [CampaignTask.make("classify", "ring-cycle", n=ring_n)]
        + [CampaignTask.make("cdg", "baseline-cdg", **p) for _, p in BASELINES],
        spec_name="theorem2",
    )
    rows: list[dict[str, object]] = []
    for (name, params), r in zip([ring, *BASELINES], results):
        props = build_scenario("baseline-cdg", {**params, "properties": True}).detail
        if r.kind == "classify":  # the ring-cycle scenario fails unless one cycle
            acyclic, cycles, verdict = False, 1, r.verdict
        else:
            acyclic = r.detail["acyclic"]
            cycles = 0 if acyclic else "?"
            verdict = "no cycles" if r.detail.get("numbering_valid") else "no numbering"
        rows.append(
            {
                "algorithm": name,
                "coherent": props["coherent"],
                "NxN->C": props["input_channel_independent"],
                "cdg acyclic": acyclic,
                "cycles": cycles,
                "classification": verdict,
            }
        )
    return rows


def corollaries_match_paper(rows: list[dict[str, object]]) -> bool:
    """The ring's cycle is a reachable deadlock and every other baseline
    has an acyclic CDG with a valid Dally--Seitz numbering."""
    ring_row, *baselines = rows
    return ring_row["classification"] == "deadlock" and all(
        r["classification"] == "no cycles" for r in baselines
    )
