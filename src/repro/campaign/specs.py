"""Built-in campaign specs: named generators of task batches.

``paper-battery`` is the whole reproduction: Figure 1 / Theorem 1 (with
the proof's length and copy augmentations), the Figure 2 / Theorem 4 grid,
the six Figure 3 / Theorem 5 panels plus the random condition sweep, the
Theorem 2 overlap family, the Theorem 3 minimality sweep, the Section 6
``Gen(m)`` delay grid, the Section 5 corollary baselines -- CDG
structure, ring-cycle classification, and validation traffic -- across
mesh/ring/hypercube/torus sizes, a static-linter cross-section whose
expectations pin which scenarios the certificates decide (and, just as
deliberately, which they must leave undecided), the Section 7 adaptive
checker cases (Duato escape vs fully adaptive), and the witness-replay
cross-checks.  Each task carries the paper's stated
verdict as ``expect`` where the paper states one, so a campaign run is
itself a reproduction check: the summary counts expectation mismatches.

``quick`` is a cheap cross-section (one task per subsystem) for smoke
tests and CI.

Specs are functions so new ones can be registered by callers (tests do);
``build_spec(name, limit=...)`` is the single entry point.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable

from repro.campaign.tasks import CampaignTask

_SPECS: dict[str, Callable[[], list[CampaignTask]]] = {}


def register_spec(name: str):
    def deco(fn: Callable[[], list[CampaignTask]]):
        _SPECS[name] = fn
        return fn

    return deco


def spec_names() -> tuple[str, ...]:
    return tuple(sorted(_SPECS))


def build_spec(name: str, *, limit: int | None = None) -> list[CampaignTask]:
    try:
        fn = _SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign spec {name!r}; available: {', '.join(spec_names())}"
        ) from None
    tasks = fn()
    if limit is not None:
        tasks = tasks[:limit]
    return tasks


# ----------------------------------------------------------------------
# shared builders (also the E2/E3/E5/E6 experiment grids)
# ----------------------------------------------------------------------
def fig2_grid_tasks(
    approach_range=(1, 2, 3, 4), hold_range=(2, 3, 4)
) -> list[CampaignTask]:
    """The Theorem 4 universality grid: every pair configuration deadlocks."""
    return [
        CampaignTask.make(
            "reachability", "fig2-pair", d1=d1, d2=d2, hold=h, expect="deadlock"
        )
        for d1, d2 in itertools.product(approach_range, repeat=2)
        for h in hold_range
    ]


def fig3_panel_tasks() -> list[CampaignTask]:
    from repro.core.three_message import FIG3_PANELS

    return [
        CampaignTask.make(
            "classify",
            "fig3-panel",
            panel=panel,
            max_states=4_000_000,
            expect="unreachable" if params.expected_unreachable else "deadlock",
        )
        for panel, params in FIG3_PANELS.items()
    ]


def fig3_sweep_tasks(samples: int = 20, *, seed: int = 7) -> list[CampaignTask]:
    """Random Theorem 5 configurations (the E3 condition sweep's draw).

    No ``expect``: the point is measuring conditions-vs-search agreement,
    which ``run_condition_sweep`` computes from each task's
    ``conditions_unreachable`` detail against its search verdict.
    """
    rng = random.Random(seed)
    tasks: list[CampaignTask] = []
    seen: set[tuple] = set()
    while len(tasks) < samples:
        ds = rng.sample(range(1, 6), 3)
        hs = [rng.randint(1, 6) for _ in range(3)]
        key = (tuple(ds), tuple(hs))
        if key in seen:
            continue
        seen.add(key)
        tasks.append(
            CampaignTask.make(
                "classify",
                "shared-cycle",
                approaches=tuple(ds),
                holds=tuple(hs),
                conditions=True,
                max_states=2_000_000,
            )
        )
    return tasks


def theorem2_tasks() -> list[CampaignTask]:
    """Four overlapping-ring configurations (Theorem 2), each must deadlock.

    Three are tasks ``run_theorem2_experiment`` runs itself
    (``overlap6x3``, ``overlap10x2-deep`` and ``overlap9x3-uneven``, the
    same hashes).  The first is not: it is an 8-ring with *two* messages
    (entries 0 and 4, runs of 5), where the experiment's ``overlap8x4``
    has four, so E4 runs that one task beside the battery's and no
    4-message family is in the battery.  Aligning them changes the
    battery's task hashes (see ROADMAP.md).
    """
    configs = [
        {"ring_n": 8, "entries": (0, 4), "run_lens": (5, 5)},
        {"ring_n": 6, "entries": (0, 2, 4), "run_lens": (3, 3, 3)},
        {"ring_n": 10, "entries": (0, 5), "run_lens": (7, 7)},
        {
            "ring_n": 9,
            "entries": (0, 3, 7),
            "run_lens": (4, 5, 3),
            "approach_lens": (2, 1, 3),
        },
    ]
    return [
        CampaignTask.make("reachability", "theorem2-overlap", expect="deadlock", **cfg)
        for cfg in configs
    ]


def theorem3_tasks(
    *,
    num_messages: int = 3,
    approach_range=(1, 2, 3),
    hold_range=(1, 2, 3),
    limit: int | None = 40,
) -> list[CampaignTask]:
    """Theorem 3 sweep members; degenerate geometries are filtered here.

    No per-task ``expect`` -- the theorem constrains the *conjunction*
    (minimal AND unreachable must never occur), checked by
    ``run_theorem3_experiment`` from each result's ``minimal`` detail and
    verdict.
    """
    from repro.core.specs import CycleMessageSpec, build_shared_cycle

    tasks: list[CampaignTask] = []
    combos = itertools.product(
        itertools.product(approach_range, hold_range), repeat=num_messages
    )
    for count, params in enumerate(combos):
        if limit is not None and count >= limit:
            break
        specs = [
            CycleMessageSpec(approach_len=a, hold_len=h, label=f"M{i + 1}")
            for i, (a, h) in enumerate(params)
        ]
        try:
            build_shared_cycle(specs, name=f"spec-probe{count}")
        except ValueError:
            continue  # invalid oblivious geometry, same skip as the sweep
        tasks.append(
            CampaignTask.make(
                "reachability",
                "minimal-config",
                approaches=tuple(a for a, _ in params),
                holds=tuple(h for _, h in params),
                max_states=1_000_000,
            )
        )
    return tasks


def gen_tasks(params=(1, 2, 3), *, max_states: int = 40_000_000) -> list[CampaignTask]:
    """The Section 6 grid: measured Δ*(m) = m."""
    return [
        CampaignTask.make(
            "min_delay",
            "gen",
            m=m,
            max_delay=m + 3,
            max_states=max_states,
            expect=f"delta={m}",
        )
        for m in params
    ]


def baseline_tasks() -> list[CampaignTask]:
    """Section 5 corollary baselines across mesh/ring/hypercube/torus sizes."""
    tasks: list[CampaignTask] = [
        # unrestricted rings: cyclic CDG whose one cycle must be a real deadlock
        CampaignTask.make("classify", "ring-cycle", n=n, expect="deadlock")
        for n in (4, 5, 6)
    ]
    cdg_cases = [
        {"algorithm": "dor", "dims": (3, 3)},
        {"algorithm": "dor", "dims": (4, 4)},
        {"algorithm": "west-first", "dims": (4, 4)},
        {"algorithm": "ecube", "d": 3},
        {"algorithm": "ecube", "d": 4},
        {"algorithm": "dateline", "dims": (4, 4)},
    ]
    tasks += [
        CampaignTask.make("cdg", "baseline-cdg", expect="acyclic", **case)
        for case in cdg_cases
    ]
    return tasks


def lint_tasks() -> list[CampaignTask]:
    """Static-linter cross-section: one task per interesting verdict class.

    ``expect`` is the *static* verdict: certificate-decided scenarios must
    stay decided (``deadlock_free`` / ``reachable_deadlock``), and the
    paper's star cases -- Figure 1 and the Theorem 5 panels, whose whole
    point is that statics are not enough -- must stay ``undecided``.
    """
    return [
        # Dally-Seitz certificates (Corollary baselines)
        CampaignTask.make(
            "lint", "baseline-cdg", algorithm="dor", dims=(3, 3),
            expect="deadlock_free",
        ),
        CampaignTask.make(
            "lint", "baseline-cdg", algorithm="dateline", dims=(4, 4),
            expect="deadlock_free",
        ),
        CampaignTask.make(
            "lint", "baseline-cdg", algorithm="ecube", d=3, expect="deadlock_free"
        ),
        # reachable-deadlock certificates (Theorems 2 and 4)
        CampaignTask.make("lint", "ring-cycle", n=4, expect="reachable_deadlock"),
        CampaignTask.make(
            "lint", "fig2-pair", d1=3, d2=1, hold=3, expect="reachable_deadlock"
        ),
        CampaignTask.make(
            "lint",
            "theorem2-overlap",
            ring_n=6,
            entries=(0, 2, 4),
            run_lens=(3, 3, 3),
            expect="reachable_deadlock",
        ),
        # adaptive routing: Duato's escape condition decides the escape
        # mesh (CRT008); the fully-adaptive mesh must stay undecided
        CampaignTask.make(
            "lint", "adaptive-mesh", routing="escape", dims=(3, 3),
            expect="deadlock_free",
        ),
        CampaignTask.make(
            "lint", "adaptive-mesh", routing="full", dims=(3, 3),
            expect="undecided",
        ),
        # statics must NOT decide these (unreachable cycles / delay-gated)
        CampaignTask.make("lint", "fig1", expect="undecided"),
        CampaignTask.make("lint", "fig3-panel", panel="a", expect="undecided"),
        CampaignTask.make("lint", "gen", m=2, expect="undecided"),
    ]


def adaptive_tasks() -> list[CampaignTask]:
    """Section 7 adaptive checker cross-section (Duato's setting).

    The escape meshes are certificate-decided (CRT008) under ``on`` mode
    and exhaustively confirmed under ``check``; the fully-adaptive mesh is
    the negative control -- four corner messages reach the classic turn
    cycle, while two cannot close a knot.
    """
    return [
        CampaignTask.make(
            "adaptive", "adaptive-mesh", routing="escape", dims=(2, 2), msgs=2,
            expect="unreachable",
        ),
        CampaignTask.make(
            "adaptive", "adaptive-mesh", routing="escape", dims=(3, 3), msgs=2,
            expect="unreachable",
        ),
        CampaignTask.make(
            "adaptive", "adaptive-mesh", routing="full", dims=(2, 2), msgs=4,
            expect="deadlock",
        ),
        CampaignTask.make(
            "adaptive", "adaptive-mesh", routing="full", dims=(2, 2), msgs=2,
            expect="unreachable",
        ),
    ]


def cross_check_tasks() -> list[CampaignTask]:
    """Witness-replay cross-validation of the certificate fast path.

    One task per witness source: the Theorem-2 overlap ring is decided by
    CRT005 and must emit a *constructed* zero-search witness; the Theorem-4
    pair and the delayed Figure 1 exercise search-produced witnesses.  All
    three replay through the flit-level simulator (``replay-failed`` /
    ``witness-invalid`` verdicts would break the ``expect``).
    """
    return [
        CampaignTask.make(
            "cross_check",
            "theorem2-overlap",
            ring_n=6,
            entries=(0, 2, 4),
            run_lens=(3, 3, 3),
            expect="deadlock",
        ),
        CampaignTask.make(
            "cross_check", "fig2-pair", d1=3, d2=1, hold=3, expect="deadlock"
        ),
        CampaignTask.make(
            "cross_check", "fig1", budget=1, max_states=8_000_000,
            expect="deadlock",
        ),
    ]


def traffic_tasks() -> list[CampaignTask]:
    """Simulator-validation workloads (V1) plus the ring positive control."""
    tasks: list[CampaignTask] = []
    for rate in (0.02, 0.06):
        for case in [
            {"algorithm": "dor", "dims": (4, 4)},
            {"algorithm": "dor", "dims": (8, 8)},
            {"algorithm": "west-first", "dims": (8, 8)},
            {"algorithm": "dateline", "dims": (4, 4)},
            {"algorithm": "ecube", "d": 3},
        ]:
            tasks.append(
                CampaignTask.make(
                    "simulate", "traffic", rate=rate, expect="delivered", **case
                )
            )
    tasks.append(
        CampaignTask.make(
            "simulate",
            "traffic",
            algorithm="clockwise",
            n=8,
            rate=0.08,
            cycles=400,
            length=10,
            seed=3,
            expect="deadlock",
        )
    )
    return tasks


# ----------------------------------------------------------------------
# named specs
# ----------------------------------------------------------------------
@register_spec("paper-battery")
def paper_battery() -> list[CampaignTask]:
    tasks: list[CampaignTask] = [
        # Figure 1 / Theorem 1: no reachable deadlock at Δ = 0, robust to
        # longer messages and the proof's interposed copies; Δ = 1 breaks it
        CampaignTask.make("reachability", "fig1", expect="unreachable"),
        CampaignTask.make(
            "reachability", "fig1", extra_length=1, expect="unreachable"
        ),
        CampaignTask.make(
            "reachability", "fig1", extra_length=2, expect="unreachable"
        ),
        CampaignTask.make(
            "reachability",
            "fig1",
            with_copies=True,
            max_states=8_000_000,
            expect="unreachable",
        ),
        CampaignTask.make("min_delay", "fig1", max_delay=3, expect="delta=1"),
        # the M1/M3 sub-scenario has an acyclic dependency graph: the
        # static certificate decides it with zero search states
        CampaignTask.make(
            "reachability", "fig1", subset=("M1", "M3"), expect="unreachable"
        ),
    ]
    tasks += fig2_grid_tasks()
    tasks += fig3_panel_tasks()
    tasks += fig3_sweep_tasks(20)
    tasks += theorem2_tasks()
    tasks += theorem3_tasks()
    tasks += gen_tasks((1, 2, 3))
    tasks += baseline_tasks()
    tasks += lint_tasks()
    tasks += adaptive_tasks()
    tasks += cross_check_tasks()
    tasks += traffic_tasks()
    return tasks


@register_spec("quick")
def quick() -> list[CampaignTask]:
    """One cheap task per subsystem -- CI smoke and cache demos."""
    return [
        CampaignTask.make("reachability", "fig1", expect="unreachable"),
        CampaignTask.make(
            "reachability", "fig2-pair", d1=3, d2=1, hold=3, expect="deadlock"
        ),
        CampaignTask.make(
            "classify", "fig3-panel", panel="a", max_states=2_000_000,
            expect="unreachable",
        ),
        CampaignTask.make(
            "min_delay", "gen", m=1, max_delay=3, expect="delta=1"
        ),
        CampaignTask.make(
            "reachability",
            "theorem2-overlap",
            ring_n=6,
            entries=(0, 2, 4),
            run_lens=(3, 3, 3),
            expect="deadlock",
        ),
        CampaignTask.make("classify", "ring-cycle", n=4, expect="deadlock"),
        CampaignTask.make("cdg", "baseline-cdg", algorithm="dor", dims=(3, 3),
                          expect="acyclic"),
        CampaignTask.make("lint", "ring-cycle", n=4, expect="reachable_deadlock"),
        CampaignTask.make(
            "adaptive", "adaptive-mesh", routing="escape", dims=(2, 2), msgs=2,
            expect="unreachable",
        ),
        CampaignTask.make(
            "cross_check", "fig2-pair", d1=3, d2=1, hold=3, expect="deadlock"
        ),
        CampaignTask.make(
            "simulate", "traffic", algorithm="dor", dims=(4, 4), rate=0.02,
            expect="delivered",
        ),
    ]
