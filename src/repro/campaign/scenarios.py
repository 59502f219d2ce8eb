"""Scenario registry: campaign task names -> paper constructions.

A scenario builds the *inputs* of an analysis from plain JSON-able
parameters, inside the worker process (constructions are cheap; verdicts
are not).  Each builder returns a :class:`ScenarioBundle` exposing
whichever handles its analysis kinds need:

``messages``        checker messages (reachability / classify / min_delay /
                    cross_check)
``sim``             ``(network, routing, specs)`` for timed simulation
``algorithm``       a routing algorithm for CDG structure checks
``cycle_classify``  ``(algorithm, cycle, pairs)`` for CDG-cycle classification
``adaptive``        ``(adaptive_fn, adaptive_messages)`` for the adaptive
                    exhaustive search
``detail``          extra facts recorded verbatim in the task result
                    (e.g. minimality, Theorem 5 condition verdicts)

Builders must stay importable from worker processes: registration happens
at module import, so only scenarios defined here (not in test modules) are
visible to the pool.  The ``debug-*`` scenarios exist for exercising the
runner's timeout/retry machinery in tests.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

_REGISTRY: dict[str, Callable[[dict[str, Any]], "ScenarioBundle"]] = {}


@dataclass
class ScenarioBundle:
    messages: list = field(default_factory=list)
    sim: tuple | None = None  # (network, routing, specs)
    algorithm: Any = None
    cycle_classify: tuple | None = None  # (algorithm, cycle, pairs)
    adaptive: tuple | None = None  # (adaptive_fn, adaptive_messages)
    detail: dict[str, Any] = field(default_factory=dict)
    #: the registered scenario name (set by :func:`build_scenario`)
    name: str = ""


def register(name: str):
    def deco(fn: Callable[[dict[str, Any]], ScenarioBundle]):
        _REGISTRY[name] = fn
        return fn

    return deco


def scenario_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def build_scenario(name: str, params: dict[str, Any]) -> ScenarioBundle:
    try:
        fn = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {', '.join(scenario_names())}"
        ) from None
    bundle = fn(params)
    bundle.name = name
    return bundle


# ----------------------------------------------------------------------
# paper constructions
# ----------------------------------------------------------------------
@register("fig1")
def _fig1(p: dict[str, Any]) -> ScenarioBundle:
    """The Figure 1 Cyclic Dependency network's four cycle messages.

    ``extra_length`` lengthens every message; ``with_copies`` adds the
    Theorem 1 proof's interposed M2/M4 copies; ``subset`` restricts to the
    named message tags (e.g. ``["M1", "M3"]`` -- an acyclic sub-scenario
    the static certificates decide without search).
    """
    from repro.analysis.state import CheckerMessage
    from repro.core.cyclic_dependency import build_cyclic_dependency_network

    cdn = build_cyclic_dependency_network()
    msgs = cdn.checker_messages()
    subset = p.get("subset")
    if subset is not None:
        if not subset:
            raise ValueError("fig1 subset names no message")
        wanted = {str(t) for t in subset}
        unknown = wanted - {m.tag for m in msgs}
        if unknown:
            raise ValueError(f"unknown fig1 message tags {sorted(unknown)}")
        msgs = [m for m in msgs if m.tag in wanted]
    extra = int(p.get("extra_length", 0))
    if extra:
        msgs = [CheckerMessage(m.path, m.length + extra, m.tag) for m in msgs]
    if p.get("with_copies"):
        by_tag = {m.tag: m for m in msgs}
        for tag in ("M2", "M4"):
            if tag not in by_tag:
                raise ValueError(f"fig1 with_copies needs message {tag}, not in the subset")
        msgs = msgs + [
            CheckerMessage(by_tag[tag].path, by_tag[tag].length, f"{tag}copy")
            for tag in ("M2", "M4")
        ]
    return ScenarioBundle(messages=msgs, algorithm=cdn.algorithm)


@register("fig2-pair")
def _fig2_pair(p: dict[str, Any]) -> ScenarioBundle:
    """One Theorem 4 two-message configuration (approaches d1, d2; hold h)."""
    from repro.core.two_message import build_two_message_config

    cfg = build_two_message_config(
        approach_1=int(p.get("d1", 3)),
        approach_2=int(p.get("d2", 1)),
        hold_1=int(p.get("hold", 3)),
        hold_2=int(p.get("hold", 3)),
    )
    return ScenarioBundle(messages=cfg.checker_messages(), algorithm=cfg.algorithm)


@register("fig3-panel")
def _fig3_panel(p: dict[str, Any]) -> ScenarioBundle:
    """One of the six Figure 3 panels, with its Theorem 5 condition verdict."""
    from repro.core.conditions import TheoremFiveInput, evaluate_conditions
    from repro.core.three_message import FIG3_PANELS, build_three_message_config

    params = FIG3_PANELS[str(p["panel"])]
    construction = build_three_message_config(params)
    report = evaluate_conditions(TheoremFiveInput.from_specs(list(params.specs)))
    return ScenarioBundle(
        messages=construction.checker_messages(),
        algorithm=construction.algorithm,
        detail={
            "conditions_unreachable": report.all_hold,
            "failed_conditions": list(report.failed()),
        },
    )


@register("shared-cycle")
def _shared_cycle(p: dict[str, Any]) -> ScenarioBundle:
    """A single-shared-channel cycle from (approach, hold) vectors.

    With ``conditions=True`` (three messages) the Theorem 5 condition
    verdict is recorded alongside, which is how the Figure 3 random sweep
    measures conditions-vs-search agreement.
    """
    from repro.core.specs import CycleMessageSpec, build_shared_cycle

    approaches = [int(a) for a in p["approaches"]]
    holds = [int(h) for h in p["holds"]]
    specs = [
        CycleMessageSpec(approach_len=a, hold_len=h, label=f"S{i}")
        for i, (a, h) in enumerate(zip(approaches, holds))
    ]
    construction = build_shared_cycle(specs, name="campaign-shared")
    detail: dict[str, Any] = {}
    if p.get("conditions"):
        from repro.core.conditions import TheoremFiveInput, evaluate_conditions

        report = evaluate_conditions(TheoremFiveInput.from_specs(specs))
        detail = {
            "conditions_unreachable": report.all_hold,
            "failed_conditions": list(report.failed()),
        }
    return ScenarioBundle(
        messages=construction.checker_messages(),
        algorithm=construction.algorithm,
        detail=detail,
    )


@register("minimal-config")
def _minimal_config(p: dict[str, Any]) -> ScenarioBundle:
    """Theorem 3 sweep member: shared cycle + minimality certificate."""
    from repro.core.specs import CycleMessageSpec, build_shared_cycle
    from repro.routing.properties import is_minimal

    specs = [
        CycleMessageSpec(approach_len=int(a), hold_len=int(h), label=f"M{i + 1}")
        for i, (a, h) in enumerate(zip(p["approaches"], p["holds"]))
    ]
    construction = build_shared_cycle(specs, name="campaign-minimal")
    minimal = is_minimal(construction.algorithm, construction.message_pairs)
    return ScenarioBundle(
        messages=construction.checker_messages(),
        algorithm=construction.algorithm,
        detail={"minimal": minimal},
    )


@register("theorem2-overlap")
def _theorem2_overlap(p: dict[str, Any]) -> ScenarioBundle:
    """A within-cycle-sharing overlapping-ring configuration (Theorem 2)."""
    from repro.core.within_cycle import OverlapSpec, build_overlapping_ring

    entries = [int(e) for e in p["entries"]]
    run_lens = [int(r) for r in p["run_lens"]]
    approach_lens = p.get("approach_lens")
    overlaps = []
    for i, (e, r) in enumerate(zip(entries, run_lens)):
        kw: dict[str, Any] = {"entry_pos": e, "run_len": r}
        if approach_lens is not None:
            kw["approach_len"] = int(approach_lens[i])
        overlaps.append(OverlapSpec(**kw))
    cfg = build_overlapping_ring(int(p["ring_n"]), overlaps)
    return ScenarioBundle(messages=cfg.checker_messages(), algorithm=cfg.algorithm)


@register("gen")
def _gen(p: dict[str, Any]) -> ScenarioBundle:
    """The Section 6 family ``Gen(m)``."""
    from repro.core.generalized import build_generalized

    construction = build_generalized(int(p["m"]))
    return ScenarioBundle(
        messages=construction.checker_messages(), algorithm=construction.algorithm
    )


# ----------------------------------------------------------------------
# baseline algorithms (Section 5 corollaries) and traffic workloads
# ----------------------------------------------------------------------
def _baseline_algorithm(p: dict[str, Any]):
    from repro.routing import (
        RoutingAlgorithm,
        clockwise_ring,
        dateline_torus,
        dimension_order_mesh,
        ecube_hypercube,
        west_first_mesh,
    )
    from repro.topology import hypercube, mesh, ring, torus

    algorithm = str(p["algorithm"])
    if algorithm == "dor":
        dims = tuple(int(d) for d in p["dims"])
        net = mesh(dims)
        return net, dimension_order_mesh(net, len(dims))
    if algorithm == "west-first":
        dims = tuple(int(d) for d in p["dims"])
        net = mesh(dims)
        return net, west_first_mesh(net)
    if algorithm == "ecube":
        d = int(p["d"])
        net = hypercube(d)
        return net, ecube_hypercube(net, d)
    if algorithm == "dateline":
        dims = tuple(int(d) for d in p["dims"])
        net = torus(dims, vcs=2)
        return net, dateline_torus(net, dims)
    if algorithm == "clockwise":
        n = int(p["n"])
        net = ring(n)
        return net, clockwise_ring(net, n)
    raise ValueError(f"unknown baseline algorithm {algorithm!r}")


@register("baseline-cdg")
def _baseline_cdg(p: dict[str, Any]) -> ScenarioBundle:
    """A classic routing baseline, wrapped for CDG structure checks."""
    from repro.routing import RoutingAlgorithm
    from repro.routing.properties import analyze_properties

    net, fn = _baseline_algorithm(p)
    alg = RoutingAlgorithm(fn)
    detail: dict[str, Any] = {}
    if p.get("properties"):
        props = analyze_properties(alg)
        detail = {
            "coherent": props.coherent,
            "input_channel_independent": props.input_channel_independent,
        }
    return ScenarioBundle(algorithm=alg, detail=detail)


@register("ring-cycle")
def _ring_cycle(p: dict[str, Any]) -> ScenarioBundle:
    """The unrestricted ring's single CDG cycle (Corollary 1/3 positive case)."""
    from repro.cdg import build_cdg, find_cycles
    from repro.routing import RoutingAlgorithm, clockwise_ring
    from repro.topology import ring

    n = int(p["n"])
    net = ring(n)
    alg = RoutingAlgorithm(clockwise_ring(net, n))
    cycles = find_cycles(build_cdg(alg)).cycles
    if len(cycles) != 1:
        raise RuntimeError(f"expected one ring cycle, found {len(cycles)}")
    return ScenarioBundle(algorithm=alg, cycle_classify=(alg, cycles[0], None))


@register("traffic")
def _traffic(p: dict[str, Any]) -> ScenarioBundle:
    """Uniform random traffic on a baseline (topology, algorithm) pair."""
    from repro.routing import RoutingAlgorithm
    from repro.sim.traffic import uniform_random_traffic

    net, fn = _baseline_algorithm(p)
    specs = uniform_random_traffic(
        net,
        rate=float(p.get("rate", 0.05)),
        cycles=int(p.get("cycles", 300)),
        length=int(p.get("length", 4)),
        seed=int(p.get("seed", 11)),
    )
    return ScenarioBundle(sim=(net, fn, specs), algorithm=RoutingAlgorithm(fn))


@register("adaptive-mesh")
def _adaptive_mesh(p: dict[str, Any]) -> ScenarioBundle:
    """Adaptive routing on a 2D mesh (Section 7 / Duato's setting).

    ``routing="escape"`` builds :func:`repro.routing.adaptive.duato_escape_mesh`
    on a two-VC mesh (deadlock-free by CRT008); ``routing="full"`` builds the
    single-VC :class:`~repro.routing.adaptive.FullyAdaptiveMesh` negative
    control.  The message set is the four-corners pattern -- each corner
    sends to the opposite corner -- whose turn cycle is the classic
    fully-adaptive deadlock; ``msgs`` keeps only the first k corners (the
    exhaustive adaptive search is exponential in the message count).
    """
    from repro.analysis.adaptive_state import AdaptiveMessage
    from repro.routing import RoutingAlgorithm
    from repro.routing.adaptive import FullyAdaptiveMesh, duato_escape_mesh
    from repro.topology import mesh

    dims = tuple(int(d) for d in p.get("dims", (2, 2)))
    if len(dims) != 2:
        raise ValueError("adaptive-mesh requires 2D dims")
    mode = str(p.get("routing", "escape"))
    if mode == "escape":
        net = mesh(dims, vcs=2)
        fn = duato_escape_mesh(net, 2)
    elif mode == "full":
        net = mesh(dims)
        fn = FullyAdaptiveMesh(net, 2)
    else:
        raise ValueError(f"unknown adaptive routing {mode!r}; use escape|full")
    x, y = dims[0] - 1, dims[1] - 1
    corners = [(0, 0), (x, 0), (x, y), (0, y)]
    length = int(p.get("length", 2))
    msgs = [
        AdaptiveMessage(c, (x - c[0], y - c[1]), length, tag=f"c{i}")
        for i, c in enumerate(corners)
    ][: int(p.get("msgs", 4))]
    return ScenarioBundle(
        algorithm=RoutingAlgorithm(fn),
        adaptive=(fn, msgs),
        detail={"routing": mode},
    )


# ----------------------------------------------------------------------
# debug scenarios (runner tests: timeout, retry, fallback)
# ----------------------------------------------------------------------
@register("debug-sleep")
def _debug_sleep(p: dict[str, Any]) -> ScenarioBundle:
    """Sleep ``seconds`` then yield a trivial one-message scenario."""
    from repro.analysis.state import CheckerMessage

    time.sleep(float(p.get("seconds", 0.0)))
    return ScenarioBundle(messages=[CheckerMessage(path=(0,), length=1, tag="D")])


@register("debug-flaky")
def _debug_flaky(p: dict[str, Any]) -> ScenarioBundle:
    """Fail the first ``fail_times`` builds, tallied via marker files.

    ``token_dir`` must exist and be writable; each attempt drops one marker
    file, and attempts beyond ``fail_times`` succeed -- a deterministic
    stand-in for transient faults when testing runner retry.
    """
    from repro.analysis.state import CheckerMessage

    token_dir = str(p["token_dir"])
    fail_times = int(p.get("fail_times", 1))
    attempts = len(os.listdir(token_dir))
    if attempts < fail_times:
        with open(os.path.join(token_dir, f"attempt{attempts}"), "w"):
            pass
        raise RuntimeError(f"flaky failure {attempts + 1}/{fail_times}")
    return ScenarioBundle(messages=[CheckerMessage(path=(0,), length=1, tag="F")])
