"""The campaign task model: frozen, hashable, content-addressed work units.

A :class:`CampaignTask` names *what* to verify -- a registered scenario
(construction) plus parameters -- and *how* -- the analysis kind:

``reachability``
    exhaustive deadlock search (:func:`repro.analysis.search_deadlock`);
``classify``
    full-adversary classification, either of a fixed message set
    (:func:`repro.analysis.classify.classify_configuration`) or of a CDG
    cycle (:func:`repro.analysis.classify.classify_cycle`), per scenario;
``min_delay``
    the Section 6 stall-budget sweep
    (:func:`repro.analysis.delay.min_delay_to_deadlock`);
``simulate``
    a timed flit-level run (:class:`repro.sim.engine.Simulator`);
``cdg``
    channel-dependency-graph structure checks (acyclicity + Dally--Seitz
    numbering) for the corollary baselines;
``lint``
    the static deadlock linter (:func:`repro.lint.lint_algorithm` /
    :func:`repro.lint.lint_messages`): rule diagnostics plus at most one
    search-free certificate verdict;
``adaptive``
    exhaustive adaptive-routing search
    (:func:`repro.analysis.adaptive_state.search_adaptive_deadlock`) over
    the scenario's ``adaptive`` handle, with the CRT008/CRT001 certificate
    pre-pass;
``cross_check``
    certificate/witness cross-validation: run the reachability search with
    ``find_witness=True``, then validate the emitted witness against the
    successor relation and replay it through the flit-level simulator --
    any disagreement surfaces as a non-``deadlock`` verdict.

Identity is the sha256 of the canonical JSON of ``(kind, scenario,
params)`` -- stable across process restarts, dict orderings, and Python
versions -- which keys both the result cache and the run ledger.  The
``expect`` field is advisory (the paper's stated verdict) and deliberately
excluded from identity and equality.

``execute_task`` is module-level and operates on plain picklable data so
the parallel runner can ship tasks to worker processes.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any

#: bump when the result payload or task semantics change; salts the cache key
#: (v5: new ``adaptive`` and ``cross_check`` kinds; certificate-decided
#: reachable verdicts now construct witnesses without search, so
#: witness-bearing results can report ``states_explored`` of 0;
#: v4: optional per-task ``telemetry`` summary embedded in results when
#: ``REPRO_TELEMETRY`` is on; v3: static-certificate pre-pass --
#: certificate-decided reachability and classify tasks report
#: ``states_explored``/``scenarios_tested`` of 0 and a ``certificate``
#: detail; new ``lint`` kind)
SCHEMA_VERSION = 5

ANALYSIS_KINDS = (
    "reachability",
    "classify",
    "min_delay",
    "simulate",
    "cdg",
    "lint",
    "adaptive",
    "cross_check",
)

Params = tuple[tuple[str, Any], ...]


def _canonical_value(v: Any) -> Any:
    """Normalise a parameter value to a hashable, JSON-stable form."""
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, float):
        return v
    if isinstance(v, (list, tuple)):
        return tuple(_canonical_value(x) for x in v)
    raise TypeError(f"unsupported campaign parameter type {type(v).__name__}: {v!r}")


def _jsonable(v: Any) -> Any:
    """Tuples -> lists, recursively, for canonical JSON."""
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    return v


@dataclass(frozen=True)
class CampaignTask:
    """One unit of verification work; identity = content hash."""

    kind: str
    scenario: str
    params: Params = ()
    #: paper-stated verdict, e.g. ``"unreachable"`` / ``"deadlock"`` --
    #: advisory metadata, excluded from identity (compare/hash)
    expect: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ANALYSIS_KINDS:
            raise ValueError(
                f"unknown analysis kind {self.kind!r}; expected one of {ANALYSIS_KINDS}"
            )
        # normalise params: sorted by key, canonical hashable values
        norm = tuple(
            sorted((str(k), _canonical_value(v)) for k, v in self.params)
        )
        keys = [k for k, _ in norm]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate parameter keys in {keys}")
        object.__setattr__(self, "params", norm)

    @classmethod
    def make(
        cls, kind: str, scenario: str, *, expect: str | None = None, **params: Any
    ) -> "CampaignTask":
        """Build a task from keyword parameters (any ordering)."""
        return cls(
            kind=kind, scenario=scenario, params=tuple(params.items()), expect=expect
        )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def canonical_json(self) -> str:
        """Canonical JSON of the identity-bearing fields."""
        payload = {
            "kind": self.kind,
            "scenario": self.scenario,
            "params": {k: _jsonable(v) for k, v in self.params},
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @property
    def task_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @property
    def name(self) -> str:
        """Human-readable label for ledgers and progress lines."""
        ps = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.scenario}({ps}):{self.kind}"

    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "scenario": self.scenario,
            "params": {k: _jsonable(v) for k, v in self.params},
            "expect": self.expect,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "CampaignTask":
        return cls(
            kind=data["kind"],
            scenario=data["scenario"],
            params=tuple(data.get("params", {}).items()),
            expect=data.get("expect"),
        )


def parse_shard(text: str) -> tuple[int, int]:
    """Parse an ``"i/n"`` shard selector (1-based index ``i`` of ``n``).

    Malformed selectors are rejected loudly with a message naming the
    specific defect -- a silently-empty shard (e.g. from ``0/4`` under
    0-based assumptions, or ``5/4`` from a typo) would skip work without
    anyone noticing until the merged campaign came up short.
    """
    parts = text.split("/")
    if len(parts) != 2:
        raise ValueError(f"shard must look like 'i/n', got {text!r}")
    try:
        index, count = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(
            f"shard must be two integers 'i/n', got {text!r}"
        ) from None
    if count < 1:
        raise ValueError(
            f"shard count must be a positive integer, got {count} in {text!r}"
        )
    if index < 1:
        raise ValueError(
            f"shard index is 1-based: got {index} in {text!r}"
            f" (the first shard is '1/{count}', not '0/{count}')"
        )
    if index > count:
        raise ValueError(
            f"shard index {index} exceeds shard count {count} in {text!r}"
        )
    return index, count


def shard_tasks(
    tasks: list["CampaignTask"], index: int, count: int
) -> list["CampaignTask"]:
    """Deterministic hash-range shard ``index`` (1-based) of ``count``.

    Selection is ``task_hash mod count``, so it depends only on task
    content: every task lands in exactly one shard, re-ordering or
    trimming the spec never moves a task between shards, and the shards'
    ledgers/caches union to exactly the unsharded campaign (merge them by
    pointing ``campaign status`` / the result cache at a shared
    ``--cache-dir``).
    """
    return [t for t in tasks if int(t.task_hash, 16) % count == index - 1]


@dataclass
class TaskResult:
    """Outcome of one task, in ledger/cache-ready form."""

    task_hash: str
    name: str
    kind: str
    scenario: str
    params: dict[str, Any]
    verdict: str
    detail: dict[str, Any] = field(default_factory=dict)
    ok: bool = True
    error: str | None = None
    wall_time: float = 0.0
    worker: str = ""
    source: str = "live"  # "live" | "cache"
    attempts: int = 1
    expect: str | None = None
    #: per-task telemetry summary (counter/span deltas accumulated while
    #: the task ran); ``None`` unless ``REPRO_TELEMETRY`` was on
    telemetry: dict[str, Any] | None = None

    @property
    def expect_matches(self) -> bool | None:
        """None when no expectation was declared."""
        if self.expect is None:
            return None
        return self.verdict == self.expect

    def to_json(self) -> dict[str, Any]:
        return {
            "task_hash": self.task_hash,
            "name": self.name,
            "kind": self.kind,
            "scenario": self.scenario,
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "verdict": self.verdict,
            "detail": {k: _jsonable(v) for k, v in self.detail.items()},
            "ok": self.ok,
            "error": self.error,
            "wall_time": self.wall_time,
            "worker": self.worker,
            "source": self.source,
            "attempts": self.attempts,
            "expect": self.expect,
            "telemetry": self.telemetry,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "TaskResult":
        return cls(
            task_hash=data["task_hash"],
            name=data.get("name", ""),
            kind=data.get("kind", ""),
            scenario=data.get("scenario", ""),
            params=data.get("params", {}),
            verdict=data.get("verdict", ""),
            detail=data.get("detail", {}),
            ok=data.get("ok", True),
            error=data.get("error"),
            wall_time=data.get("wall_time", 0.0),
            worker=data.get("worker", ""),
            source=data.get("source", "live"),
            attempts=data.get("attempts", 1),
            expect=data.get("expect"),
            telemetry=data.get("telemetry"),
        )


# ----------------------------------------------------------------------
# execution (module-level: must be importable/picklable from workers)
# ----------------------------------------------------------------------
def _run_reachability(
    bundle, p: dict[str, Any], engine: str | None = None
) -> tuple[str, dict[str, Any]]:
    from repro.analysis import SystemSpec, search_deadlock

    spec = SystemSpec.uniform(bundle.messages, budget=int(p.get("budget", 0)))
    res = search_deadlock(
        spec,
        max_states=int(p.get("max_states", 4_000_000)),
        find_witness=False,
        engine=engine,
    )
    verdict = "deadlock" if res.deadlock_reachable else "unreachable"
    return verdict, {
        "states_explored": res.states_explored,
        "certificate": res.certificate,
    }


def _run_classify(
    bundle, p: dict[str, Any], engine: str | None = None
) -> tuple[str, dict[str, Any]]:
    from repro.analysis.classify import classify_configuration, classify_cycle

    if bundle.cycle_classify is not None:
        alg, cycle, pairs = bundle.cycle_classify
        cls = classify_cycle(
            alg,
            cycle,
            pairs=pairs,
            length_slack=int(p.get("length_slack", 0)),
            extra_copies=int(p.get("extra_copies", 1)),
            budget=int(p.get("budget", 0)),
            max_states=int(p.get("max_states", 2_000_000)),
            engine=engine,
        )
        verdict = "deadlock" if cls.deadlock_reachable else "unreachable"
        return verdict, {
            "tilings_tested": cls.tilings_tested,
            "scenarios_tested": cls.scenarios_tested,
            "certificate": cls.certificate,
        }
    reachable, res = classify_configuration(
        bundle.messages,
        budget=int(p.get("budget", 0)),
        copy_depth=int(p.get("copy_depth", 1)),
        length_slack=int(p.get("length_slack", 0)),
        max_states=int(p.get("max_states", 4_000_000)),
        engine=engine,
    )
    verdict = "deadlock" if reachable else "unreachable"
    return verdict, {"states_explored": res.states_explored}


def _run_min_delay(
    bundle, p: dict[str, Any], engine: str | None = None
) -> tuple[str, dict[str, Any]]:
    from repro.analysis.delay import min_delay_to_deadlock

    res = min_delay_to_deadlock(
        bundle.messages,
        max_delay=int(p.get("max_delay", 8)),
        max_states=int(p.get("max_states", 8_000_000)),
        engine=engine,
    )
    states = sum(r.states_explored for r in res.results.values())
    if res.min_delay is None:
        return "no-deadlock", {
            "min_delay": None,
            "max_delay_tested": res.max_delay_tested,
            "states_explored": states,
        }
    return f"delta={res.min_delay}", {
        "min_delay": res.min_delay,
        "states_explored": states,
    }


def _run_simulate(
    bundle, p: dict[str, Any], engine: str | None = None
) -> tuple[str, dict[str, Any]]:
    from repro.sim import SimConfig, Simulator

    net, routing, specs = bundle.sim
    cfg = SimConfig(max_cycles=int(p.get("max_cycles", 60_000)))
    sim = Simulator(net, routing, specs, config=cfg)
    res = sim.run()
    if res.deadlocked:
        verdict = "deadlock"
    elif res.timed_out:
        verdict = "timeout"
    else:
        verdict = "delivered"
    return verdict, {
        "delivered": res.delivered,
        "total": res.total,
        "cycles": res.cycles,
        "mean_latency": round(res.stats.mean_latency(), 2),
        "throughput": round(res.stats.throughput_flits_per_cycle(), 3),
    }


def _run_cdg(
    bundle, p: dict[str, Any], engine: str | None = None
) -> tuple[str, dict[str, Any]]:
    from repro.cdg import build_cdg, dally_seitz_numbering, is_acyclic, verify_numbering

    alg = bundle.algorithm
    cdg = build_cdg(alg)
    acyclic = is_acyclic(cdg)
    detail: dict[str, Any] = {"acyclic": acyclic}
    if acyclic:
        numbering = dally_seitz_numbering(cdg)
        detail["numbering_valid"] = verify_numbering(cdg, numbering)
        return "acyclic", detail
    return "cyclic", detail


def _run_lint(
    bundle, p: dict[str, Any], engine: str | None = None
) -> tuple[str, dict[str, Any]]:
    from repro.lint import lint_algorithm, lint_messages

    if bundle.algorithm is not None:
        report = lint_algorithm(
            bundle.algorithm, max_cycles=int(p.get("max_cycles", 10_000))
        )
    elif bundle.messages:
        report = lint_messages(bundle.messages, budget=int(p.get("budget", 0)))
    else:
        raise ValueError("scenario exposes neither an algorithm nor messages to lint")
    cert_diag = report.certificate_diagnostic
    return report.verdict, {
        "certificate": None if cert_diag is None else cert_diag.code,
        "max_severity": report.max_severity,
        "diagnostics": sorted(d.code for d in report.diagnostics),
        "errors": len(report.errors),
        "rules_run": len(report.rules_run),
    }


def _run_adaptive(
    bundle, p: dict[str, Any], engine: str | None = None
) -> tuple[str, dict[str, Any]]:
    from repro.analysis.adaptive_state import search_adaptive_deadlock

    if bundle.adaptive is None:
        raise ValueError("scenario exposes no adaptive routing function")
    fn, messages = bundle.adaptive
    res = search_adaptive_deadlock(
        fn,
        messages,
        budget=int(p.get("budget", 0)),
        max_states=int(p.get("max_states", 500_000)),
    )
    verdict = "deadlock" if res.deadlock_reachable else "unreachable"
    return verdict, {
        "states_explored": res.states_explored,
        "certificate": res.certificate,
        "deadlocked_tags": list(res.deadlocked_tags),
    }


def _run_cross_check(
    bundle, p: dict[str, Any], engine: str | None = None
) -> tuple[str, dict[str, Any]]:
    """Witness emission + replay cross-validation for one scenario.

    Any layer disagreeing -- the witness failing successor-relation
    validation, or the flit-level replay not deadlocking -- yields a
    distinct verdict (``witness-invalid`` / ``replay-failed``) so the
    battery's ``expect`` comparison flags it.
    """
    from repro.analysis import SystemSpec, search_deadlock
    from repro.lint.witness import replay_certificate_witness, validate_witness

    if not bundle.messages or bundle.algorithm is None:
        raise ValueError("cross_check needs both messages and an algorithm")
    spec = SystemSpec.uniform(bundle.messages, budget=int(p.get("budget", 0)))
    res = search_deadlock(
        spec,
        max_states=int(p.get("max_states", 4_000_000)),
        find_witness=True,
        engine=engine,
    )
    detail: dict[str, Any] = {
        "states_explored": res.states_explored,
        "certificate": res.certificate,
    }
    if not res.deadlock_reachable:
        return "unreachable", detail
    if res.witness is None:
        return "deadlock", detail  # reachable decided without a schedule
    detail["witness_valid"] = validate_witness(res.witness)
    net = bundle.algorithm.network
    chan = {c.cid: c for c in net.channels}
    src_dst = [
        (chan[m.path[0]].src, chan[m.path[-1]].dst)
        for m in res.witness.spec.messages
    ]
    detail["replay_deadlocked"] = replay_certificate_witness(
        res.witness, net, bundle.algorithm.fn, src_dst
    )
    if not detail["witness_valid"]:
        return "witness-invalid", detail
    if not detail["replay_deadlocked"]:
        return "replay-failed", detail
    return "deadlock", detail


_KIND_RUNNERS = {
    "reachability": _run_reachability,
    "classify": _run_classify,
    "min_delay": _run_min_delay,
    "simulate": _run_simulate,
    "cdg": _run_cdg,
    "lint": _run_lint,
    "adaptive": _run_adaptive,
    "cross_check": _run_cross_check,
}


def execute_task(
    task: CampaignTask,
    *,
    worker: str = "",
    engine: str | None = None,
) -> TaskResult:
    """Build the task's scenario and run its analysis.

    Never raises for task-level failures: the error is captured in the
    result (``ok=False``) so a single bad configuration cannot abort a
    thousand-task campaign.  Infrastructure errors (pool breakage,
    timeouts) are the runner's concern.

    ``engine`` is an *execution* knob (the search engine --
    kernel/fast/reference -- used inside a task), deliberately not a task
    parameter: the engines are pinned bit-identical by the differential
    suites, so it never enters the content hash and cached results stay
    valid whatever engine produced them.
    """
    from repro.campaign.scenarios import build_scenario
    from repro.obs import get as _obs_get

    # per-task telemetry summary: registry deltas around the task body.
    # Works identically in-process (deltas against the shared collector)
    # and in pool workers (REPRO_TELEMETRY is inherited via the
    # environment; the worker's sink-less collector just aggregates and
    # the summary rides back inside the picklable result).
    tel = _obs_get()
    mark = tel.mark() if tel is not None else None

    p = task.params_dict()
    t0 = time.perf_counter()
    try:
        bundle = build_scenario(task.scenario, p)
        verdict, detail = _KIND_RUNNERS[task.kind](bundle, p, engine)
        detail.update(bundle.detail)
        result = TaskResult(
            task_hash=task.task_hash,
            name=task.name,
            kind=task.kind,
            scenario=task.scenario,
            params=p,
            verdict=verdict,
            detail=detail,
            ok=True,
            wall_time=time.perf_counter() - t0,
            worker=worker,
            expect=task.expect,
        )
    except Exception as exc:  # noqa: BLE001 - captured into the result
        result = TaskResult(
            task_hash=task.task_hash,
            name=task.name,
            kind=task.kind,
            scenario=task.scenario,
            params=p,
            verdict="error",
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
            wall_time=time.perf_counter() - t0,
            worker=worker,
            expect=task.expect,
        )
    if tel is not None and mark is not None:
        result.telemetry = tel.since(mark)
    return result
