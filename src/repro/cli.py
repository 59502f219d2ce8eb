"""Command-line interface: regenerate any paper artifact from the shell.

Examples
--------
::

    python -m repro fig1                 # Figure 1 / Theorem 1 battery
    python -m repro fig2                 # Figure 2 / Theorem 4 sweep
    python -m repro fig3 --sweep 20      # Figure 3 panels + condition sweep
    python -m repro theorem2             # Theorem 2 + corollary baselines
    python -m repro theorem3             # Theorem 3 minimal-routing sweep
    python -m repro gen --max-m 3        # Section 6 delay profile
    python -m repro traffic              # simulator validation traffic runs
    python -m repro dot fig1-cdg         # DOT of the Figure 1 CDG

    # single-scenario verdicts with full diagnostics
    python -m repro search fig1 --params '{"subset": ["M1", "M3"]}'
    python -m repro classify ring-cycle --params '{"n": 4}' --json

    # verification campaigns: parallel, cached, ledgered sweeps
    python -m repro campaign run --spec paper-battery --jobs 4
    python -m repro campaign run --spec paper-battery --shard 1/3
    python -m repro campaign trend old.jsonl new.jsonl --threshold 1.5
    python -m repro campaign status
    python -m repro campaign clean

    # telemetry (see docs/OBSERVABILITY.md): stream events, summarise them
    python -m repro campaign run --spec quick --telemetry out.jsonl
    python -m repro telemetry report out.jsonl

    # verification-as-a-service (see docs/SERVE.md)
    python -m repro serve --port 8765 --cache-backend sqlite:shared.db
    python -m repro client search fig1                # == `repro search --json`
    python -m repro client status

    # fan-out: one shard per process/machine into one shared cache dir,
    # then `campaign status` merges the shard ledgers into one union view
    python -m repro campaign run --spec paper-battery --shard 2/3 --cache-dir /shared
    python -m repro campaign status --cache-dir /shared --json

The grid-shaped commands (``fig2``, ``fig3``, ``theorem3``, ``gen``) run
``paper-battery``'s own tasks through the campaign runner; for ``fig3``,
``theorem3`` and ``gen``, ``--jobs``/``--cache-dir`` parallelise and
memoise them.  ``search``/``classify``/``campaign run``/``lint`` accept
``--telemetry PATH`` (JSONL event stream) and ``--telemetry-snapshot
PATH`` (end-of-run metrics snapshot).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator, Sequence
from contextlib import contextmanager

#: ``--search-engine`` choices: a literal copy of
#: :data:`repro.analysis.reachability.SEARCH_ENGINES` (pinned equal by the
#: tests), because importing the analysis stack here would tax the
#: start-up of every command
SEARCH_ENGINES = ("kernel", "reference")


@contextmanager
def _telemetry_session(args: argparse.Namespace, command: str) -> Iterator[None]:
    """Enable telemetry for one CLI invocation when flags ask for it.

    Sets ``REPRO_TELEMETRY=on`` in the environment (so campaign worker
    processes inherit it), attaches a JSONL exporter for ``--telemetry``,
    wraps the command in a root span, and writes the final registry
    snapshot for ``--telemetry-snapshot``.  Without either flag this is
    a straight pass-through: no collector, no exporter, nothing.
    """
    telemetry_path = getattr(args, "telemetry", None)
    snapshot_path = getattr(args, "telemetry_snapshot", None)
    if not telemetry_path and not snapshot_path:
        yield
        return

    import repro.obs as obs

    prev_env = os.environ.get(obs.ENV_VAR)
    os.environ[obs.ENV_VAR] = "on"
    tel = obs.get()
    assert tel is not None
    exporter = obs.JsonlExporter(telemetry_path) if telemetry_path else None
    if exporter is not None:
        tel.add_sink(exporter)
    name = f"repro.{command}"
    tel.run_start(name, argv=list(sys.argv[1:]))
    prev_trace = os.environ.get(obs.TRACE_ENV)
    try:
        with tel.span(name) as root:
            # the REPRO_TRACE carrier joins spawned worker processes
            # (campaign pools) to this invocation's trace
            obs.inject_env(root.context())
            yield
    finally:
        tel.run_end(name)
        if prev_trace is None:
            os.environ.pop(obs.TRACE_ENV, None)
        else:
            os.environ[obs.TRACE_ENV] = prev_trace
        if snapshot_path:
            obs.write_snapshot(tel, snapshot_path)
        if exporter is not None:
            tel.remove_sink(exporter)
            exporter.close()
        obs.reset()
        if prev_env is None:
            os.environ.pop(obs.ENV_VAR, None)
        else:
            os.environ[obs.ENV_VAR] = prev_env


def _parse_scenario_params(args: argparse.Namespace, command: str) -> dict | None:
    """Validate the ``<scenario> --params JSON`` argument pair (or None)."""
    import json as _json

    from repro.campaign.scenarios import scenario_names

    if args.scenario not in scenario_names():
        print(
            f"{command}: unknown scenario {args.scenario!r}; registered: "
            f"{', '.join(scenario_names())}",
            file=sys.stderr,
        )
        return None
    try:
        params = _json.loads(args.params)
    except _json.JSONDecodeError as exc:
        print(f"{command}: --params is not valid JSON: {exc}", file=sys.stderr)
        return None
    if not isinstance(params, dict):
        print(f"{command}: --params must be a JSON object", file=sys.stderr)
        return None
    return params


def _certificate_note(code: str | None, short_circuited: bool) -> str | None:
    """Human-readable account of the static-certificate fast path."""
    if code is None:
        return None
    if short_circuited:
        return f"decided by static certificate {code} (search skipped)"
    return f"confirmed by static certificate {code}"


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.analysis import SystemSpec, search_deadlock
    from repro.analysis.reachability import SearchLimitExceeded
    from repro.campaign.scenarios import build_scenario
    from repro.experiments import render_kv

    params = _parse_scenario_params(args, "search")
    if params is None:
        return 2
    try:
        bundle = build_scenario(args.scenario, params)
    except Exception as exc:  # noqa: BLE001 - reported, drives exit code
        print(f"search: scenario build failed: {exc}", file=sys.stderr)
        return 2
    if not bundle.messages:
        print(
            f"search: scenario {args.scenario!r} exposes no message set",
            file=sys.stderr,
        )
        return 2
    spec = SystemSpec.uniform(bundle.messages, budget=args.budget)
    try:
        res = search_deadlock(
            spec,
            max_states=args.max_states,
            find_witness=args.witness,
            engine=args.search_engine,
        )
    except SearchLimitExceeded as exc:
        print(f"search: {exc}", file=sys.stderr)
        return 2
    verdict = "deadlock" if res.deadlock_reachable else "unreachable"
    note = _certificate_note(res.certificate, res.states_explored == 0)

    if args.json:
        # built by the same function the serve API uses, so a cold
        # /v1/search response body stays byte-identical to this output
        from repro.serve.payloads import dumps, search_payload

        payload = search_payload(
            scenario=args.scenario,
            params=params,
            budget=args.budget,
            verdict=verdict,
            deadlock_reachable=res.deadlock_reachable,
            states_explored=res.states_explored,
            certificate=res.certificate,
            witness_cycles=(
                None if res.witness is None else res.witness.num_cycles
            ),
        )
        print(dumps(payload))
        return 0

    rows = {
        "scenario": args.scenario,
        "messages": len(bundle.messages),
        "budget": args.budget,
        "verdict": verdict,
        "states explored": res.states_explored,
    }
    if note is not None:
        rows["certificate"] = note
    print(render_kv(rows, title="deadlock reachability search"))
    if res.witness is not None:
        print()
        print(res.witness.render())
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    import json as _json

    from repro.analysis.classify import classify_configuration, classify_cycle
    from repro.analysis.reachability import SearchLimitExceeded
    from repro.campaign.scenarios import build_scenario
    from repro.experiments import render_kv

    params = _parse_scenario_params(args, "classify")
    if params is None:
        return 2
    try:
        bundle = build_scenario(args.scenario, params)
    except Exception as exc:  # noqa: BLE001 - reported, drives exit code
        print(f"classify: scenario build failed: {exc}", file=sys.stderr)
        return 2

    if bundle.cycle_classify is not None:
        alg, cycle, pairs = bundle.cycle_classify
        try:
            cls = classify_cycle(
                alg,
                cycle,
                pairs=pairs,
                length_slack=args.length_slack,
                extra_copies=args.extra_copies,
                budget=args.budget,
                max_states=args.max_states,
                engine=args.search_engine,
            )
        except SearchLimitExceeded as exc:
            print(f"classify: {exc}", file=sys.stderr)
            return 2
        verdict = "deadlock" if cls.deadlock_reachable else "false-resource-cycle"
        note = _certificate_note(cls.certificate, cls.scenarios_tested == 0)
        if args.json:
            payload = {
                "scenario": args.scenario,
                "params": params,
                "mode": "cycle",
                "verdict": verdict,
                "deadlock_reachable": cls.deadlock_reachable,
                "tilings_tested": cls.tilings_tested,
                "scenarios_tested": cls.scenarios_tested,
                "certificate": cls.certificate,
                "notes": cls.notes,
            }
            print(_json.dumps(payload, indent=2))
            return 0
        rows = {
            "scenario": args.scenario,
            "mode": "CDG cycle",
            "cycle channels": len(cls.cycle),
            "verdict": verdict,
            "tilings tested": cls.tilings_tested,
            "scenarios tested": cls.scenarios_tested,
        }
        if note is not None:
            rows["certificate"] = note
        print(render_kv(rows, title="cycle classification"))
        for line in cls.notes:
            print(f"  note: {line}")
        return 0

    if not bundle.messages:
        print(
            f"classify: scenario {args.scenario!r} exposes neither a CDG "
            "cycle nor a message set",
            file=sys.stderr,
        )
        return 2
    try:
        reachable, res = classify_configuration(
            bundle.messages,
            budget=args.budget,
            length_slack=args.length_slack,
            max_states=args.max_states,
            engine=args.search_engine,
        )
    except SearchLimitExceeded as exc:
        print(f"classify: {exc}", file=sys.stderr)
        return 2
    verdict = "deadlock" if reachable else "unreachable"
    note = _certificate_note(res.certificate, res.states_explored == 0)
    if args.json:
        payload = {
            "scenario": args.scenario,
            "params": params,
            "mode": "configuration",
            "verdict": verdict,
            "deadlock_reachable": reachable,
            "states_explored": res.states_explored,
            "certificate": res.certificate,
        }
        print(_json.dumps(payload, indent=2))
        return 0
    rows = {
        "scenario": args.scenario,
        "mode": "configuration",
        "messages": len(bundle.messages),
        "verdict": verdict,
        "states explored": res.states_explored,
    }
    if note is not None:
        rows["certificate"] = note
    print(render_kv(rows, title="configuration classification"))
    return 0


def _cmd_telemetry_report(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.report import EventStreamError, render, summarize

    try:
        report = summarize(args.events)
    except (EventStreamError, OSError) as exc:
        print(f"telemetry report: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(report.to_json(), indent=2))
    else:
        print(render(report, top=args.top))
    if args.strict and not report.schema_valid:
        return 1
    return 0


def _cmd_telemetry_trace(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.report import (
        EventStreamError,
        build_span_tree,
        read_events,
        render_span_tree,
        trace_ids,
    )

    try:
        events, _bad = read_events(args.events)
    except (EventStreamError, OSError) as exc:
        print(f"telemetry trace: {exc}", file=sys.stderr)
        return 2
    ids = trace_ids(events)
    if args.trace_id is None:
        if not ids:
            print(
                "telemetry trace: no trace ids in the stream "
                "(pre-v2 recording?)",
                file=sys.stderr,
            )
            return 2
        if args.json:
            print(_json.dumps({"traces": ids}, indent=2))
        else:
            for tid, spans in ids.items():
                print(f"{tid}  {spans} span{'s' if spans != 1 else ''}")
        return 0
    matches = [t for t in ids if t == args.trace_id or t.startswith(args.trace_id)]
    if not matches:
        print(
            f"telemetry trace: no trace {args.trace_id!r} in {args.events} "
            f"({len(ids)} trace{'s' if len(ids) != 1 else ''} present; run "
            "without an id to list them)",
            file=sys.stderr,
        )
        return 2
    if len(matches) > 1:
        print(
            f"telemetry trace: prefix {args.trace_id!r} is ambiguous "
            f"({len(matches)} matches)",
            file=sys.stderr,
        )
        return 2
    roots = build_span_tree(events, matches[0])
    if args.json:
        print(
            _json.dumps(
                {"trace": matches[0], "roots": [r.to_json() for r in roots]},
                indent=2,
            )
        )
    else:
        print(render_span_tree(roots, matches[0]))
    return 0


def _cmd_telemetry_tail(args: argparse.Namespace) -> int:
    from repro.obs.tail import follow

    try:
        for line in follow(
            args.events,
            rollup_every_s=args.rollup,
            from_start=not args.new_only,
        ):
            print(line.text, flush=True)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    from repro.experiments import render_table, run_fig1_experiment

    res = run_fig1_experiment(
        max_delay=args.max_delay,
        engine=args.search_engine,
    )
    print(render_table(res.summary_rows(), title="E1: Figure 1 / Theorem 1"))
    print()
    print("\n".join(res.narrative))
    print(f"\nmin delay to deadlock: {res.min_delay_to_deadlock}")
    print(f"matches paper: {res.matches_paper}")
    return 0 if res.matches_paper else 1


def _cmd_fig2(args: argparse.Namespace) -> int:
    from repro.experiments import render_table, run_fig2_experiment

    res = run_fig2_experiment()
    print(render_table(res.sweep_rows, title="E2: Figure 2 / Theorem 4 sweep"))
    print(f"\nall configurations deadlock: {res.all_sweep_deadlock}")
    print(f"proof's injection order reproduced: {res.longer_approach_injected_first}")
    return 0 if res.matches_paper else 1


def _cmd_fig3(args: argparse.Namespace) -> int:
    from repro.experiments import render_table
    from repro.experiments.fig3 import run_condition_sweep, run_fig3_experiment

    panels = run_fig3_experiment(jobs=args.jobs, cache_dir=args.cache_dir)
    print(render_table([r.row() for r in panels], title="E3: Figure 3 / Theorem 5"))
    ok = all(r.search_matches_paper and r.conditions_match_search for r in panels)
    if args.sweep:
        sweep = run_condition_sweep(
            samples=args.sweep, jobs=args.jobs, cache_dir=args.cache_dir
        )
        print(
            f"\ncondition sweep: agree on {sweep.agree}/{sweep.total} "
            f"random configurations"
        )
        for d in sweep.disagreements:
            print(f"  disagreement: {d}")
        ok = ok and sweep.rate == 1.0
    return 0 if ok else 1


def _cmd_theorem2(args: argparse.Namespace) -> int:
    from repro.experiments import render_table
    from repro.experiments.theorem2 import run_corollary_baselines, run_theorem2_experiment

    res = run_theorem2_experiment()
    print(render_table(res.overlap_rows, title="E4: Theorem 2 overlap configurations"))
    rows = run_corollary_baselines()
    print()
    print(render_table(rows, title="E4: Corollary 1-3 baselines"))
    return 0 if res.all_deadlock else 1


def _cmd_theorem3(args: argparse.Namespace) -> int:
    from repro.experiments import render_kv, run_theorem3_experiment

    res = run_theorem3_experiment(
        limit=args.limit, jobs=args.jobs, cache_dir=args.cache_dir
    )
    print(render_kv(res.summary(), title="E5: Theorem 3 sweep"))
    print()
    print(render_kv(res.fig1_slack, title="Figure 1 per-pair excess hops (nonminimality)"))
    return 0 if res.theorem_holds and res.fig1_certified_nonminimal else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    from repro.experiments import render_table, run_generalization_experiment

    res = run_generalization_experiment(
        tuple(range(1, args.max_m + 1)), jobs=args.jobs, cache_dir=args.cache_dir
    )
    print(render_table(res.rows(), title="E6: Gen(m) minimum delay to deadlock"))
    print(f"strictly increasing: {res.strictly_increasing}")
    return 0 if res.strictly_increasing else 1


def _cmd_traffic(args: argparse.Namespace) -> int:
    from repro.experiments import render_table
    from repro.experiments.traffic import run_ring_deadlock_probe, run_traffic_experiment

    pts = run_traffic_experiment(rates=tuple(args.rates))
    print(render_table([p.row() for p in pts], title="V1: traffic baselines"))
    probe = run_ring_deadlock_probe()
    print()
    print(render_table([probe.row()], title="V1: ring positive control"))
    return 0 if probe.deadlocked and all(not p.deadlocked for p in pts) else 1


def _cmd_dot(args: argparse.Namespace) -> int:
    from repro.cdg import build_cdg, find_cycles
    from repro.core.cyclic_dependency import build_cyclic_dependency_network
    from repro.viz import cdg_to_dot, network_to_dot

    cdn = build_cyclic_dependency_network()
    if args.what == "fig1-network":
        print(network_to_dot(cdn.network, highlight=cdn.cycle_channels))
    elif args.what == "fig1-cdg":
        cdg = build_cdg(cdn.algorithm)
        cycle = find_cycles(cdg).cycles[0]
        print(cdg_to_dot(cdg, cycle=cycle, name="fig1_cdg"))
    else:  # pragma: no cover - argparse restricts choices
        return 2
    return 0


def _default_ledger(cache_dir: str, spec: str) -> str:
    from pathlib import Path

    return str(Path(cache_dir) / "ledgers" / f"{spec}.jsonl")


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import (
        ProgressReporter,
        RunLedger,
        RunnerConfig,
        build_spec,
        make_backend,
        run_campaign,
    )
    from repro.experiments import render_kv

    try:
        tasks = build_spec(args.spec, limit=args.limit)
        shard = None
        if args.shard:
            from repro.campaign import parse_shard, shard_tasks

            shard = parse_shard(args.shard)
            tasks = shard_tasks(tasks, *shard)
        config = RunnerConfig(
            max_workers=args.jobs,
            task_timeout=args.timeout,
            retries=args.retries,
            engine=args.search_engine,
        )
        cache = (
            None
            if args.no_cache
            else make_backend(args.cache_backend, default_dir=args.cache_dir)
        )
    except (KeyError, ValueError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2
    spec_label = args.spec if shard is None else f"{args.spec}-shard{shard[0]}of{shard[1]}"
    ledger_path = args.ledger or _default_ledger(args.cache_dir, spec_label)
    with RunLedger(ledger_path) as ledger:
        _, summary = run_campaign(
            tasks,
            cache=cache,
            ledger=ledger,
            progress=ProgressReporter(len(tasks), enabled=not args.no_progress),
            config=config,
            spec_name=spec_label,
        )
    rows = summary.rows()
    rows["ledger"] = ledger_path
    if cache is not None:
        rows["cache"] = args.cache_backend or args.cache_dir
        rows["cache hit rate"] = f"{cache.stats.hit_rate:.0%}"
    print(render_kv(rows, title=f"campaign: {spec_label}"))
    for mismatch in summary.expect_mismatches:
        print(f"  MISMATCH {mismatch}")
    return 0 if summary.all_expected else 1


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.campaign import make_backend, read_ledger
    from repro.experiments import render_kv, render_table

    # the primary backend (the --cache-dir directory store unless
    # --cache-backend points elsewhere) plus any extra --cache-backend
    # specs, each integrity-scanned for corrupt / stale-salt entries
    backend_specs = list(args.cache_backend or [args.cache_dir])
    try:
        backends = [
            (spec, make_backend(spec, default_dir=args.cache_dir))
            for spec in backend_specs
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = backends[0][1]

    ledger_dir = Path(args.cache_dir) / "ledgers"
    rows = []
    ledgers_json = []
    merged: dict[str, bool] = {}  # task_hash -> ok of latest execution
    tele_counters: dict[str, float] = {}
    tele_tasks = 0
    for path in sorted(ledger_dir.glob("*.jsonl")):
        results, summaries = read_ledger(path)
        last = summaries[-1] if summaries else {}
        for res in results:
            merged[res.task_hash] = res.ok
            if res.telemetry:
                tele_tasks += 1
                for key, value in res.telemetry.get("counters", {}).items():
                    tele_counters[key] = tele_counters.get(key, 0) + value
        rows.append(
            {
                "ledger": path.name,
                "results": len(results),
                "distinct tasks": len({r.task_hash for r in results}),
                "runs": len(summaries),
                "last wall (s)": last.get("wall_time", "-"),
                "last cache hits": last.get("from_cache", "-"),
                "last failed": last.get("failed", "-"),
                "last matches": (
                    "-" if not last
                    else not last.get("expect_mismatches") and not last.get("failed")
                ),
            }
        )
        ledgers_json.append(
            {
                "ledger": path.name,
                "results": len(results),
                "distinct_tasks": len({r.task_hash for r in results}),
                "runs": len(summaries),
            }
        )
    ok = sum(1 for good in merged.values() if good)

    if args.json:
        scans = [(spec, be, be.integrity()) for spec, be in backends]
        payload = {
            "cache_dir": args.cache_dir,
            "backends": [
                {
                    "spec": spec,
                    "backend": type(be).__name__,
                    "entries": len(be),
                    "integrity": report.to_json(),
                }
                for spec, be, report in scans
            ],
            "ledgers": ledgers_json,
            "merged": {
                "distinct_tasks": len(merged),
                "ok": ok,
                "failed": len(merged) - ok,
            },
            "telemetry_rollup": {
                "tasks": tele_tasks,
                "counters": {
                    k: round(tele_counters[k], 6) for k in sorted(tele_counters)
                },
            },
        }
        print(_json.dumps(payload, indent=2))
        return 0 if all(report.healthy for _, _, report in scans) else 1

    integrity = cache.integrity()
    print(render_kv(
        {
            "cache": backend_specs[0],
            "backend": type(cache).__name__,
            "cached results": len(cache),
            "schema salt": integrity.salt,
            "corrupt": integrity.corrupt,
            "stale salt": integrity.stale_salt,
        },
        title="campaign cache",
    ))
    for spec, be in backends[1:]:
        extra = be.integrity()
        print()
        print(render_kv(
            {
                "cache": spec,
                "backend": type(be).__name__,
                "cached results": len(be),
                "schema salt": extra.salt,
                "corrupt": extra.corrupt,
                "stale salt": extra.stale_salt,
            },
            title="extra cache backend",
        ))
    print()
    print(render_table(rows, title="campaign ledgers"))
    if rows:
        # the union view is how sharded runs (--shard i/n) are merged:
        # shards share the cache and write disjoint hash-keyed ledgers
        print()
        print(render_kv(
            {"distinct tasks": len(merged), "ok": ok, "failed": len(merged) - ok},
            title="merged across ledgers",
        ))
    if tele_counters:
        # roll-up of the per-task telemetry summaries embedded in ledger
        # records by runs executed with REPRO_TELEMETRY on
        rollup = {"task executions with telemetry": tele_tasks}
        rollup.update(
            {k: round(tele_counters[k], 6) for k in sorted(tele_counters)}
        )
        print()
        print(render_kv(rollup, title="telemetry roll-up"))
    return 0


def _cmd_campaign_trend(args: argparse.Namespace) -> int:
    from repro.campaign import compare_ledgers
    from repro.experiments import render_kv, render_table

    try:
        report = compare_ledgers(
            args.old, args.new,
            threshold=args.threshold,
            min_seconds=args.min_seconds,
            states_threshold=args.states_threshold,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_kv(report.summary_rows(), title="campaign trend"))
    if report.regressions:
        print()
        print(render_table(
            [ln.row() for ln in report.regressions],
            title=f"regressions (> {report.threshold:g}x)",
        ))
    if report.improvements:
        print()
        print(render_table(
            [ln.row() for ln in report.improvements],
            title=f"improvements (< 1/{report.threshold:g}x)",
        ))
    if report.states_regressions:
        print()
        print(render_table(
            [ln.row() for ln in report.states_regressions],
            title=f"search-work regressions (states > {report.states_threshold:g}x)",
        ))
    return 0 if report.ok else 1


def _cmd_campaign_clean(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.campaign import ResultCache

    removed = ResultCache(args.cache_dir).clear()
    msg = f"removed {removed} cached results"
    if args.ledgers:
        n = 0
        for path in (Path(args.cache_dir) / "ledgers").glob("*.jsonl"):
            path.unlink()
            n += 1
        msg += f" and {n} ledgers"
    print(msg + f" from {args.cache_dir}")
    return 0


#: task parameters that tune the *analysis*, not the scenario geometry --
#: dropped when deriving lint targets from a campaign spec so each distinct
#: construction is linted once
_ANALYSIS_ONLY_PARAMS = frozenset(
    {"max_states", "max_delay", "budget", "length_slack", "extra_copies",
     "copy_depth", "max_cycles", "rate", "cycles", "length", "seed", "msgs"}
)


def _lint_one(scenario: str, params: dict, *, max_cycles: int):
    """Build one scenario and lint it (algorithm if exposed, else messages)."""
    from repro.campaign.scenarios import build_scenario
    from repro.lint import lint_algorithm, lint_messages

    bundle = build_scenario(scenario, params)
    ps = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    target = f"{scenario}({ps})" if ps else scenario
    if bundle.algorithm is not None:
        return lint_algorithm(bundle.algorithm, name=target, max_cycles=max_cycles)
    if bundle.messages:
        return lint_messages(bundle.messages, name=target)
    raise ValueError(f"scenario {scenario!r} exposes nothing to lint")


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as _json

    from repro.campaign.scenarios import scenario_names

    if bool(args.scenario) == bool(args.all):
        print("lint: give exactly one of <scenario> or --all", file=sys.stderr)
        return 2

    targets: list[tuple[str, dict]] = []
    if args.all:
        from repro.campaign.specs import build_spec

        seen: set[str] = set()
        for task in build_spec(args.spec):
            if task.scenario.startswith("debug-"):
                continue
            params = {
                k: v
                for k, v in task.params_dict().items()
                if k not in _ANALYSIS_ONLY_PARAMS
            }
            key = _json.dumps([task.scenario, params], sort_keys=True, default=str)
            if key in seen:
                continue
            seen.add(key)
            targets.append((task.scenario, params))
    else:
        if args.scenario not in scenario_names():
            print(
                f"lint: unknown scenario {args.scenario!r}; registered: "
                f"{', '.join(scenario_names())}",
                file=sys.stderr,
            )
            return 2
        try:
            params = _json.loads(args.params)
        except _json.JSONDecodeError as exc:
            print(f"lint: --params is not valid JSON: {exc}", file=sys.stderr)
            return 2
        if not isinstance(params, dict):
            print("lint: --params must be a JSON object", file=sys.stderr)
            return 2
        targets.append((args.scenario, params))

    reports = []
    exit_code = 0
    for scenario, params in targets:
        try:
            report = _lint_one(scenario, params, max_cycles=args.max_cycles)
        except Exception as exc:  # noqa: BLE001 - reported, drives exit code
            print(f"lint {scenario}{params}: build failed: {exc}", file=sys.stderr)
            return 2
        reports.append(report)
        exit_code = max(exit_code, report.exit_code)

    if getattr(args, "sarif", None):
        from pathlib import Path

        from repro.lint.sarif import sarif_log

        log = sarif_log(reports)
        Path(args.sarif).write_text(_json.dumps(log, indent=2) + "\n")
        print(f"wrote SARIF log ({len(log['runs'][0]['results'])} results) "
              f"to {args.sarif}", file=sys.stderr)

    if args.json:
        payload = [r.to_json() for r in reports]
        print(_json.dumps(payload[0] if not args.all else payload, indent=2))
    else:
        for report in reports:
            print(report.render(verbose=args.verbose))
        if args.all:
            decided = sum(1 for r in reports if r.verdict != "undecided")
            errors = sum(len(r.errors) for r in reports)
            print(
                f"\n{len(reports)} targets linted: {decided} certificate-decided, "
                f"{errors} error-severity finding(s)"
            )
    return exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ReproServer, ServeConfig

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            cache_backend=args.cache_backend,
            hot_capacity=args.hot_capacity,
            window=args.window_ms / 1000.0,
            jobs=args.jobs,
            search_engine=args.search_engine,
            retries=args.retries,
            task_timeout=args.timeout,
            telemetry=not args.no_telemetry,
        )
        server = ReproServer(config)
    except (KeyError, ValueError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    try:
        server.run(announce=print)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve import ServeClient, ServeError

    cmd = args.client_command
    try:
        client = ServeClient(args.url, timeout=args.http_timeout)
        if cmd in ("search", "classify", "lint"):
            try:
                params = _json.loads(args.params)
            except _json.JSONDecodeError as exc:
                print(f"client: --params is not valid JSON: {exc}", file=sys.stderr)
                return 2
            if cmd == "search":
                knobs = {"budget": args.budget, "max_states": args.max_states}
            elif cmd == "classify":
                knobs = {
                    "budget": args.budget,
                    "max_states": args.max_states,
                    "length_slack": args.length_slack,
                    "extra_copies": args.extra_copies,
                }
            else:
                knobs = {"max_cycles": args.max_cycles}
            resp = getattr(client, cmd)(args.scenario, params, **knobs)
            if not resp.ok:
                detail = (
                    resp.payload.get("error", "")
                    if isinstance(resp.payload, dict)
                    else ""
                )
                print(f"client {cmd}: HTTP {resp.status}: {detail}", file=sys.stderr)
                return 1 if resp.status >= 500 else 2
            # the raw response body: for `search`, byte-identical to
            # `repro search --json`; classify/lint use the campaign's shape
            sys.stdout.write(resp.body.decode("utf-8"))
            if args.show_source:
                print(f"source: {resp.source} ({resp.task_hash})", file=sys.stderr)
            return 0
        if cmd == "campaign":
            resp = client.campaign(
                args.spec, limit=args.limit, shard=args.shard
            ).raise_for_status()
            print(_json.dumps(resp.payload, indent=2))
            return 0 if resp.payload.get("failed", 0) == 0 else 1
        if cmd == "status":
            resp = client.status().raise_for_status()
            print(_json.dumps(resp.payload, indent=2))
            return 0
        if cmd == "metrics":
            sys.stdout.write(client.metrics())
            return 0
        if cmd == "events":
            for event in client.events(
                max_events=args.max_events, timeout=args.listen
            ):
                print(_json.dumps(event, sort_keys=True))
            return 0
    except ServeError as exc:
        print(f"client {cmd}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            f"client {cmd}: cannot reach {args.url}: {exc} "
            "(is `python -m repro serve` running?)",
            file=sys.stderr,
        )
        return 1
    return 2  # pragma: no cover - argparse restricts choices


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Schwiebert (SPAA 1997): deadlock-free oblivious "
        "wormhole routing with cyclic dependencies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_search_engine_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--search-engine", default=None,
            choices=SEARCH_ENGINES,
            help="reachability search engine (default: REPRO_SEARCH_ENGINE, "
            "else the compiled 'kernel'; 'kernel' falls back loudly to "
            "'reference' when no C compiler is available or a spec has "
            "more than 64 messages); 'reference' is the oracle.  Both "
            "engines are pinned bit-identical, so this is purely an "
            "execution knob",
        )

    def add_telemetry_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--telemetry", default=None, metavar="PATH",
            help="stream telemetry events to this JSONL file (implies "
            "REPRO_TELEMETRY=on; see docs/OBSERVABILITY.md)",
        )
        p.add_argument(
            "--telemetry-snapshot", default=None, metavar="PATH",
            help="write the end-of-run metrics snapshot (counters, gauges, "
            "span aggregates) to this JSON file",
        )

    p = sub.add_parser("fig1", help="Figure 1 / Theorem 1 battery")
    p.add_argument("--max-delay", type=int, default=3)
    add_search_engine_flag(p)
    p.set_defaults(fn=_cmd_fig1)

    p = sub.add_parser("fig2", help="Figure 2 / Theorem 4 sweep")
    p.set_defaults(fn=_cmd_fig2)

    def add_runner_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", type=int, default=1,
            help="parallel worker processes for the grid (default 1: serial)",
        )
        p.add_argument(
            "--cache-dir", default=None,
            help="reuse/populate a campaign result cache at this directory",
        )

    p = sub.add_parser("fig3", help="Figure 3 / Theorem 5 panels")
    p.add_argument("--sweep", type=int, default=0, help="random sweep sample count")
    add_runner_flags(p)
    p.set_defaults(fn=_cmd_fig3)

    p = sub.add_parser("theorem2", help="Theorem 2 + corollary baselines")
    p.set_defaults(fn=_cmd_theorem2)

    p = sub.add_parser("theorem3", help="Theorem 3 minimal-routing sweep")
    p.add_argument("--limit", type=int, default=40)
    add_runner_flags(p)
    p.set_defaults(fn=_cmd_theorem3)

    p = sub.add_parser("gen", help="Section 6 generalisation delay profile")
    p.add_argument("--max-m", type=int, default=2)
    add_runner_flags(p)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("traffic", help="simulator-validation traffic runs")
    p.add_argument("--rates", type=float, nargs="+", default=[0.02, 0.06])
    p.set_defaults(fn=_cmd_traffic)

    p = sub.add_parser("dot", help="emit Graphviz DOT renderings")
    p.add_argument("what", choices=["fig1-network", "fig1-cdg"])
    p.set_defaults(fn=_cmd_dot)

    p = sub.add_parser(
        "search",
        help="deadlock reachability search over one registered scenario",
        description="Run the exhaustive BFS (with the static-certificate "
        "pre-pass) over a registered scenario's message set.  The output "
        "names the deciding certificate (e.g. CRT001) whenever the static "
        "fast path short-circuited or confirmed the verdict.",
    )
    p.add_argument(
        "scenario",
        help="registered scenario name (see repro.campaign.scenarios)",
    )
    p.add_argument(
        "--params", default="{}",
        help='scenario parameters as a JSON object, e.g. \'{"subset": ["M1"]}\'',
    )
    p.add_argument("--budget", type=int, default=0, help="per-message stall budget")
    p.add_argument(
        "--max-states", type=int, default=4_000_000, help="state-count cap"
    )
    p.add_argument(
        "--witness", action="store_true",
        help="reconstruct and print a replayable deadlock witness",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    add_search_engine_flag(p)
    add_telemetry_flags(p)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser(
        "classify",
        help="classify a scenario: reachable deadlock vs false resource cycle",
        description="Full-adversary classification of a registered scenario: "
        "its CDG cycle when it exposes one (cycle tilings swept through the "
        "reachability search), otherwise its message set.  Static "
        "certificate codes are surfaced in both text and JSON output.",
    )
    p.add_argument(
        "scenario",
        help="registered scenario name (see repro.campaign.scenarios)",
    )
    p.add_argument(
        "--params", default="{}",
        help='scenario parameters as a JSON object, e.g. \'{"n": 4}\'',
    )
    p.add_argument("--budget", type=int, default=0, help="per-message stall budget")
    p.add_argument(
        "--length-slack", type=int, default=0,
        help="sweep message lengths up to this far above minimum",
    )
    p.add_argument(
        "--extra-copies", type=int, default=1,
        help="cycle mode: also test up to this many duplicate messages",
    )
    p.add_argument(
        "--max-states", type=int, default=2_000_000, help="per-search state cap"
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    add_search_engine_flag(p)
    add_telemetry_flags(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser(
        "telemetry",
        help="inspect telemetry event streams (report/trace/tail)",
    )
    tsub = p.add_subparsers(dest="telemetry_command", required=True)
    tr = tsub.add_parser(
        "report",
        help="validate + summarise a telemetry JSONL event stream",
        description="Re-aggregate a --telemetry event stream: per-span "
        "timing, counter totals, campaign per-task wall times and cache "
        "hit rate -- everything rebuilt from the events alone.",
    )
    tr.add_argument("events", help="telemetry event stream (JSONL)")
    tr.add_argument("--json", action="store_true", help="machine-readable output")
    tr.add_argument(
        "--strict", action="store_true",
        help="exit 1 if any event violates the documented schema",
    )
    tr.add_argument(
        "--top", type=int, default=10,
        help="how many slowest campaign tasks to list (default 10)",
    )
    tr.set_defaults(fn=_cmd_telemetry_report)

    tt = tsub.add_parser(
        "trace",
        help="reassemble one trace's span tree from an event stream",
        description="Pair span_start/span_end events sharing a trace id "
        "(possibly merged from serve, client and worker streams) into one "
        "rooted span tree.  Without a trace id, lists the ids present.",
    )
    tt.add_argument("events", help="telemetry event stream (JSONL)")
    tt.add_argument(
        "trace_id", nargs="?", default=None,
        help="32-hex trace id (a unique prefix works); omit to list",
    )
    tt.add_argument("--json", action="store_true", help="machine-readable output")
    tt.set_defaults(fn=_cmd_telemetry_trace)

    tl = tsub.add_parser(
        "tail",
        help="follow a telemetry JSONL file live (tail -f with rollups)",
        description="Follow an event stream as it is written: one formatted "
        "line per event plus a periodic rollup (event/trace/search totals, "
        "cache hit rate, p95 search seconds).  Survives truncation and "
        "waits for the file to appear.  Ctrl-C exits cleanly.",
    )
    tl.add_argument("events", help="telemetry event stream (JSONL)")
    tl.add_argument(
        "--rollup", type=float, default=5.0, metavar="S",
        help="seconds between rollup lines (default 5)",
    )
    tl.add_argument(
        "--new-only", action="store_true",
        help="start at end-of-file instead of replaying existing events",
    )
    tl.set_defaults(fn=_cmd_telemetry_tail)

    p = sub.add_parser(
        "lint",
        help="static deadlock linter (rule diagnostics + certificates)",
        description="Run the static routing linter over one registered "
        "scenario or every distinct construction of a campaign spec. "
        "Exit code 0: no error-severity findings; 1: errors found; "
        "2: usage or build failure.",
    )
    p.add_argument(
        "scenario", nargs="?", default=None,
        help="registered scenario name (see repro.campaign.scenarios)",
    )
    p.add_argument(
        "--params", default="{}",
        help='scenario parameters as a JSON object, e.g. \'{"n": 4}\'',
    )
    p.add_argument(
        "--all", action="store_true",
        help="lint every distinct construction in --spec instead",
    )
    p.add_argument(
        "--spec", default="paper-battery",
        help="campaign spec to derive --all targets from (default: paper-battery)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--sarif", default=None, metavar="PATH",
        help="also write diagnostics as a SARIF 2.1.0 log to PATH",
    )
    p.add_argument(
        "--verbose", action="store_true", help="print per-diagnostic evidence"
    )
    p.add_argument(
        "--max-cycles", type=int, default=10_000,
        help="cap on CDG cycle enumeration (truncation is itself reported)",
    )
    add_telemetry_flags(p)
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "serve",
        help="verification-as-a-service: async HTTP/JSON API over the campaign "
        "runner (see docs/SERVE.md)",
        description="Start a long-lived HTTP server answering /v1/search, "
        "/v1/classify, /v1/lint and /v1/campaign from a tiered result cache, "
        "micro-batching cold misses through the campaign runner.  /v1/events "
        "streams live telemetry as NDJSON.  To fan a spec out over machines, "
        "run `campaign run --shard I/N` on each into one shared cache.",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8765, help="listen port (0 = OS-assigned)"
    )
    p.add_argument(
        "--cache-backend", default=None, metavar="SPEC",
        help="durable cache tier: dir:PATH, sqlite:PATH, memory[:N], or a bare "
        "directory path (default: dir:.campaign-cache)",
    )
    p.add_argument(
        "--hot-capacity", type=int, default=1024, metavar="N",
        help="entries held by the in-memory hot tier (0 disables tiering; "
        "default 1024)",
    )
    p.add_argument(
        "--window-ms", type=float, default=20.0, metavar="MS",
        help="micro-batching window: concurrent cold misses arriving within "
        "this window run as one campaign batch (default 20ms)",
    )
    p.add_argument("--jobs", type=int, default=1, help="campaign worker processes")
    p.add_argument(
        "--retries", type=int, default=0, help="retries per failed task (default 0)"
    )
    p.add_argument(
        "--timeout", type=float, default=None, help="per-task wall-clock timeout (s)"
    )
    p.add_argument(
        "--no-telemetry", action="store_true",
        help="disable the telemetry collector (and the /v1/events stream)",
    )
    add_search_engine_flag(p)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "client",
        help="talk to a running `repro serve` instance",
        description="Query a serve instance: task verdicts (search output "
        "is byte-identical to the local `search --json`), campaign runs "
        "(whole or one shard), status, metrics, or the telemetry event stream.",
    )
    p.add_argument(
        "--url", default="http://127.0.0.1:8765", help="server base URL"
    )
    p.add_argument(
        "--http-timeout", type=float, default=300.0,
        help="per-request timeout in seconds (default 300)",
    )
    ksub = p.add_subparsers(dest="client_command", required=True)

    def add_client_scenario_args(kp: argparse.ArgumentParser) -> None:
        kp.add_argument("scenario", help="registered scenario name")
        kp.add_argument(
            "--params", default="{}", help="scenario parameters as a JSON object"
        )
        kp.add_argument(
            "--show-source", action="store_true",
            help="print the X-Repro-Source provenance header to stderr",
        )
        kp.set_defaults(fn=_cmd_client)

    kp = ksub.add_parser("search", help="POST /v1/search")
    add_client_scenario_args(kp)
    kp.add_argument("--budget", type=int, default=0)
    kp.add_argument("--max-states", type=int, default=4_000_000)

    kp = ksub.add_parser("classify", help="POST /v1/classify")
    add_client_scenario_args(kp)
    kp.add_argument("--budget", type=int, default=0)
    kp.add_argument("--max-states", type=int, default=2_000_000)
    kp.add_argument("--length-slack", type=int, default=0)
    kp.add_argument("--extra-copies", type=int, default=1)

    kp = ksub.add_parser("lint", help="POST /v1/lint")
    add_client_scenario_args(kp)
    kp.add_argument("--max-cycles", type=int, default=10_000)

    kp = ksub.add_parser("campaign", help="POST /v1/campaign (run a whole spec)")
    kp.add_argument("--spec", default="quick")
    kp.add_argument("--limit", type=int, default=None)
    kp.add_argument("--shard", default=None, metavar="I/N")
    kp.set_defaults(fn=_cmd_client)

    kp = ksub.add_parser("status", help="GET /v1/status")
    kp.set_defaults(fn=_cmd_client)

    kp = ksub.add_parser(
        "metrics", help="GET /metrics (Prometheus text exposition)"
    )
    kp.set_defaults(fn=_cmd_client)

    kp = ksub.add_parser("events", help="GET /v1/events (stream telemetry NDJSON)")
    kp.add_argument("--max-events", type=int, default=50)
    kp.add_argument(
        "--listen", type=float, default=5.0, metavar="S",
        help="stop after this many seconds (default 5)",
    )
    kp.set_defaults(fn=_cmd_client)

    p = sub.add_parser(
        "campaign", help="parallel verification campaigns (run/status/clean)"
    )
    csub = p.add_subparsers(dest="campaign_command", required=True)

    pr = csub.add_parser("run", help="execute a campaign spec")
    pr.add_argument(
        "--spec", default="paper-battery",
        help="campaign spec name (default: paper-battery)",
    )
    pr.add_argument("--jobs", type=int, default=1, help="worker processes")
    pr.add_argument("--cache-dir", default=".campaign-cache")
    pr.add_argument(
        "--cache-backend", default=None, metavar="SPEC",
        help="cache backend spec: dir:PATH, sqlite:PATH (shareable between "
        "processes), memory[:N], or a bare path (default: the --cache-dir "
        "directory store)",
    )
    pr.add_argument("--no-cache", action="store_true", help="force live re-verification")
    pr.add_argument(
        "--ledger", default=None,
        help="JSONL ledger path (default: <cache-dir>/ledgers/<spec>.jsonl)",
    )
    pr.add_argument("--limit", type=int, default=None, help="run only the first N tasks")
    pr.add_argument(
        "--timeout", type=float, default=None, help="per-task wall-clock timeout (s)"
    )
    pr.add_argument("--retries", type=int, default=1, help="retries per failed task")
    pr.add_argument("--no-progress", action="store_true")
    pr.add_argument(
        "--shard", default=None, metavar="I/N",
        help="run only hash-range shard I of N (1-based); shards are "
        "disjoint, content-stable, and merge via a shared --cache-dir "
        "(see 'campaign status')",
    )
    add_search_engine_flag(pr)
    add_telemetry_flags(pr)
    pr.set_defaults(fn=_cmd_campaign_run)

    pt = csub.add_parser(
        "trend", help="diff per-task wall times between two run ledgers"
    )
    pt.add_argument("old", help="baseline ledger (JSONL)")
    pt.add_argument("new", help="candidate ledger (JSONL)")
    pt.add_argument(
        "--threshold", type=float, default=1.5,
        help="flag tasks whose wall time grew beyond this ratio (default 1.5)",
    )
    pt.add_argument(
        "--min-seconds", type=float, default=0.05,
        help="ignore tasks faster than this in the new ledger (noise floor)",
    )
    pt.add_argument(
        "--states-threshold", type=float, default=1.0,
        help="allowed growth ratio of per-task states_explored before the "
        "trend fails (default 1.0: any growth in search work is a "
        "regression -- state counts are exact, so no noise floor applies)",
    )
    pt.set_defaults(fn=_cmd_campaign_trend)

    ps = csub.add_parser(
        "status",
        help="summarise cache + ledgers (with per-backend integrity)",
        description="Report cache contents, per-backend integrity scans "
        "(corrupt entries, stale schema salts), per-ledger run history and "
        "the merged cross-shard union.  --json exits 1 if any scanned "
        "backend is unhealthy.",
    )
    ps.add_argument("--cache-dir", default=".campaign-cache")
    ps.add_argument(
        "--cache-backend", action="append", default=None, metavar="SPEC",
        help="backend(s) to inspect instead of the --cache-dir store; "
        "repeat to integrity-scan several (dir:/sqlite:/memory[:N])",
    )
    ps.add_argument("--json", action="store_true", help="machine-readable output")
    ps.set_defaults(fn=_cmd_campaign_status)

    pc = csub.add_parser("clean", help="drop cached results")
    pc.add_argument("--cache-dir", default=".campaign-cache")
    pc.add_argument("--ledgers", action="store_true", help="also delete ledgers")
    pc.set_defaults(fn=_cmd_campaign_clean)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    env_engine = os.environ.get("REPRO_SEARCH_ENGINE")
    if env_engine and hasattr(args, "search_engine") and env_engine not in SEARCH_ENGINES:
        print(
            f"error: REPRO_SEARCH_ENGINE={env_engine!r} is not a search engine; "
            f"use one of {', '.join(SEARCH_ENGINES)}",
            file=sys.stderr,
        )
        return 2
    if os.environ.get("REPRO_STATIC_CERTIFICATES") is not None:
        # lazy, and only when set: a fresh process without the variable
        # loads nothing for this check
        from repro.lint.certificates import certificates_mode

        try:
            certificates_mode()
        except ValueError as exc:
            print(f"error: REPRO_STATIC_CERTIFICATES: {exc}", file=sys.stderr)
            return 2
    try:
        with _telemetry_session(args, args.command):
            return args.fn(args)
    except BrokenPipeError:
        # stdout piped into head/less that exited: not an error.  Point
        # stdout at devnull so the interpreter's exit flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
