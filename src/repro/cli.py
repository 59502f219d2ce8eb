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
import functools
import os
import sys
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager


@contextmanager
def _telemetry_session(args: argparse.Namespace, command: str) -> Iterator[None]:
    """Enable telemetry for one CLI invocation when flags ask for it.

    Opens a :func:`repro.obs.session` (``REPRO_TELEMETRY=on``, so
    campaign worker processes inherit it) with a JSONL exporter for
    ``--telemetry``, wraps the command in a root span, and writes the
    final registry snapshot for ``--telemetry-snapshot``.  Without either
    flag this is a straight pass-through: no collector, no exporter,
    nothing.
    """
    telemetry_path = getattr(args, "telemetry", None)
    snapshot_path = getattr(args, "telemetry_snapshot", None)
    if not telemetry_path and not snapshot_path:
        yield
        return

    import repro.obs as obs

    sinks = [obs.JsonlExporter(telemetry_path)] if telemetry_path else []
    name = f"repro.{command}"
    with obs.session(*sinks) as tel:
        tel.run_start(name, argv=list(sys.argv[1:]))
        try:
            with tel.span(name) as root:
                # the REPRO_TRACE carrier joins spawned worker processes
                # (campaign pools) to this invocation's trace
                obs.inject_env(root.context())
                yield
        finally:
            tel.run_end(name)
            if snapshot_path:
                obs.write_snapshot(tel, snapshot_path)


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


def _run_query(args: argparse.Namespace, command: str, kind: str):
    """Answer one ``search``/``classify`` query through its campaign task.

    The task comes from the builder serve uses and runs in this process
    (no cache, no pool).  Returns ``(scenario_params, result)``, or
    ``None`` after printing the one ``<command>:`` failure line.
    """
    from repro.campaign.query import query_task
    from repro.campaign.tasks import execute_task

    params = _parse_scenario_params(args, command)
    if params is None:
        return None
    try:
        task = query_task(
            kind, args.scenario, params, vars(args),
            witness=getattr(args, "witness", False),
        )
    except ValueError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return None
    result = execute_task(task)
    if not result.ok:
        # execute_task reports "<exception type>: <message>"; a final
        # failure (a state cap, a rejected value) is named by its message
        error = result.error or ""
        print(f"{command}: {error.partition(': ')[2] if result.final else error}",
              file=sys.stderr)
        return None
    return params, result


def _cmd_search(args: argparse.Namespace) -> int:
    answer = _run_query(args, "search", "reachability")
    if answer is None:
        return 2
    params, result = answer
    if args.json:
        from repro.serve.payloads import dumps, search_payload_from_result

        print(dumps(search_payload_from_result(result, params=params)))
        return 0

    from repro.experiments import render_kv

    detail = result.detail
    rows = {
        "scenario": args.scenario,
        "messages": detail["messages"],
        "budget": args.budget,
        "verdict": result.verdict,
        "states explored": detail["states_explored"],
    }
    note = _certificate_note(detail["certificate"], detail["states_explored"] == 0)
    if note is not None:
        rows["certificate"] = note
    print(render_kv(rows, title="deadlock reachability search"))
    if detail.get("witness_lines"):
        print()
        print("\n".join(detail["witness_lines"]))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    answer = _run_query(args, "classify", "classify")
    if answer is None:
        return 2
    params, result = answer
    from repro.serve.payloads import classify_payload_from_result, dumps

    payload = classify_payload_from_result(result, params=params)
    if args.json:
        print(dumps(payload))
        return 0

    from repro.experiments import render_kv

    detail = result.detail
    if payload["mode"] == "cycle":
        rows = {
            "scenario": args.scenario,
            "mode": "CDG cycle",
            "cycle channels": detail["cycle_channels"],
            "verdict": payload["verdict"],
            "tilings tested": detail["tilings_tested"],
            "scenarios tested": detail["scenarios_tested"],
        }
        title, searched = "cycle classification", detail["scenarios_tested"]
    else:
        rows = {
            "scenario": args.scenario,
            "mode": "configuration",
            "messages": detail["messages"],
            "verdict": payload["verdict"],
            "states explored": detail["states_explored"],
        }
        title, searched = "configuration classification", detail["states_explored"]
    note = _certificate_note(detail["certificate"], searched == 0)
    if note is not None:
        rows["certificate"] = note
    print(render_kv(rows, title=title))
    for line in payload.get("notes") or ():
        print(f"  note: {line}")
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


def _grid_command(
    fn: Callable[[argparse.Namespace], int],
) -> Callable[[argparse.Namespace], int]:
    """A paper command (they all run campaign tasks): a failed task, or an
    empty grid, ends in one ``<cmd>: ...`` line and exit 2, not a
    traceback or a verdict over nothing."""

    @functools.wraps(fn)
    def run(args: argparse.Namespace) -> int:
        from repro.experiments.grid import GridTaskFailed

        try:
            return fn(args)
        except GridTaskFailed as exc:
            print(f"{args.command}: {exc}", file=sys.stderr)
            return 2

    return run


@_grid_command
def _cmd_fig1(args: argparse.Namespace) -> int:
    from repro.experiments import render_table, run_fig1_experiment

    res = run_fig1_experiment(max_delay=args.max_delay)
    print(render_table(res.summary_rows(), title="E1: Figure 1 / Theorem 1"))
    print()
    print("\n".join(res.narrative))
    print(f"\nmin delay to deadlock: {res.min_delay_to_deadlock}")
    print(f"matches paper: {res.matches_paper}")
    return 0 if res.matches_paper else 1


@_grid_command
def _cmd_fig2(args: argparse.Namespace) -> int:
    from repro.experiments import render_table, run_fig2_experiment

    res = run_fig2_experiment()
    print(render_table(res.sweep_rows, title="E2: Figure 2 / Theorem 4 sweep"))
    print(f"\nall configurations deadlock: {res.all_sweep_deadlock}")
    print(f"proof's injection order reproduced: {res.longer_approach_injected_first}")
    return 0 if res.matches_paper else 1


@_grid_command
def _cmd_fig3(args: argparse.Namespace) -> int:
    from repro.experiments import render_table
    from repro.experiments.fig3 import run_condition_sweep, run_fig3_experiment

    panels = run_fig3_experiment(jobs=args.jobs, cache_dir=args.cache_dir)
    sweep = (
        run_condition_sweep(samples=args.sweep, jobs=args.jobs, cache_dir=args.cache_dir)
        if args.sweep
        else None
    )
    print(render_table([r.row() for r in panels], title="E3: Figure 3 / Theorem 5"))
    ok = all(r.search_matches_paper and r.conditions_match_search for r in panels)
    if sweep is not None:
        print(
            f"\ncondition sweep: agree on {sweep.agree}/{sweep.total} "
            f"random configurations"
        )
        for d in sweep.disagreements:
            print(f"  disagreement: {d}")
        ok = ok and sweep.rate == 1.0
    return 0 if ok else 1


@_grid_command
def _cmd_theorem2(args: argparse.Namespace) -> int:
    from repro.experiments import render_table
    from repro.experiments.theorem2 import run_corollary_baselines, run_theorem2_experiment
    from repro.experiments.theorem2 import corollaries_match_paper

    res = run_theorem2_experiment()
    rows = run_corollary_baselines()
    print(render_table(res.overlap_rows, title="E4: Theorem 2 overlap configurations"))
    print()
    print(render_table(rows, title="E4: Corollary 1-3 baselines"))
    return 0 if res.all_deadlock and corollaries_match_paper(rows) else 1


@_grid_command
def _cmd_theorem3(args: argparse.Namespace) -> int:
    from repro.experiments import render_kv, run_theorem3_experiment

    res = run_theorem3_experiment(
        limit=args.limit, jobs=args.jobs, cache_dir=args.cache_dir
    )
    print(render_kv(res.summary(), title="E5: Theorem 3 sweep"))
    print()
    print(render_kv(res.fig1_slack, title="Figure 1 per-pair excess hops (nonminimality)"))
    return 0 if res.theorem_holds and res.fig1_certified_nonminimal else 1


@_grid_command
def _cmd_gen(args: argparse.Namespace) -> int:
    from repro.experiments import render_table, run_generalization_experiment

    res = run_generalization_experiment(
        tuple(range(1, args.max_m + 1)), jobs=args.jobs, cache_dir=args.cache_dir
    )
    print(render_table(res.rows(), title="E6: Gen(m) minimum delay to deadlock"))
    print(f"strictly increasing: {res.strictly_increasing}")
    return 0 if res.strictly_increasing else 1


@_grid_command
def _cmd_traffic(args: argparse.Namespace) -> int:
    from repro.experiments import render_table
    from repro.experiments.traffic import run_ring_deadlock_probe, run_traffic_experiment

    pts = run_traffic_experiment(rates=tuple(args.rates))
    probe = run_ring_deadlock_probe()
    print(render_table([p.row() for p in pts], title="V1: traffic baselines"))
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

    ledger_dir = Path(args.cache_dir) / "ledgers"
    ledgers = []
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
        ledgers.append(
            {
                "ledger": path.name,
                "results": len(results),
                "distinct_tasks": len({r.task_hash for r in results}),
                "runs": len(summaries),
                "last_wall_s": last.get("wall_time"),
                "last_cache_hits": last.get("from_cache"),
                "last_failed": last.get("failed"),
                "last_matches": (
                    None if not last
                    else not last.get("expect_mismatches") and not last.get("failed")
                ),
            }
        )
    ok = sum(1 for good in merged.values() if good)
    payload = {
        "cache_dir": args.cache_dir,
        "backends": [
            {
                "spec": spec,
                "backend": type(be).__name__,
                "entries": len(be),
                "integrity": be.integrity().to_json(),
            }
            for spec, be in backends
        ],
        "ledgers": ledgers,
        "merged": {"distinct_tasks": len(merged), "ok": ok, "failed": len(merged) - ok},
        "telemetry_rollup": {
            "tasks": tele_tasks,
            "counters": {k: round(tele_counters[k], 6) for k in sorted(tele_counters)},
        },
    }
    # one exit rule for both formats: any unhealthy backend fails
    rc = 0 if all(b["integrity"]["healthy"] for b in payload["backends"]) else 1
    if args.json:
        print(_json.dumps(payload, indent=2))
        return rc

    blocks = [
        render_kv(
            {
                "cache": b["spec"],
                "backend": b["backend"],
                "cached results": b["entries"],
                "schema salt": b["integrity"]["salt"],
                "corrupt": b["integrity"]["corrupt"],
                "stale salt": b["integrity"]["stale_salt"],
                "healthy": b["integrity"]["healthy"],
            },
            title="campaign cache",
        )
        for b in payload["backends"]
    ]
    blocks.append(render_table(
        [
            {k.replace("_", " "): "-" if v is None else v for k, v in row.items()}
            for row in ledgers
        ],
        title="campaign ledgers",
    ))
    if ledgers:
        # the union view is how sharded runs (--shard i/n) are merged:
        # shards share the cache and write disjoint hash-keyed ledgers
        blocks.append(render_kv(
            {k.replace("_", " "): v for k, v in payload["merged"].items()},
            title="merged across ledgers",
        ))
    rollup = payload["telemetry_rollup"]
    if rollup["counters"]:
        # roll-up of the per-task telemetry summaries embedded in ledger
        # records by runs executed with REPRO_TELEMETRY on
        blocks.append(render_kv(
            {"task executions with telemetry": rollup["tasks"], **rollup["counters"]},
            title="telemetry roll-up",
        ))
    print("\n\n".join(blocks))
    return rc


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



def _cmd_lint(args: argparse.Namespace) -> int:
    """Lint one scenario, or each distinct construction of ``--spec``,
    through its campaign ``lint`` task; every output is rendered from the
    tasks' report JSON."""
    import json as _json

    from repro.campaign.query import query_task
    from repro.campaign.tasks import execute_task
    from repro.lint.diagnostics import render_report, report_errors, report_exit_code
    from repro.serve.payloads import dumps

    if bool(args.scenario) == bool(args.all):
        print("lint: give exactly one of <scenario> or --all", file=sys.stderr)
        return 2

    targets: list[tuple[str, dict]] = []
    if args.all:
        from repro.campaign.query import ANALYSIS_OPTIONS
        from repro.campaign.specs import build_spec

        # params that do not change the routing algorithm are dropped, so
        # each distinct construction is linted once
        dropped = ANALYSIS_OPTIONS | {"rate", "cycles", "length", "seed", "msgs"}
        seen: set[str] = set()
        for task in build_spec(args.spec):
            if task.scenario.startswith("debug-"):
                continue
            params = {
                k: v
                for k, v in task.params_dict().items()
                if k not in dropped
            }
            key = _json.dumps([task.scenario, params], sort_keys=True, default=str)
            if key in seen:
                continue
            seen.add(key)
            targets.append((task.scenario, params))
    else:
        params = _parse_scenario_params(args, "lint")
        if params is None:
            return 2
        targets.append((args.scenario, params))

    try:
        tasks = [query_task("lint", scenario, params, vars(args))
                 for scenario, params in targets]
    except ValueError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    reports = []
    for (scenario, params), task in zip(targets, tasks):
        result = execute_task(task)
        if not result.ok:
            # execute_task reports "<exception type>: <message>"
            print(f"lint {scenario}{params}: build failed: "
                  f"{(result.error or '').partition(': ')[2]}", file=sys.stderr)
            return 2
        reports.append(result.detail["report"])

    if getattr(args, "sarif", None):
        from pathlib import Path

        from repro.lint.sarif import sarif_log

        log = sarif_log(reports)
        Path(args.sarif).write_text(_json.dumps(log, indent=2) + "\n")
        print(f"wrote SARIF log ({len(log['runs'][0]['results'])} results) "
              f"to {args.sarif}", file=sys.stderr)

    if args.json:
        print(dumps(reports if args.all else reports[0]))
    else:
        for report in reports:
            print(render_report(report, verbose=args.verbose))
        if args.all:
            decided = sum(r["verdict"] != "undecided" for r in reports)
            errors = sum(map(report_errors, reports))
            print(
                f"\n{len(reports)} targets linted: {decided} certificate-decided, "
                f"{errors} error-severity finding(s)"
            )
    return max(map(report_exit_code, reports), default=0)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ReproServer, ServeConfig

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            cache_backend=args.cache_backend,
            hot_capacity=args.hot_capacity,
            jobs=args.jobs,
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
    except OSError as exc:  # the bind: a taken port, an unknown host
        # asyncio's bind error repeats the address; name only its cause
        reason = os.strerror(exc.errno) if (exc.errno or 0) > 0 else exc.strerror or exc
        print(f"serve: cannot listen on {args.host}:{args.port}: {reason}", file=sys.stderr)
        return 2
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
            from repro.campaign.query import QUERY_OPTIONS

            options = {k: getattr(args, k) for k in QUERY_OPTIONS[_QUERY_KINDS[cmd]]}
            resp = getattr(client, cmd)(args.scenario, params, **options)
            if not resp.ok:
                detail = (
                    resp.payload.get("error", "")
                    if isinstance(resp.payload, dict)
                    else ""
                )
                print(f"client {cmd}: HTTP {resp.status}: {detail}", file=sys.stderr)
                return 1 if resp.status >= 500 else 2
            # the raw response body: byte-identical to the local `--json` output
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


#: the query command of each ``repro client`` subcommand -> its task kind
_QUERY_KINDS = {"search": "reachability", "classify": "classify", "lint": "lint"}

_OPTION_HELP = {
    "budget": "per-message stall budget",
    "max_states": "state-count cap per search",
    "length_slack": "sweep message lengths up to this far above minimum",
    "extra_copies": "cycle mode: also test up to this many duplicate messages",
    "max_cycles": "cap on CDG cycle enumeration (truncation is itself reported)",
}


def build_parser() -> argparse.ArgumentParser:
    from repro.campaign.query import QUERY_OPTIONS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Schwiebert (SPAA 1997): deadlock-free oblivious "
        "wormhole routing with cyclic dependencies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_query_options(p: argparse.ArgumentParser, kind: str) -> None:
        for name, default in QUERY_OPTIONS[kind].items():
            p.add_argument(
                "--" + name.replace("_", "-"), type=int, default=default,
                help=f"{_OPTION_HELP[name]} (default {default:,})",
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
    add_query_options(p, "reachability")
    p.add_argument(
        "--witness", action="store_true",
        help="reconstruct and print a replayable deadlock witness",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
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
    add_query_options(p, "classify")
    p.add_argument("--json", action="store_true", help="machine-readable output")
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
    add_query_options(p, "lint")
    add_telemetry_flags(p)
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "serve",
        help="verification-as-a-service: async HTTP/JSON API over the campaign "
        "runner (see docs/SERVE.md)",
        description="Start a long-lived HTTP server answering /v1/search, "
        "/v1/classify, /v1/lint and /v1/campaign from a tiered result cache.  "
        "Cold misses run through the campaign runner on one execution lane: "
        "a miss runs at once when the lane is idle, and misses that arrive "
        "while a batch runs form the next batch.  /v1/events "
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

    for cmd, kind in _QUERY_KINDS.items():
        kp = ksub.add_parser(cmd, help=f"POST /v1/{cmd}")
        add_client_scenario_args(kp)
        add_query_options(kp, kind)

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
    add_telemetry_flags(pr)
    pr.set_defaults(fn=_cmd_campaign_run)

    ps = csub.add_parser(
        "status",
        help="summarise cache + ledgers (with per-backend integrity)",
        description="Report cache contents, per-backend integrity scans "
        "(corrupt entries, stale schema salts), per-ledger run history and "
        "the merged cross-shard union.  Exits 1 if any scanned backend is "
        "unhealthy; --json prints the report the text is rendered from.",
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
