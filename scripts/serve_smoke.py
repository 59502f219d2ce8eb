"""End-to-end smoke test for ``repro serve``: boot, query, cache, stream.

Boots a real server in a background thread (OS-assigned port, sqlite
cold tier in a temp dir), then exercises the public surface the way a
fleet would:

1.  cold ``/v1/search`` (must execute live and match the CLI's
    ``search --json`` bytes exactly),
2.  identical repeat query (must be answered from cache, fast),
3.  ``/v1/classify`` in cycle and configuration mode (must match
    ``classify --json`` bytes), a search over a scenario with no message
    set (must be refused, not answered), ``/v1/lint`` (must match ``lint
    --json`` bytes) and a small ``/v1/campaign`` batch,
4.  ``/v1/events`` subscription -- every streamed event must validate
    against the telemetry schema,
5.  ``/v1/status`` -- the hit rate must be nonzero by now,
6.  ``GET /metrics`` under the load above -- the exposition text must
    pass the strict format checker and the request-latency histogram's
    cumulative buckets must account for every request served.

Exit 0 only if every check passes.  CI runs this as the serve-smoke job;
locally::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs import check_exposition, validate_event  # noqa: E402
from repro.obs.prom import parse_samples  # noqa: E402
from repro.serve import ReproServer, ServeClient, ServeConfig  # noqa: E402

CHECKS: list[tuple[str, bool, str]] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    CHECKS.append((name, ok, detail))
    mark = "ok  " if ok else "FAIL"
    print(f"[{mark}] {name}" + (f" -- {detail}" if detail else ""))


def cli_json(*argv: str) -> str:
    """What ``python -m repro <argv> --json`` prints."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv, "--json"],
        capture_output=True,
        text=True,
        check=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    return proc.stdout


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="serve-smoke-")
    server = ReproServer(
        ServeConfig(port=0, cache_backend=f"sqlite:{Path(tmp) / 'smoke.db'}")
    )
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    if not server.wait_ready(20):
        print("FAIL: server did not come up", file=sys.stderr)
        return 1
    print(f"server up at {server.url}")
    client = ServeClient(server.url, timeout=300)

    try:
        # 1. cold search is live and byte-identical to the CLI
        cold = client.search("fig1").raise_for_status()
        check("cold search executes live", cold.source == "live", cold.source)
        check(
            "cold search matches `search fig1 --json` bytes",
            cold.body.decode("utf-8") == cli_json("search", "fig1"),
        )
        check(
            "verdict is the paper's Fig. 1 result (cycle, no deadlock)",
            cold.payload["verdict"] == "unreachable",
        )

        # 2. the repeat query is a cache hit
        t0 = time.perf_counter()
        warm = client.search("fig1").raise_for_status()
        warm_ms = (time.perf_counter() - t0) * 1000
        check(
            "repeat query served from cache",
            warm.source == "cache",
            f"{warm_ms:.1f} ms",
        )
        check("cached bytes identical", warm.body == cold.body)

        # 3. the other endpoints answer; classify like the CLI, in both modes
        for scenario, params in (("ring-cycle", {"n": 4}), ("fig3-panel", {"panel": "a"})):
            resp = client.classify(scenario, params).raise_for_status()
            check(
                f"classify {scenario} matches `classify --json` bytes",
                resp.body.decode("utf-8")
                == cli_json("classify", scenario, "--params", json.dumps(params)),
            )
        refused = client.search("ring-cycle", {"n": 4})
        check(
            "search over no message set is refused",
            refused.status == 502
            and "exposes no message set" in refused.payload.get("error", ""),
            f"HTTP {refused.status}",
        )
        local_lint = cli_json("lint", "fig1")
        for source in ("live", "cache"):
            lint = client.lint("fig1").raise_for_status()
            check(
                f"lint fig1 ({source}) matches `lint fig1 --json` bytes",
                lint.source == source and lint.body.decode("utf-8") == local_lint,
                f"source={lint.source}",
            )
        camp = client.campaign("quick", limit=3).raise_for_status()
        check(
            "campaign endpoint runs the quick spec",
            camp.payload["total"] == 3 and camp.payload["failed"] == 0,
            f"total={camp.payload['total']} failed={camp.payload['failed']}",
        )

        # 4. streamed telemetry events validate against the schema
        events: list[dict] = []
        sub = threading.Thread(
            target=lambda: events.extend(client.events(max_events=8, timeout=6.0)),
            daemon=True,
        )
        sub.start()
        time.sleep(0.3)
        client.search("fig2-pair", {"d1": 2, "d2": 1, "hold": 2})
        sub.join(timeout=20)
        bad = [e for e in events if validate_event(e)]
        check(
            "event stream delivers schema-valid telemetry",
            bool(events) and not bad,
            f"{len(events)} events, {len(bad)} invalid",
        )

        # 5. status shows the cache doing its job
        status = client.status().raise_for_status().payload
        check(
            "status reports a nonzero hit rate",
            status["cache"]["hit_rate"] > 0,
            json.dumps(status["cache"]["hit_rate"]),
        )
        check(
            "status counts every request",
            status["server"]["requests"] >= 6,
            str(status["server"]["requests"]),
        )

        # 6. metrics scrape: strict exposition format + histogram math
        text = client.metrics()
        problems = check_exposition(text)
        check(
            "metrics exposition passes the strict checker",
            not problems,
            "; ".join(problems[:3]),
        )
        samples = parse_samples(text)
        latency = samples.get("repro_serve_request_latency_s_bucket", {})
        inf_count = sum(
            v for labels, v in latency.items() if 'le="+Inf"' in labels
        )
        total = sum(
            samples.get("repro_serve_request_latency_s_count", {}).values()
        )
        check(
            "latency histogram buckets are cumulative to +Inf == _count",
            latency and inf_count == total,
            f"+Inf={inf_count} count={total}",
        )
        # 5 task requests so far: search x3 (cold/warm/fig2-pair),
        # lint, campaign (status/events/metrics are not batched work)
        check(
            "latency histogram saw every task request",
            total >= 5,
            f"observed={total}",
        )
        check(
            "request counter exported",
            samples.get("repro_serve_requests_total", {}).get("", 0) >= 6,
        )
    finally:
        server.shutdown()
        thread.join(10)

    failed = [name for name, ok, _ in CHECKS if not ok]
    print(f"\n{len(CHECKS) - len(failed)}/{len(CHECKS)} checks passed")
    if failed:
        print("failed: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
