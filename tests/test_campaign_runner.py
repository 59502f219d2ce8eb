"""Runner: parallel/serial equivalence, timeout, retry, fallback, ledger."""

import concurrent.futures
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.ledger import RunLedger, read_ledger
from repro.campaign.progress import ProgressReporter
from repro.campaign.runner import RunnerConfig, run_campaign
from repro.campaign.tasks import RUNNER_MODULES, CampaignTask


def _small_battery() -> list[CampaignTask]:
    tasks = [
        CampaignTask.make(
            "reachability", "fig2-pair", d1=d1, d2=d2, hold=2, expect="deadlock"
        )
        for d1, d2 in ((1, 1), (2, 1), (1, 2))
    ]
    tasks.append(CampaignTask.make("reachability", "fig1", expect="unreachable"))
    tasks.append(CampaignTask.make("cdg", "baseline-cdg", algorithm="dor",
                                   dims=(3, 3), expect="acyclic"))
    return tasks


def test_serial_and_parallel_ledger_verdicts_agree(tmp_path):
    """max_workers=1 and =4 must write identical verdicts for each hash."""
    verdicts = {}
    for workers in (1, 4):
        path = tmp_path / f"ledger-{workers}.jsonl"
        with RunLedger(path) as ledger:
            results, summary = run_campaign(
                _small_battery(),
                ledger=ledger,
                config=RunnerConfig(max_workers=workers),
            )
        assert summary.failed == 0 and summary.all_expected
        recorded, summaries = read_ledger(path)
        assert len(recorded) == len(results) == 5
        assert len(summaries) == 1
        verdicts[workers] = {r.task_hash: r.verdict for r in recorded}
    assert verdicts[1] == verdicts[4]


def test_parallel_runs_use_worker_processes(tmp_path):
    results, _ = run_campaign(
        _small_battery()[:3], config=RunnerConfig(max_workers=2)
    )
    assert all(r.worker.startswith("pid") for r in results)


def test_timeout_then_retry_exhaustion(tmp_path):
    """A deliberately slow task trips the per-task timeout on every wave."""
    slow = CampaignTask.make("reachability", "debug-sleep", seconds=1.2)
    results, summary = run_campaign(
        [slow],
        config=RunnerConfig(
            max_workers=2, task_timeout=0.2, retries=1, backoff=0.05
        ),
    )
    (res,) = results
    assert not res.ok
    assert "timeout" in res.error
    assert res.attempts == 2  # initial attempt + one retry
    assert summary.failed == 1 and not summary.all_expected


def test_timed_out_task_does_not_keep_its_worker():
    """Dropping a pool after a timeout stops its workers: the runaway task
    does not keep its CPU (or the interpreter's exit) until it ends."""
    import multiprocessing
    import time

    before = set(multiprocessing.active_children())
    slow = CampaignTask.make("reachability", "debug-sleep", seconds=3)
    t0 = time.perf_counter()
    (res,), _ = run_campaign(
        [slow], config=RunnerConfig(max_workers=2, task_timeout=0.2, retries=0)
    )
    assert "timeout" in res.error
    left = set(multiprocessing.active_children()) - before
    while left and time.perf_counter() - t0 < 1.5:
        time.sleep(0.05)
        left = set(multiprocessing.active_children()) - before
    assert not left, left


def test_flaky_task_succeeds_on_retry(tmp_path):
    token_dir = tmp_path / "tokens"
    token_dir.mkdir()
    flaky = CampaignTask.make(
        "reachability", "debug-flaky", token_dir=str(token_dir), fail_times=1
    )
    results, summary = run_campaign(
        [flaky], config=RunnerConfig(max_workers=1, retries=2, backoff=0.01)
    )
    (res,) = results
    assert res.ok and res.verdict == "unreachable"
    assert res.attempts == 2
    assert summary.failed == 0


def test_retries_zero_fails_fast(tmp_path):
    token_dir = tmp_path / "tokens"
    token_dir.mkdir()
    flaky = CampaignTask.make(
        "reachability", "debug-flaky", token_dir=str(token_dir), fail_times=1
    )
    results, _ = run_campaign(
        [flaky], config=RunnerConfig(max_workers=1, retries=0)
    )
    assert not results[0].ok and results[0].attempts == 1


def test_state_cap_is_final_and_not_retried():
    """A hit state cap fails the same way on every attempt: with the
    default one retry, it is reported at attempt 1, without the backoff."""
    capped = CampaignTask.make("reachability", "gen", m=3, budget=3, max_states=200_000)
    config = RunnerConfig()
    assert config.retries == 1
    (res,), summary = run_campaign([capped], config=config)
    assert not res.ok and res.final
    assert res.error.startswith("SearchLimitExceeded: exceeded 200000 states")
    assert res.attempts == 1
    assert summary.wall_time < res.wall_time + config.backoff


def test_rejected_parameter_is_final():
    bad = CampaignTask.make("reachability", "fig2-pair", d1=1, d2=1, hold=2, budget=-1)
    (res,), _ = run_campaign([bad], config=RunnerConfig(retries=2, backoff=5.0))
    assert not res.ok and res.final and res.error.startswith("ValueError")
    assert res.attempts == 1


def test_failed_scenario_build_is_final():
    """A build that trips over a bad parameter fails the same way every
    time: reported at attempt 1, without the retry backoff."""
    bad = CampaignTask.make("classify", "fig3-panel", panel="z")
    config = RunnerConfig()
    assert config.retries == 1
    (res,), summary = run_campaign([bad], config=config)
    assert not res.ok and res.final and res.error == "KeyError: 'z'"
    assert res.attempts == 1
    assert summary.wall_time < res.wall_time + config.backoff


def test_fig1_copies_outside_the_subset_are_final():
    """``with_copies`` over a ``subset`` without M2 or M4 is refused by
    name at attempt 1, not retried as an index error."""
    bad = CampaignTask.make(
        "reachability", "fig1", subset=("M1", "M2"), with_copies=True
    )
    (res,), _ = run_campaign([bad], config=RunnerConfig())
    assert not res.ok and res.final and res.attempts == 1
    assert res.error == "ValueError: fig1 with_copies needs message M4, not in the subset"


def test_fig1_copies_are_picked_by_tag():
    from repro.campaign.scenarios import build_scenario

    msgs = build_scenario("fig1", {"subset": ["M4", "M2"], "with_copies": True}).messages
    by_tag = {m.tag: m for m in msgs}
    assert [m.tag for m in msgs] == ["M2", "M4", "M2copy", "M4copy"]
    for tag in ("M2", "M4"):
        assert by_tag[f"{tag}copy"].path == by_tag[tag].path


def test_discard_terminates_workers_under_a_sigterm_handler():
    """A pool forked by a process whose event loop handles SIGTERM (as
    ``repro serve``'s does) still terminates its workers on discard(),
    and the parent's handler does not fire for them."""
    import asyncio
    import signal
    import time

    from repro.campaign.runner import WorkerPool

    async def run():
        loop = asyncio.get_running_loop()
        fired = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, fired.set)
        pool = WorkerPool(1)
        try:
            executor = pool.get()
            executor.submit(os.getpid).result(timeout=60)  # the worker is up
            (worker,) = executor._processes.values()
            executor.submit(time.sleep, 60)
            time.sleep(0.5)  # the worker is busy with it: only a signal ends it
            pool.discard()
            worker.join(10)
            await asyncio.sleep(0.2)  # a stray wakeup byte would be read by now
            return worker.exitcode, fired.is_set()
        finally:
            loop.remove_signal_handler(signal.SIGTERM)
            pool.close()

    assert asyncio.run(run()) == (-signal.SIGTERM, False)


def test_retry_waves_share_one_pool(tmp_path):
    """A flaky task's retry wave runs on the first wave's worker pool."""
    token_dir = tmp_path / "tokens"
    token_dir.mkdir()
    flaky = CampaignTask.make(
        "reachability", "debug-flaky", token_dir=str(token_dir), fail_times=1
    )
    created = []
    real = concurrent.futures.ProcessPoolExecutor

    def counting_pool(*a, **kw):
        created.append(real(*a, **kw))
        return created[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
        (res,), _ = run_campaign(
            [flaky], config=RunnerConfig(max_workers=2, retries=2, backoff=0.01)
        )
    assert res.ok and res.attempts == 2
    assert len(created) == 1


def test_pool_workers_import_the_runners_before_their_first_task():
    """A worker's first task does not pay the analysis-stack imports.

    Run in a fresh interpreter that has imported only the runner, so the
    forked workers cannot inherit the modules from the test process."""
    code = textwrap.dedent(
        """
        import json, sys
        from repro.campaign.runner import WorkerPool
        from repro.campaign.tasks import RUNNER_MODULES

        def loaded():
            return [m for m in RUNNER_MODULES if m in sys.modules]

        parent = loaded()
        pool = WorkerPool(2)
        worker = pool.get().submit(loaded).result(timeout=60)
        pool.close()
        print(json.dumps({"parent": parent, "worker": worker}))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout)
    assert "repro.sim" not in seen["parent"]  # the check can fail
    assert seen["worker"] == list(RUNNER_MODULES)


def test_pool_unavailable_degrades_to_serial(monkeypatch):
    """Environments without process pools still complete the campaign."""

    def broken_pool(*a, **kw):
        raise OSError("no process support here")

    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", broken_pool
    )
    results, summary = run_campaign(
        _small_battery()[:3], config=RunnerConfig(max_workers=4)
    )
    assert summary.failed == 0
    assert all(r.ok and r.worker == "serial" for r in results)
    assert {r.verdict for r in results} == {"deadlock"}


def test_duplicate_tasks_run_once():
    task = CampaignTask.make("reachability", "fig2-pair", d1=1, d2=1, hold=2)
    results, summary = run_campaign([task, task, task])
    assert len(results) == 1 and summary.total == 1


def test_cache_short_circuits_second_run(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    tasks = _small_battery()
    _, cold = run_campaign(tasks, cache=cache, config=RunnerConfig(max_workers=1))
    assert cold.live == len(tasks) and cold.from_cache == 0

    cache2 = ResultCache(tmp_path / "cache")
    results, warm = run_campaign(
        tasks, cache=cache2, config=RunnerConfig(max_workers=1)
    )
    assert warm.from_cache == len(tasks) and warm.live == 0
    assert warm.all_expected
    assert all(r.source == "cache" for r in results)
    assert cache2.stats.hit_rate == 1.0


def test_invalid_runner_config():
    with pytest.raises(ValueError):
        RunnerConfig(max_workers=0)
    with pytest.raises(ValueError):
        RunnerConfig(retries=-1)
    with pytest.raises(ValueError):
        RunnerConfig(task_timeout=0)


def test_task_timeout_needs_a_pool():
    """Only pool mode can preempt a task, so a serial config refuses a
    timeout it could not apply."""
    with pytest.raises(ValueError, match="--jobs 2"):
        RunnerConfig(task_timeout=1.0)
    assert RunnerConfig(max_workers=2, task_timeout=1.0).task_timeout == 1.0


def test_progress_reporter_emits(capsys):
    import sys

    reporter = ProgressReporter(2, stream=sys.stdout, interval=0.0)
    from repro.campaign.tasks import TaskResult

    for source in ("cache", "live"):
        reporter.update(
            TaskResult(task_hash="x", name="t", kind="k", scenario="s",
                       params={}, verdict="ok", source=source)
        )
    out = capsys.readouterr().out
    assert "2/2 done" in out and "cache 1" in out


def test_ledger_skips_corrupt_lines(tmp_path):
    path = tmp_path / "ledger.jsonl"
    with RunLedger(path) as ledger:
        run_campaign(
            [CampaignTask.make("reachability", "fig2-pair", d1=1, d2=1, hold=2)],
            ledger=ledger,
        )
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{truncated garbage\n")
    results, summaries = read_ledger(path)
    assert len(results) == 1 and len(summaries) == 1
