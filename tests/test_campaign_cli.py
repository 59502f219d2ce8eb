"""CLI: campaign run/status/clean and the sweep commands' runner flags."""

import pytest

from repro.campaign import build_spec, spec_names
from repro.cli import build_parser, main


def test_parser_lists_campaign():
    text = build_parser().format_help()
    assert "campaign" in text


def test_campaign_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["campaign"])


def test_specs_registered():
    assert "paper-battery" in spec_names()
    assert "quick" in spec_names()
    assert len(build_spec("paper-battery")) > 100
    assert build_spec("paper-battery", limit=8) == build_spec("paper-battery")[:8]
    with pytest.raises(KeyError, match="unknown campaign spec"):
        build_spec("nope")


def test_campaign_run_quick_then_cached(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    argv = ["campaign", "run", "--spec", "quick", "--limit", "4",
            "--jobs", "1", "--cache-dir", cache_dir, "--no-progress"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "live runs            : 4" in cold
    assert "matches expectations : True" in cold

    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "cache hits           : 4" in warm
    assert "live runs            : 0" in warm

    ledger = tmp_path / "cache" / "ledgers" / "quick.jsonl"
    assert ledger.exists()
    from repro.campaign import read_ledger

    results, summaries = read_ledger(ledger)
    assert len(results) == 8 and len(summaries) == 2  # both runs appended


def test_campaign_status_and_clean(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["campaign", "run", "--spec", "quick", "--limit", "2",
                 "--jobs", "1", "--cache-dir", cache_dir, "--no-progress"]) == 0
    capsys.readouterr()

    assert main(["campaign", "status", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "cached results : 2" in out
    assert "quick.jsonl" in out

    assert main(["campaign", "clean", "--cache-dir", cache_dir, "--ledgers"]) == 0
    out = capsys.readouterr().out
    assert "removed 2 cached results" in out
    assert main(["campaign", "status", "--cache-dir", cache_dir]) == 0
    assert "cached results : 0" in capsys.readouterr().out


def test_campaign_run_no_cache_flag(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    argv = ["campaign", "run", "--spec", "quick", "--limit", "2", "--jobs", "1",
            "--cache-dir", cache_dir, "--no-cache", "--no-progress"]
    assert main(argv) == 0
    assert main(argv) == 0  # second run is live again: nothing was cached
    assert "live runs            : 2" in capsys.readouterr().out
    assert not (tmp_path / "cache").glob("*/*.json") or \
        not list((tmp_path / "cache").glob("*/*.json"))


def test_gen_routes_through_campaign(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["gen", "--max-m", "1", "--jobs", "2",
                 "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "strictly increasing: True" in out
    assert len(list((tmp_path / "cache").glob("*/*.json"))) == 1  # memoised


def test_theorem3_routes_through_campaign(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    argv = ["theorem3", "--limit", "6", "--jobs", "2", "--cache-dir", cache_dir]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "theorem3_holds          : True" in out
    assert len(list((tmp_path / "cache").glob("*/*.json"))) == 6

    assert main(argv) == 0  # warm: same verdicts from cache
    assert "theorem3_holds          : True" in capsys.readouterr().out


def test_fig3_sweep_flags_parse():
    args = build_parser().parse_args(
        ["fig3", "--sweep", "5", "--jobs", "3", "--cache-dir", "/tmp/x"]
    )
    assert args.sweep == 5 and args.jobs == 3 and args.cache_dir == "/tmp/x"


def test_fig3_sweep_agreement(tmp_path):
    """The condition sweep agrees with the search on its first 4 draws, and
    a warm re-run from the same cache reproduces the result."""
    from repro.experiments.fig3 import run_condition_sweep

    cache_dir = str(tmp_path / "c")
    cold = run_condition_sweep(samples=4, jobs=1, cache_dir=cache_dir)
    assert cold.total == 4
    assert cold.agree == 4
    assert cold.disagreements == []
    assert run_condition_sweep(samples=4, cache_dir=cache_dir) == cold


def test_campaign_status_json_reports_backend_integrity(tmp_path, capsys):
    import json

    cache_dir = str(tmp_path / "cache")
    assert main(["campaign", "run", "--spec", "quick", "--limit", "3",
                 "--jobs", "1", "--cache-dir", cache_dir, "--no-progress"]) == 0
    capsys.readouterr()

    assert main(["campaign", "status", "--cache-dir", cache_dir, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    (backend,) = payload["backends"]
    assert backend["backend"] == "ResultCache"
    assert backend["entries"] == 3
    assert backend["integrity"]["healthy"] is True
    assert backend["integrity"]["corrupt"] == 0
    assert payload["merged"] == {"distinct_tasks": 3, "ok": 3, "failed": 0}

    # corrupt one entry on disk: exit code flips and the scan reports it
    (victim,) = sorted((tmp_path / "cache").glob("*/*.json"))[:1]
    victim.write_text("{broken", encoding="utf-8")
    assert main(["campaign", "status", "--cache-dir", cache_dir, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["backends"][0]["integrity"]["corrupt"] == 1
    assert payload["backends"][0]["integrity"]["healthy"] is False


def test_campaign_status_text_and_json_share_one_exit_rule(tmp_path, capsys):
    """Text mode renders the ``--json`` report and exits like it: 1 on a
    corrupt cache entry, not 0."""
    import json

    cache_dir = str(tmp_path / "cache")
    assert main(["campaign", "run", "--spec", "quick", "--limit", "2",
                 "--jobs", "1", "--cache-dir", cache_dir, "--no-progress"]) == 0
    capsys.readouterr()
    assert main(["campaign", "status", "--cache-dir", cache_dir]) == 0
    assert "healthy        : True" in capsys.readouterr().out

    (victim,) = sorted((tmp_path / "cache").glob("*/*.json"))[:1]
    victim.write_text("{broken", encoding="utf-8")
    assert main(["campaign", "status", "--cache-dir", cache_dir]) == 1
    text = capsys.readouterr().out
    assert main(["campaign", "status", "--cache-dir", cache_dir, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    (backend,) = payload["backends"]
    assert f"corrupt        : {backend['integrity']['corrupt']}" in text
    assert "healthy        : False" in text
    (ledger,) = payload["ledgers"]
    assert ledger["ledger"] in text and ledger["last_failed"] == 0


def test_campaign_status_extra_backend_and_run_backend_flag(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    db = str(tmp_path / "shared.db")
    assert main(["campaign", "run", "--spec", "quick", "--limit", "2",
                 "--jobs", "1", "--cache-dir", cache_dir,
                 "--cache-backend", f"sqlite:{db}", "--no-progress"]) == 0
    capsys.readouterr()

    assert main(["campaign", "status", "--cache-dir", cache_dir,
                 "--cache-backend", f"sqlite:{db}", "--json"]) == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    (backend,) = payload["backends"]
    assert backend["backend"] == "SqliteCache"
    assert backend["entries"] == 2

    assert main(["campaign", "status", "--cache-dir", cache_dir,
                 "--cache-backend", "sqlite:"]) == 2
    assert "sqlite backend needs a path" in capsys.readouterr().err


def test_sharded_runs_merge_through_a_shared_cache(tmp_path, capsys):
    """Fan-out: disjoint hash-range shards run into one cache directory,
    and ``campaign status`` reports their union as the whole spec."""
    import json

    cache_dir = str(tmp_path / "cache")
    for shard in ("1/2", "2/2"):
        assert main(["campaign", "run", "--spec", "quick", "--shard", shard,
                     "--jobs", "1", "--cache-dir", cache_dir,
                     "--no-progress"]) == 0
    capsys.readouterr()

    assert main(["campaign", "status", "--cache-dir", cache_dir, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["merged"] == {"distinct_tasks": 11, "ok": 11, "failed": 0}
    assert [entry["ledger"] for entry in payload["ledgers"]] == [
        "quick-shard1of2.jsonl", "quick-shard2of2.jsonl",
    ]


def test_capped_task_fails_by_name_and_is_not_cached(tmp_path, capsys, monkeypatch):
    """A reachability task that hits its state cap ends ``ok=False`` with
    a ``SearchLimitExceeded:`` error, stays out of the cache, and makes
    ``campaign run`` exit 1."""
    from repro.campaign import CampaignTask, read_ledger
    from repro.campaign import specs
    from repro.campaign.cache import ResultCache

    task = CampaignTask.make("reachability", "fig1", max_states=10)
    monkeypatch.setitem(specs._SPECS, "capped", lambda: [task])
    cache_dir = tmp_path / "cache"
    argv = ["campaign", "run", "--spec", "capped", "--jobs", "1",
            "--retries", "0", "--cache-dir", str(cache_dir), "--no-progress"]
    assert main(argv) == 1
    capsys.readouterr()
    results, _ = read_ledger(cache_dir / "ledgers" / "capped.jsonl")
    assert len(results) == 1
    assert results[0].ok is False
    assert results[0].error.startswith("SearchLimitExceeded:"), results[0].error
    assert ResultCache(cache_dir).get(task) is None


def test_timeout_without_a_pool_is_rejected(capsys):
    """A serial run cannot stop a task, so ``--timeout`` with ``--jobs 1``
    is refused up front (one line, exit 2) instead of silently ignored."""
    argv = ["campaign", "run", "--spec", "quick", "--limit", "1",
            "--timeout", "0.001", "--no-cache", "--no-progress"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "--jobs 2" in lines[0], captured.err
    assert captured.out == ""
