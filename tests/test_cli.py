"""CLI smoke tests (fast subcommands only)."""

import pytest

from repro.cli import build_parser, main


def test_parser_lists_all_commands():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("fig1", "fig2", "fig3", "theorem2", "theorem3", "gen", "traffic", "dot"):
        assert cmd in text


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_dot_fig1_network(capsys):
    assert main(["dot", "fig1-network"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert '"cs"' in out or "Src" in out


def test_dot_fig1_cdg(capsys):
    assert main(["dot", "fig1-cdg"]) == 0
    out = capsys.readouterr().out
    assert 'color="red"' in out  # the 14-channel cycle is highlighted


def test_gen_m1(capsys):
    assert main(["gen", "--max-m", "1"]) == 0
    out = capsys.readouterr().out
    assert "Gen(m)" in out or "min delay" in out


def test_theorem3_quick(capsys):
    assert main(["theorem3", "--limit", "6"]) == 0
    out = capsys.readouterr().out
    assert "theorem3_holds" in out


def test_traffic_tiny(capsys):
    assert main(["traffic", "--rates", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "positive control" in out


def _failing_runner(bundle, p):
    raise RuntimeError("injected failure")


@pytest.mark.parametrize(
    "argv",
    [["fig2"], ["fig3"], ["theorem3", "--limit", "6"], ["gen", "--max-m", "1"],
     ["fig1"], ["theorem2"], ["traffic", "--rates", "0.02"]],
    ids=["fig2", "fig3", "theorem3", "gen", "fig1", "theorem2", "traffic"],
)
def test_grid_task_failure_is_a_named_error(argv, capsys, monkeypatch):
    """A failed grid task ends the command with one named stderr line and
    exit 2, not a traceback."""
    from repro.campaign import tasks

    for kind in ("reachability", "classify", "min_delay", "simulate"):
        monkeypatch.setitem(tasks._KIND_RUNNERS, kind, _failing_runner)
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith(f"{argv[0]}: ")
    assert "RuntimeError: injected failure" in lines[0]
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, error",
    [
        (["gen", "--max-m", "0"], "gen grid is empty"),
        (["theorem3", "--limit", "0"], "theorem3 grid is empty"),
        (["fig3", "--sweep", "-3"], "fig3-sweep grid is empty"),
        (["traffic", "--rates", "2"], "ValueError: rate must be in [0, 1]"),
        (["fig1", "--max-delay", "-1"], "ValueError: max_delay must be >= 0"),
    ],
    ids=["gen", "theorem3", "fig3", "traffic", "fig1"],
)
def test_empty_or_out_of_range_grid_is_a_named_error(argv, error, capsys):
    """A grid with no task, or a task argument out of range, is one named
    stderr line and exit 2: not a verdict over nothing, nor a traceback."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith(f"{argv[0]}: ")
    assert error in lines[0]
    assert captured.out == ""


def test_theorem2_exit_reads_the_corollary_table(capsys, monkeypatch):
    """An invalid Dally--Seitz numbering fails ``theorem2`` (exit 1) and
    shows in the baseline rows, rather than tripping an ``assert``."""
    from repro.campaign import tasks

    def bad_numbering(bundle, p):
        return "acyclic", {"acyclic": True, "numbering_valid": False}

    monkeypatch.setitem(tasks._KIND_RUNNERS, "cdg", bad_numbering)
    assert main(["theorem2"]) == 1
    out = capsys.readouterr().out
    assert out.count("no numbering") == 3


@pytest.mark.parametrize("exc_name", ["SearchLimitExceeded", "KernelOutOfMemory"])
def test_fig1_search_limit_is_a_named_error(exc_name, capsys, monkeypatch):
    """A state cap (or kernel memory) hit ends ``fig1`` with one named
    stderr line and exit 2, as ``search`` and ``classify`` do."""
    import repro.analysis
    from repro.analysis import reachability

    exc = (
        reachability.KernelOutOfMemory(123)
        if exc_name == "KernelOutOfMemory"
        else reachability.SearchLimitExceeded("exceeded 10 states")
    )

    def capped(*args, **kwargs):
        raise exc

    # the search the fig1 tasks call
    monkeypatch.setattr(repro.analysis, "search_deadlock", capped)
    assert main(["fig1"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("fig1: ")
    assert lines[0].endswith(f"{exc_name}: {exc}")
    assert captured.out == ""


def test_serve_timeout_without_a_pool_is_rejected(capsys, monkeypatch):
    """``serve --timeout`` with the default ``--jobs 1`` could never stop
    a task: one line, exit 2, before the server starts."""
    from repro.serve import ReproServer, ServeConfig

    def run(self, announce=None):
        raise AssertionError("the server started")

    monkeypatch.setattr(ReproServer, "run", run)
    with pytest.raises(ValueError, match="--jobs 2"):
        ReproServer(ServeConfig(cache_backend="memory", task_timeout=1.0))
    argv = ["serve", "--port", "0", "--cache-backend", "memory", "--timeout", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("serve: "), captured.err
    assert "--jobs 2" in lines[0]
