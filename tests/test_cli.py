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
    [["fig2"], ["fig3"], ["theorem3", "--limit", "6"], ["gen", "--max-m", "1"]],
    ids=["fig2", "fig3", "theorem3", "gen"],
)
def test_grid_task_failure_is_a_named_error(argv, capsys, monkeypatch):
    """A failed grid task ends the command with one named stderr line and
    exit 2, not a traceback."""
    from repro.campaign import tasks

    for kind in ("reachability", "classify", "min_delay"):
        monkeypatch.setitem(tasks._KIND_RUNNERS, kind, _failing_runner)
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith(f"{argv[0]}: ")
    assert "RuntimeError: injected failure" in lines[0]
    assert captured.out == ""
