"""Cold start: what a fresh ``repro search``/``classify``/``lint`` process loads.

A fresh CLI process answers a small query in milliseconds of search, so
its wall time is start-up, and start-up is imports.  These tests run each
of the perfbench ``cli-fresh`` commands in a new interpreter and inspect
``sys.modules`` afterwards:

* ``search``/``classify`` load no numpy, networkx or numba, none of the
  serve stack (asyncio, ``http.server``), no sqlite3, and neither the
  simulator engine nor the serve server;
* ``lint`` keeps networkx (CDG construction) but loads no numpy;
* every search engine (``kernel``, ``fast``, ``reference``) loads no
  numpy and answers byte for byte as the default does;
* the serve HTTP client is a pure client: none of the campaign stack,
  sqlite3 or a process pool.

A module that grows a top-level import of one of these, or a package
``__init__`` that starts re-exporting a heavy sibling eagerly, fails here.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: the perfbench cli-fresh commands
COMMANDS = {
    "lint-fig1": ["lint", "fig1", "--json"],
    "search-fig2-pair-witness": [
        "search", "fig2-pair", "--params", '{"d1":3,"d2":1,"hold":3}',
        "--witness", "--json",
    ],
    "search-fig1": ["search", "fig1", "--json"],
    "classify-fig3a": ["classify", "fig3-panel", "--params", '{"panel":"a"}', "--json"],
    "search-gen1-budget1": [
        "search", "gen", "--params", '{"m":1}', "--budget", "1", "--json",
    ],
}

SEARCH_FORBIDDEN = {
    "numpy",
    "numba",
    "networkx",
    "asyncio",
    "http.server",
    "sqlite3",
    "repro.sim.engine",
    "repro.serve.server",
}

_CHILD = """
import contextlib, io, json, sys
from repro.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "stdout": out.getvalue(), "modules": sorted(sys.modules)}))
"""


def _run(args: list[str], **env_extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), **env_extra)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *args],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    got = json.loads(proc.stdout)
    assert got["rc"] == 0, proc.stderr
    return got


def _probe(code: str):
    """Run ``code`` in a fresh interpreter; parse the JSON it prints."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "name", [n for n in COMMANDS if not n.startswith("lint")]
)
def test_search_and_classify_start_light(name):
    loaded = set(_run(COMMANDS[name])["modules"])
    assert not loaded & SEARCH_FORBIDDEN, sorted(loaded & SEARCH_FORBIDDEN)


def test_lint_loads_no_numpy():
    loaded = set(_run(COMMANDS["lint-fig1"])["modules"])
    assert "numpy" not in loaded
    assert "networkx" in loaded  # the CDG stays a networkx graph


@functools.cache
def _default_search_fig1() -> str:
    return _run(COMMANDS["search-fig1"])["stdout"]


@pytest.mark.parametrize("engine", ["kernel", "reference"])
def test_every_engine_loads_no_numpy(engine):
    """Whichever engine is named, a fresh search loads none of the
    forbidden modules and answers exactly as the default engine does."""
    got = _run([*COMMANDS["search-fig1"], "--search-engine", engine])
    loaded = set(got["modules"])
    assert not loaded & SEARCH_FORBIDDEN, sorted(loaded & SEARCH_FORBIDDEN)
    assert got["stdout"] == _default_search_fig1()


def test_serve_client_loads_no_campaign_stack():
    loaded = set(_probe(
        "import json, sys, repro.serve.client; print(json.dumps(sorted(sys.modules)))"
    ))
    heavy = {
        m for m in loaded
        if m.startswith("repro.campaign") or m in ("sqlite3", "concurrent.futures")
    }
    assert not heavy, sorted(heavy)


def test_lazy_reexports_keep_every_public_path():
    """The PEP 562 package ``__init__``s still serve every name in
    ``__all__`` (the same object the defining module holds), and a
    submodule reached as an attribute of its package, as the eager
    ``__init__``s allowed."""
    probe = """
import importlib, json
import repro.campaign
out = {"submodule": repro.campaign.scenarios.__name__}  # never imported before
for pkg in ("analysis", "campaign", "cdg", "core", "experiments", "lint", "serve"):
    mod = importlib.import_module("repro." + pkg)
    for name in mod.__all__:
        home = importlib.import_module(f"repro.{pkg}.{mod._EXPORTS[name]}")
        assert getattr(mod, name) is getattr(home, name), (pkg, name)
        assert name in dir(mod), (pkg, name)
    out[pkg] = len(mod.__all__)
print(json.dumps(out))
"""
    got = _probe(probe)
    assert got.pop("submodule") == "repro.campaign.scenarios"
    assert all(count > 0 for count in got.values()), got
