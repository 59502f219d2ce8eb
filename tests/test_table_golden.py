"""Golden transition tables of the compiled search kernel.

:class:`repro.analysis.kernelpath._TableBuilder` turns a spec into the
flat per-message tables the C loop reads.  The kernel differential suite
compares the kernel's answers with the reference engine's, so a table
change that happens to keep every answer on the tested specs would pass
there; this file pins the tables themselves against
``tests/fixtures/table_golden.json``.

The fixture holds every distinct search spec of the ``paper-battery``
campaign (paths, lengths and budgets; message tags do not reach the
tables), searched with the static certificates off and on.  Per spec it
keeps a sha256 over all of its tables, and per table name a sha256 over
that table in every spec, in fixture order:

``req blk occ nops ch0 nxt0 acq0 rel0 nxt1 wait1 init cls_off cls_cols``
    the :class:`array.array` buffers, as raw bytes.  The fixture was
    recorded when the channel a state requests (``req``) and the one its
    first move acquires (``acq0``) were arrays of their own; they always
    equalled ``ch0``, which is now the one array, hashed under all three
    names;
``back``
    the per-message states by index;
``bit_of`` and ``shape``
    the channel-to-bit map, and ``(S, W, ncls, num_bits)``.

The fixture records the table layout the C loop reads; it is not
rewritten to make a change pass.  Only a deliberate change of that layout
may regenerate it (this runs the whole battery in-process, a few
seconds)::

    PYTHONPATH=src python tests/test_table_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Any

import pytest

from repro.analysis import kernelpath
from repro.analysis.state import CheckerMessage, SystemSpec

FIXTURE = Path(__file__).parent / "fixtures" / "table_golden.json"

ARRAYS = (
    "req", "blk", "occ", "nops", "ch0", "nxt0", "acq0", "rel0",
    "nxt1", "wait1", "init", "cls_off", "cls_cols",
)
PARTS = ARRAYS + ("back", "bit_of", "shape")
#: recorded table names now served by one merged array
MERGED = {"req": "ch0", "acq0": "ch0"}


def _part_bytes(tables: kernelpath._TableBuilder) -> dict[str, bytes]:
    out = {name: getattr(tables, MERGED.get(name, name)).tobytes() for name in ARRAYS}
    out["back"] = repr(tables.back).encode()
    out["bit_of"] = repr(sorted(tables.bit_of.items())).encode()
    out["shape"] = repr((tables.S, tables.W, tables.ncls, tables.num_bits)).encode()
    return out


def _spec(entry: dict[str, Any]) -> SystemSpec:
    msgs = [
        CheckerMessage(path=tuple(p), length=ln)
        for p, ln in zip(entry["paths"], entry["lengths"])
    ]
    return SystemSpec(messages=tuple(msgs), budgets=tuple(entry["budgets"]))


def fingerprint(entries: list[dict[str, Any]]) -> dict[str, Any]:
    """Per-spec and per-table digests of the tables of ``entries``."""
    per_table = {name: hashlib.sha256() for name in PARTS}
    per_spec: list[str] = []
    for entry in entries:
        parts = _part_bytes(kernelpath._TableBuilder(_spec(entry)))
        digest = hashlib.sha256()
        for name in PARTS:
            per_table[name].update(parts[name])
            digest.update(name.encode() + b"\0" + parts[name] + b"\0")
        per_spec.append(digest.hexdigest())
    return {
        "per_spec": per_spec,
        "per_table": {name: h.hexdigest() for name, h in per_table.items()},
    }


def battery_specs() -> list[dict[str, Any]]:
    """Every distinct spec the paper battery's searches build tables for,
    with the certificates off and on, in first-build order."""
    from repro.campaign.specs import build_spec
    from repro.campaign.tasks import execute_task

    seen: dict[tuple, None] = {}
    real_init = kernelpath._TableBuilder.__init__

    def record(self, spec: SystemSpec) -> None:
        key = (
            tuple(m.path for m in spec.messages),
            tuple(m.length for m in spec.messages),
            spec.budgets,
        )
        seen.setdefault(key, None)
        real_init(self, spec)

    saved = os.environ.get("REPRO_STATIC_CERTIFICATES")
    kernelpath._TableBuilder.__init__ = record  # type: ignore[method-assign]
    try:
        for mode in ("off", "on"):
            os.environ["REPRO_STATIC_CERTIFICATES"] = mode
            kernelpath.clear_caches()
            for task in build_spec("paper-battery"):
                execute_task(task)
    finally:
        kernelpath._TableBuilder.__init__ = real_init  # type: ignore[method-assign]
        kernelpath.clear_caches()
        if saved is None:
            os.environ.pop("REPRO_STATIC_CERTIFICATES", None)
        else:
            os.environ["REPRO_STATIC_CERTIFICATES"] = saved
    return [
        {"paths": [list(p) for p in paths], "lengths": list(lens), "budgets": list(buds)}
        for paths, lens, buds in seen
    ]


@pytest.fixture(scope="module")
def golden() -> dict[str, Any]:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def current(golden) -> dict[str, Any]:
    return fingerprint(golden["specs"])


def test_fixture_is_the_battery_at_scale(golden):
    assert len(golden["specs"]) == len(golden["per_spec"]) > 100
    assert sorted(golden["per_table"]) == sorted(PARTS)


@pytest.mark.parametrize("name", PARTS)
def test_table_matches_golden(name, golden, current):
    assert current["per_table"][name] == golden["per_table"][name]


def test_every_spec_matches_golden(golden, current):
    bad = [
        i for i, (a, b) in enumerate(zip(current["per_spec"], golden["per_spec"]))
        if a != b
    ]
    assert not bad, f"tables differ for fixture specs {bad[:10]}"


@pytest.mark.parametrize("forge", ["other-channel", "unrequested-channel"])
def test_builder_refuses_a_train_that_gains_an_unrequested_channel(forge, monkeypatch):
    """The C loop marks a granted move's ``ch0`` as acquired, so a train
    that gains any other channel must stop the build, not mislead it."""
    spec = SystemSpec(
        messages=(CheckerMessage(path=(3, 4, 5), length=2),), budgets=(0,)
    )
    real = SystemSpec.flit_train

    def forged(self, i, ms):
        train = real(self, i, ms)
        if forge == "other-channel" and train == (3,):
            return (4,)  # the injection requests 3
        if forge == "unrequested-channel" and ms[0] == 4:
            return train + (3,)  # the arrival into the node requests nothing
        return train

    monkeypatch.setattr(SystemSpec, "flit_train", forged)
    with pytest.raises(RuntimeError, match="gains"):
        kernelpath._TableBuilder(spec)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_table_golden.py --write")
    specs = battery_specs()
    digests = fingerprint(specs)

    def rows(items: list) -> str:
        # one spec or digest a line: small diffs, a readable fixture
        return "[\n" + ",\n".join("  " + json.dumps(x) for x in items) + "\n ]"

    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        "{\n"
        f' "per_spec": {rows(digests["per_spec"])},\n'
        f' "per_table": {json.dumps(digests["per_table"], indent=2, sort_keys=True)},\n'
        f' "specs": {rows(specs)}\n'
        "}\n"
    )
    print(f"wrote {len(specs)} specs to {FIXTURE}")
