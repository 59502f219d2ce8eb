"""Task model: content hashing, normalisation, serialisation, execution."""

import json
import subprocess
import sys

import pytest

from repro.campaign.tasks import SCHEMA_VERSION, CampaignTask, TaskResult, execute_task


def test_hash_independent_of_param_ordering():
    a = CampaignTask(kind="reachability", scenario="fig2-pair",
                     params=(("d1", 3), ("d2", 1), ("hold", 3)))
    b = CampaignTask(kind="reachability", scenario="fig2-pair",
                     params=(("hold", 3), ("d2", 1), ("d1", 3)))
    assert a == b
    assert a.task_hash == b.task_hash
    assert hash(a) == hash(b)


def test_hash_stable_across_process_restarts():
    """The content hash is a pure function of the canonical JSON.

    Pinned to a literal so any drift (field renames, canonicalisation
    changes) fails loudly -- the on-disk cache depends on this stability.
    A fresh interpreter recomputes the same digest (no per-process hash
    randomisation leaks in).
    """
    task = CampaignTask.make("reachability", "fig1", budget=0)
    assert (
        task.canonical_json()
        == '{"kind":"reachability","params":{"budget":0},"scenario":"fig1"}'
    )
    assert task.task_hash == (
        "993e8082e87200f349145561dd9e40189762f320da4d4bb3fb54142a24c7c2c1"
    )
    code = (
        "from repro.campaign.tasks import CampaignTask;"
        "print(CampaignTask.make('reachability', 'fig1', budget=0).task_hash)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == task.task_hash


def test_params_normalised_to_hashable_tuples():
    task = CampaignTask.make("classify", "shared-cycle",
                             approaches=[2, 3, 1], holds=(4, 4, 4))
    assert task.params_dict()["approaches"] == (2, 3, 1)
    hash(task)  # tuples throughout -> hashable
    json.loads(task.canonical_json())  # and canonically JSON-able


def test_expect_excluded_from_identity():
    plain = CampaignTask.make("reachability", "fig1")
    expecting = CampaignTask.make("reachability", "fig1", expect="unreachable")
    assert plain == expecting
    assert plain.task_hash == expecting.task_hash


def test_rejects_unknown_kind_and_duplicate_keys():
    with pytest.raises(ValueError, match="unknown analysis kind"):
        CampaignTask(kind="frobnicate", scenario="fig1")
    with pytest.raises(ValueError, match="duplicate parameter"):
        CampaignTask(kind="reachability", scenario="fig1",
                     params=(("m", 1), ("m", 2)))


def test_json_round_trip():
    task = CampaignTask.make(
        "min_delay", "gen", m=2, max_delay=5, expect="delta=2"
    )
    clone = CampaignTask.from_json(task.to_json())
    assert clone == task
    assert clone.task_hash == task.task_hash
    assert clone.expect == "delta=2"


def test_execute_reachability_fig2_deadlocks():
    task = CampaignTask.make(
        "reachability", "fig2-pair", d1=3, d2=1, hold=3, expect="deadlock"
    )
    res = execute_task(task)
    assert res.ok and res.verdict == "deadlock"
    assert res.detail["states_explored"] > 0
    assert res.expect_matches is True
    assert res.task_hash == task.task_hash


def test_simulate_reports_unrounded_figures():
    """The V1 table rounds latency and throughput once; a task that had
    rounded them already would print some points differently."""
    from repro.campaign.scenarios import build_scenario
    from repro.sim import SimConfig, Simulator

    params = {"algorithm": "dor", "dims": (4, 4), "rate": 0.02, "cycles": 60}
    res = execute_task(CampaignTask.make("simulate", "traffic", **params))
    net, routing, specs = build_scenario("traffic", params).sim
    stats = Simulator(net, routing, specs, config=SimConfig(max_cycles=60_000)).run().stats
    assert res.detail["mean_latency"] == stats.mean_latency()
    assert res.detail["throughput"] == stats.throughput_flits_per_cycle()


def test_execute_captures_task_errors():
    res = execute_task(CampaignTask.make("classify", "fig3-panel", panel="z"))
    assert not res.ok
    assert res.verdict == "error"
    assert "KeyError" in res.error


def test_execute_unknown_scenario_is_captured():
    res = execute_task(CampaignTask.make("reachability", "no-such-scenario"))
    assert not res.ok and "unknown scenario" in res.error


def test_result_round_trip_and_schema_version():
    res = execute_task(CampaignTask.make("cdg", "baseline-cdg",
                                         algorithm="dor", dims=(3, 3)))
    assert res.verdict == "acyclic" and res.detail["numbering_valid"]
    clone = TaskResult.from_json(json.loads(json.dumps(res.to_json())))
    assert clone.verdict == res.verdict
    assert clone.detail["acyclic"] is True
    assert isinstance(SCHEMA_VERSION, int)


def test_parse_shard_accepts_valid_selectors():
    from repro.campaign.tasks import parse_shard

    assert parse_shard("1/4") == (1, 4)
    assert parse_shard("4/4") == (4, 4)
    assert parse_shard(" 2 / 3 ") == (2, 3)


def test_parse_shard_rejects_bad_selectors():
    from repro.campaign.tasks import parse_shard

    with pytest.raises(ValueError, match="1-based"):
        parse_shard("0/4")
    with pytest.raises(ValueError, match="exceeds shard count"):
        parse_shard("5/4")
    with pytest.raises(ValueError, match="two integers"):
        parse_shard("x/4")
    with pytest.raises(ValueError, match="positive integer"):
        parse_shard("1/0")
    with pytest.raises(ValueError, match="positive integer"):
        parse_shard("1/-2")
    with pytest.raises(ValueError, match="look like 'i/n'"):
        parse_shard("1-4")


def test_shard_tasks_partition_is_disjoint_and_complete():
    from repro.campaign.tasks import shard_tasks

    tasks = [
        CampaignTask.make("reachability", "fig2-pair", d1=1, d2=1, hold=h)
        for h in range(2, 12)
    ]
    shards = [shard_tasks(tasks, index, 3) for index in (1, 2, 3)]
    merged = [t.task_hash for shard in shards for t in shard]
    assert sorted(merged) == sorted(t.task_hash for t in tasks)
    assert len(set(merged)) == len(tasks)


# ----------------------------------------------------------------------
# v5 task kinds: adaptive exhaustive search + witness/replay cross-check
# ----------------------------------------------------------------------
class TestAdaptiveKind:
    def test_escape_mesh_unreachable(self):
        task = CampaignTask.make(
            "adaptive", "adaptive-mesh",
            routing="escape", dims=[2, 2], msgs=2, expect="unreachable",
        )
        res = execute_task(task)
        assert res.ok and res.verdict == "unreachable"
        assert res.expect_matches is True
        # the search confirms what CRT008 certifies (default mode: on)
        assert res.detail["certificate"] == "CRT008"
        assert res.detail["states_explored"] == 0

    def test_full_mesh_four_corners_deadlocks(self):
        task = CampaignTask.make(
            "adaptive", "adaptive-mesh",
            routing="full", dims=[2, 2], msgs=4, expect="deadlock",
        )
        res = execute_task(task)
        assert res.ok and res.verdict == "deadlock"
        assert set(res.detail["deadlocked_tags"]) == {"c0", "c1", "c2", "c3"}
        assert res.detail["certificate"] is None
        # the search's witness: all four corners take their first hop at once
        assert res.detail["witness_cycles"] == 1

    def test_unreachable_search_records_no_witness(self):
        task = CampaignTask.make(
            "adaptive", "adaptive-mesh",
            routing="full", dims=[2, 2], msgs=2, expect="unreachable",
        )
        res = execute_task(task)
        assert res.ok and res.verdict == "unreachable"
        assert res.detail["states_explored"] == 71
        assert res.detail["witness_cycles"] is None

    def test_non_adaptive_scenario_is_captured(self):
        res = execute_task(CampaignTask.make("adaptive", "fig1"))
        assert not res.ok and res.verdict == "error"
        assert "adaptive routing function" in res.error


class TestCrossCheckKind:
    def test_theorem2_certificate_witness_replays(self):
        task = CampaignTask.make(
            "cross_check", "theorem2-overlap",
            ring_n=6, entries=[0, 2, 4], run_lens=[3, 3, 3], expect="deadlock",
        )
        res = execute_task(task)
        assert res.ok and res.verdict == "deadlock"
        assert res.detail["witness_valid"] is True
        assert res.detail["replay_deadlocked"] is True

    def test_bfs_witness_also_replays(self, monkeypatch):
        # with certificates off the witness comes from the BFS; the
        # validation + replay pipeline must accept it identically
        monkeypatch.setenv("REPRO_STATIC_CERTIFICATES", "off")
        task = CampaignTask.make(
            "cross_check", "fig2-pair", d1=3, d2=1, hold=3, expect="deadlock"
        )
        res = execute_task(task)
        assert res.ok and res.verdict == "deadlock"
        assert res.detail["states_explored"] > 0
        assert res.detail["witness_valid"] is True
        assert res.detail["replay_deadlocked"] is True

    def test_scenario_without_messages_is_captured(self):
        res = execute_task(
            CampaignTask.make(
                "cross_check", "adaptive-mesh",
                routing="full", dims=[2, 2], msgs=4,
            )
        )
        assert not res.ok and "messages" in res.error


@pytest.mark.parametrize(
    "task, wording",
    [
        (CampaignTask.make("reachability", "ring-cycle", n=4),
         "scenario 'ring-cycle' exposes no message set"),
        (CampaignTask.make("min_delay", "ring-cycle", n=4),
         "scenario 'ring-cycle' exposes no message set"),
        (CampaignTask.make("classify", "adaptive-mesh", dims=[3, 3], routing="escape"),
         "scenario 'adaptive-mesh' exposes neither a CDG cycle nor a message set"),
    ],
    ids=["reachability", "min-delay", "classify"],
)
def test_no_verdict_over_no_messages(task, wording):
    """A question about no messages has no answer: the task fails for good
    (``final``: no retry, never cached) instead of certifying zero messages
    deadlock-free."""
    res = execute_task(task)
    assert not res.ok and res.final, res
    assert res.error == f"ValueError: {wording}"


def test_reachability_witness_param_records_the_schedule():
    """``witness`` reconstructs the deadlock schedule: its cycle count and
    the lines of ``Witness.render()``; without it no witness is recorded."""
    from repro.analysis import SystemSpec, search_deadlock
    from repro.campaign.scenarios import build_scenario

    params = {"d1": 3, "d2": 1, "hold": 3}
    res = execute_task(CampaignTask.make("reachability", "fig2-pair", witness=True, **params))
    assert res.ok and res.verdict == "deadlock"
    spec = SystemSpec.uniform(build_scenario("fig2-pair", params).messages)
    witness = search_deadlock(spec, find_witness=True).witness
    assert res.detail["witness_cycles"] == witness.num_cycles
    assert "\n".join(res.detail["witness_lines"]) == witness.render()
    assert res.detail["messages"] == 2

    plain = execute_task(CampaignTask.make("reachability", "fig2-pair", **params))
    assert "witness_cycles" not in plain.detail
    assert "witness_lines" not in plain.detail
