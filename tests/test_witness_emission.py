"""Constructive certificate witnesses: zero-search emission and replay.

ISSUE acceptance criterion: with certificates on, a certificate-decided
reachable scenario run with ``find_witness=True`` explores *zero* BFS
states yet still returns a concrete witness that (a) validates step by
step against the checker's transition relation and (b) replays through
the flit-level simulator to a real deadlock.
"""

from repro import obs
from repro.analysis.classify import classify_cycle
from repro.analysis.reachability import search_deadlock
from repro.analysis.schedules import witness_to_schedule
from repro.analysis.state import CheckerMessage, SystemSpec
from repro.campaign.scenarios import build_scenario
from repro.cdg.analysis import find_cycles
from repro.cdg.build import build_cdg
from repro.lint import (
    certificate_witness,
    lint_algorithm,
    replay_certificate_witness,
    spec_certificate,
    validate_witness,
)
from repro.obs.core import Telemetry
from repro.routing import RoutingAlgorithm, clockwise_ring
from repro.topology import ring


def msg(path, length, tag=""):
    return CheckerMessage(path=tuple(path), length=length, tag=tag)


def _ring_spec():
    return SystemSpec.uniform([msg([0, 1, 2], 2, "a"), msg([2, 3, 0], 2, "b")])


THEOREM2 = {"ring_n": 6, "entries": [0, 2, 4], "run_lens": [3, 3, 3]}


def _src_dst_for(spec, network):
    chan = {c.cid: c for c in network.channels}
    return [
        (chan[m.path[0]].src, chan[m.path[-1]].dst) for m in spec.messages
    ]


class TestZeroSearchWitness:
    def test_witness_constructed_without_search(self):
        res = search_deadlock(_ring_spec(), find_witness=True, certificates="on")
        assert res.deadlock_reachable and res.states_explored == 0
        assert res.certificate == "CRT005"
        assert res.witness is not None and res.witness.deadlocked
        assert validate_witness(res.witness)

    def test_constructed_witness_matches_bfs_verdict(self):
        bfs = search_deadlock(_ring_spec(), find_witness=True, certificates="off")
        assert bfs.deadlock_reachable and bfs.states_explored > 0
        cert = search_deadlock(_ring_spec(), find_witness=True, certificates="on")
        assert cert.deadlock_reachable
        # both witnesses end in a genuine wait-for cycle
        assert validate_witness(bfs.witness) and validate_witness(cert.witness)

    def test_emission_bumps_counters(self):
        with obs.scope(Telemetry()) as tel:
            res = search_deadlock(
                _ring_spec(), find_witness=True, certificates="on"
            )
        assert res.witness is not None
        assert tel.counters["lint.certificate.witness_emitted"] == 1

    def test_fastpath_counted_in_telemetry(self):
        tel = Telemetry()
        with obs.scope(tel):
            res = search_deadlock(
                _ring_spec(), find_witness=True, certificates="on"
            )
        assert res.states_explored == 0
        assert tel.counters.get("search.certificate_short_circuits") == 1
        assert tel.counters.get("lint.certificate.witness_emitted") == 1

    def test_non_constructive_certificate_returns_none(self):
        # fig2-pair is decided by CRT007 (shared-channel theorem), which has
        # no constructive schedule: witness mode must fall back to the BFS
        bundle = build_scenario("fig2-pair", {"d1": 3, "d2": 1, "hold": 3})
        diag = lint_algorithm(bundle.algorithm).certificate_diagnostic
        assert diag.code == "CRT007"


class TestAcceptanceReplay:
    """The end-to-end criterion: certificate witness replays on the sim."""

    def test_theorem2_witness_replays_to_deadlock(self):
        bundle = build_scenario("theorem2-overlap", THEOREM2)
        spec = SystemSpec.uniform(bundle.messages)
        res = search_deadlock(spec, find_witness=True, certificates="on")
        assert res.deadlock_reachable and res.states_explored == 0
        assert res.certificate == "CRT005" and res.witness is not None
        assert validate_witness(res.witness)

        net = bundle.algorithm.network
        src_dst = _src_dst_for(res.witness.spec, net)
        with obs.scope(Telemetry()) as tel:
            assert replay_certificate_witness(
                res.witness, net, bundle.algorithm.fn, src_dst
            )
        assert tel.counters["lint.certificate.replay.pass"] == 1

    def test_classify_witness_replays_to_deadlock(self):
        net = ring(4)
        alg = RoutingAlgorithm(clockwise_ring(net, 4))
        (cycle,) = find_cycles(build_cdg(alg)).cycles
        cls = classify_cycle(alg, cycle, certificates="on")
        wit = cls.witness_result.witness
        assert wit is not None
        src_dst = _src_dst_for(wit.spec, net)
        assert replay_certificate_witness(wit, net, alg.fn, src_dst)


class TestClassifyWitnessAttachment:
    def test_classify_attaches_zero_search_witness(self):
        net = ring(4)
        alg = RoutingAlgorithm(clockwise_ring(net, 4))
        (cycle,) = find_cycles(build_cdg(alg)).cycles
        cls = classify_cycle(alg, cycle, certificates="on")
        assert cls.deadlock_reachable and cls.certificate == "CRT005"
        assert cls.scenarios_tested == 0
        assert cls.witness_result is not None
        assert cls.witness_result.states_explored == 0
        assert cls.witness_result.witness is not None
        assert validate_witness(cls.witness_result.witness)


class TestScheduleHorizon:
    def test_never_injected_messages_wait_past_horizon(self):
        """Non-member messages must not contend with the scripted prefix."""
        spec = SystemSpec.uniform(
            [
                msg([0, 1, 2], 2, "a"),
                msg([2, 3, 0], 2, "b"),
                msg([4], 1, "bystander"),
            ]
        )
        res = search_deadlock(spec, find_witness=True, certificates="off")
        assert res.deadlock_reachable and res.witness is not None
        sched = witness_to_schedule(
            res.witness, src_dst=[(0, 2), (2, 0), (4, 5)]
        )
        horizon = len(res.witness.steps)
        injected = {
            i
            for t, acts in enumerate(res.witness.steps)
            for i, a in enumerate(acts)
            if a == "try"
        }
        for s in sched.specs:
            if s.mid not in injected:
                assert s.inject_time == horizon


class TestCertificateWitnessAPI:
    def test_standalone_path_builds_spec(self):
        cert = spec_certificate(_ring_spec())
        assert cert is not None and cert.code == "CRT005"
        wit = certificate_witness(cert)
        assert wit is not None and validate_witness(wit)

    def test_deadlock_free_certificate_yields_no_witness(self):
        spec = SystemSpec.uniform([msg([0, 1], 1, "solo")])
        cert = spec_certificate(spec)
        assert cert is not None and not cert.deadlock_reachable
        assert certificate_witness(cert) is None

    def test_evidence_free_certificate_declines(self):
        from repro.lint.certificates import Certificate

        # a CRT005-shaped certificate with no usable evidence: the builder
        # must decline rather than guess
        bogus = Certificate(
            code="CRT005", verdict="REACHABLE_DEADLOCK", rationale="no evidence"
        )
        assert certificate_witness(bogus) is None

    def test_inconsistent_tiling_counted_as_failure(self):
        from repro.lint import build_crt005_witness

        spec = _ring_spec()
        # held lengths that do not sum to the cycle length: reject + count
        with obs.scope(Telemetry()) as tel:
            assert (
                build_crt005_witness(spec, [0, 1], [0, 2], [2, 1], [0, 1, 2, 3])
                is None
            )
        assert tel.counters["lint.certificate.witness_failed"] == 1
