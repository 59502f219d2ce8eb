"""Lint rule registry and per-rule behaviour on crafted targets."""

import json

import pytest

from repro.analysis.state import CheckerMessage
from repro.campaign.scenarios import build_scenario
from repro.lint import (
    DEADLOCK_FREE,
    REACHABLE_DEADLOCK,
    Diagnostic,
    LintReport,
    Rule,
    all_rules,
    get_rule,
    jsonable,
    lint_algorithm,
    lint_messages,
)
from repro.lint.diagnostics import render_report, report_exit_code
from repro.lint.rules import register_rule
from repro.routing import RoutingAlgorithm, TableRouting, clockwise_ring
from repro.routing.base import RoutingFunction
from repro.topology import Network, ring


def msg(path, length, tag=""):
    return CheckerMessage(path=tuple(path), length=length, tag=tag)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_codes_unique_and_well_formed(self):
        rules = all_rules()
        codes = [r.code for r in rules]
        assert len(codes) == len(set(codes))
        families = {"TOP", "RTE", "PRP", "CDG", "CRT"}
        for r in rules:
            assert r.code[:3] in families, r.code
            assert r.severity in ("info", "warning", "error")
            assert r.paper_ref
            # exactly the CRT family carries certificates
            assert r.certificate == r.code.startswith("CRT")

    def test_get_rule(self):
        assert get_rule("CDG001").code == "CDG001"
        with pytest.raises(KeyError, match="unknown lint rule"):
            get_rule("NOPE99")

    def test_duplicate_registration_rejected(self):
        existing = all_rules()[0]
        with pytest.raises(ValueError, match="duplicate rule code"):
            register_rule(
                Rule(
                    code=existing.code,
                    title="clone",
                    severity="info",
                    paper_ref="-",
                    check=lambda ctx: [],
                )
            )


# ----------------------------------------------------------------------
# diagnostics / report plumbing
# ----------------------------------------------------------------------
class TestDiagnostics:
    def test_severity_validated(self):
        with pytest.raises(ValueError, match="severity"):
            Diagnostic(code="X", severity="fatal", message="boom")

    def test_certificate_validated(self):
        with pytest.raises(ValueError, match="certificate"):
            Diagnostic(code="X", severity="info", message="m", certificate="MAYBE")

    def test_report_verdicts_and_exit_code(self):
        rep = LintReport(target="t")
        assert rep.verdict == "undecided" and report_exit_code(rep.to_json()) == 0
        assert rep.max_severity is None
        rep.diagnostics.append(Diagnostic(code="A", severity="warning", message="w"))
        assert report_exit_code(rep.to_json()) == 0 and rep.max_severity == "warning"
        rep.diagnostics.append(Diagnostic(code="B", severity="error", message="e"))
        assert report_exit_code(rep.to_json()) == 1 and rep.max_severity == "error"
        rep.diagnostics.append(
            Diagnostic(
                code="CRT001", severity="info", message="c", certificate=DEADLOCK_FREE
            )
        )
        assert rep.verdict == "deadlock_free"
        assert rep.certificate_diagnostic.code == "CRT001"

    def test_jsonable_lowers_rich_evidence(self):
        net = ring(3)
        ch = net.channels[0]
        value = {
            ("a", "b"): [ch, msg([0, 1], 2, "M")],
            "nested": {"set": {2, 1}},
        }
        low = jsonable(value)
        assert low["('a', 'b')"][0] == {"cid": ch.cid, "name": ch.short()}
        assert low["('a', 'b')"][1] == {"path": [0, 1], "length": 2, "tag": "M"}
        assert low["nested"]["set"] == [1, 2]
        json.dumps(low)  # must be plain JSON

    def test_report_to_json_is_serialisable(self):
        net = ring(4)
        rep = lint_algorithm(RoutingAlgorithm(clockwise_ring(net, 4)))
        payload = json.loads(json.dumps(rep.to_json()))
        assert payload["verdict"] == "reachable_deadlock"
        assert payload["certificate"] == REACHABLE_DEADLOCK
        assert payload["certificate_code"] == "CRT005"
        assert payload["rules_run"] == [r.code for r in all_rules()]

    def test_render_mentions_codes_and_certificate(self):
        net = ring(4)
        rep = lint_algorithm(RoutingAlgorithm(clockwise_ring(net, 4)))
        out = render_report(rep.to_json(), verbose=True)
        assert "CRT005" in out and "certificate: REACHABLE_DEADLOCK" in out
        assert "verdict=reachable_deadlock" in out


# ----------------------------------------------------------------------
# TOP rules on crafted networks
# ----------------------------------------------------------------------
def _table_alg(net, node_paths):
    return RoutingAlgorithm(TableRouting.from_node_paths(net, node_paths))


class TestTopologyRules:
    def test_top001_dangling_nodes(self):
        net = ring(3)
        net.add_channel(0, 99)  # 99 becomes sink-only
        alg = _table_alg(net, {(0, 1): [0, 1]})
        rep = lint_algorithm(alg, pairs=[(0, 1)])
        codes = {d.code for d in rep.diagnostics}
        assert "TOP001" in codes
        (diag,) = [d for d in rep.diagnostics if d.code == "TOP001"]
        assert diag.severity == "warning"
        assert 99 in diag.evidence["sink_only"]
        assert "TOP003" in codes  # no longer strongly connected either

    def test_top002_duplicate_vc_is_error(self):
        net = Network("dup")
        net.add_channel("A", "B", vc=0)
        net.add_channel("A", "B", vc=0)  # builder bug: same link, same VC
        net.add_channel("B", "A", vc=0)
        alg = _table_alg(net, {("A", "B"): ["A", "B"]})
        rep = lint_algorithm(alg, pairs=[("A", "B")])
        (diag,) = [d for d in rep.diagnostics if d.code == "TOP002"]
        assert diag.severity == "error"
        assert report_exit_code(rep.to_json()) == 1
        assert diag.evidence["duplicates"][0]["link"] == "A->B"

    def test_clean_mesh_has_no_topology_findings(self):
        rep = lint_algorithm(
            build_scenario("baseline-cdg", {"algorithm": "dor", "dims": [3, 3]}).algorithm
        )
        codes = {d.code for d in rep.diagnostics}
        assert not codes & {"TOP001", "TOP002", "TOP003"}


# ----------------------------------------------------------------------
# RTE rules
# ----------------------------------------------------------------------
class _PingPong(RoutingFunction):
    """Broken oblivious function: bounces between two nodes forever."""

    def __init__(self, network, fwd, back):
        super().__init__(network)
        self._fwd, self._back = fwd, back

    def route(self, in_channel, node, dest):
        return self._fwd if node == self._fwd.src else self._back

    def name(self):
        return "ping-pong"


class TestRoutingRules:
    def test_rte001_undefined_route(self):
        net = ring(3)
        alg = _table_alg(net, {(0, 1): [0, 1]})
        rep = lint_algorithm(alg, pairs=[(0, 1), (0, 2)])
        (diag,) = [d for d in rep.diagnostics if d.code == "RTE001"]
        assert diag.severity == "error" and report_exit_code(rep.to_json()) == 1
        assert diag.evidence["pairs"][0]["pair"] == (0, 2)

    def test_rte002_broken_route_suppresses_certificates(self):
        net = Network("pp")
        fwd = net.add_channel(0, 1)
        back = net.add_channel(1, 0)
        net.add_channel(1, 2)
        alg = RoutingAlgorithm(_PingPong(net, fwd, back))
        rep = lint_algorithm(alg, pairs=[(0, 2)])
        (diag,) = [d for d in rep.diagnostics if d.code == "RTE002"]
        assert diag.severity == "error"
        assert diag.evidence["pairs"][0]["kind"] == "revisit"
        # a structurally broken table must never be certified either way
        assert rep.certificate is None
        assert not any(d.code.startswith("CRT") for d in rep.diagnostics)
        # ... but the certificate rules still count as having run
        assert "CRT001" in rep.rules_run

    def test_fig1_structural_findings(self):
        """The Figure 1 construction: nonminimal, ICI, both closures broken."""
        rep = lint_algorithm(build_scenario("fig1", {}).algorithm)
        codes = {d.code for d in rep.diagnostics}
        assert {"RTE003", "PRP001", "PRP002", "PRP004", "CDG001"} <= codes
        assert rep.verdict == "undecided"  # the paper's whole point
        assert report_exit_code(rep.to_json()) == 0  # structural facts, not errors
        (rte3,) = [d for d in rep.diagnostics if d.code == "RTE003"]
        assert rte3.evidence["max_slack"] >= 1


# ----------------------------------------------------------------------
# CDG rules
# ----------------------------------------------------------------------
class TestCdgRules:
    def test_cdg001_reports_cycles(self):
        net = ring(4)
        rep = lint_algorithm(RoutingAlgorithm(clockwise_ring(net, 4)))
        (diag,) = [d for d in rep.diagnostics if d.code == "CDG001"]
        assert diag.evidence["num_cycles"] == 1
        assert not diag.evidence["truncated"]
        assert len(diag.evidence["shortest_cycle"]) == 4

    def test_cdg001_absent_on_acyclic(self):
        rep = lint_algorithm(
            build_scenario("baseline-cdg", {"algorithm": "dor", "dims": [3, 3]}).algorithm
        )
        assert not any(d.code == "CDG001" for d in rep.diagnostics)

    def test_cdg002_truncation_reported(self):
        net = ring(4)
        rep = lint_algorithm(RoutingAlgorithm(clockwise_ring(net, 4)), max_cycles=0)
        (diag,) = [d for d in rep.diagnostics if d.code == "CDG002"]
        assert diag.severity == "warning"
        assert diag.evidence["max_cycles"] == 0
        # truncation is loud, and CDG001 reports the enumerated prefix as such
        (cdg1,) = [d for d in rep.diagnostics if d.code == "CDG001"]
        assert cdg1.evidence["truncated"] is True
        assert "+" in cdg1.message
        # a REACHABLE certificate may still be issued: existence only needs
        # one good cycle, so truncation never weakens it
        assert rep.verdict == "reachable_deadlock"


class TestCyclesWalked:
    """An adaptive target decided by its certificate enumerates no cycles."""

    @staticmethod
    def _lint_counting(monkeypatch, alg):
        from repro.cdg import cycles as cdg_cycles

        walked = 0
        real = cdg_cycles.simple_cycles

        def counting(adj):
            nonlocal walked
            for cycle in real(adj):
                walked += 1
                yield cycle

        monkeypatch.setattr(cdg_cycles, "simple_cycles", counting)
        return lint_algorithm(alg), walked

    def test_certified_adaptive_target_walks_no_cycles(self, monkeypatch):
        from repro.cdg.adaptive import build_adaptive_cdg

        alg = build_scenario("adaptive-mesh", {"dims": [3, 3], "routing": "escape"}).algorithm
        rep, walked = self._lint_counting(monkeypatch, alg)
        assert walked == 0
        assert rep.verdict == "deadlock_free"
        assert rep.certificate_diagnostic.code == "CRT008"
        assert "CDG002" not in [d.code for d in rep.diagnostics]
        (cdg1,) = [d for d in rep.diagnostics if d.code == "CDG001"]
        assert cdg1.evidence["num_cycles"] is None
        assert cdg1.evidence["truncated"] is None
        # one shortest cycle: four channels around one mesh square
        cycle = cdg1.evidence["shortest_cycle"]
        assert len(cycle) == 4
        adj = build_adaptive_cdg(alg.fn).adj
        assert all(cycle[(i + 1) % 4] in adj[c] for i, c in enumerate(cycle))

    def test_undecided_adaptive_target_still_enumerates(self, monkeypatch):
        alg = build_scenario("adaptive-mesh", {"dims": [3, 3], "routing": "full"}).algorithm
        rep, walked = self._lint_counting(monkeypatch, alg)
        assert rep.verdict == "undecided"
        (cdg1,) = [d for d in rep.diagnostics if d.code == "CDG001"]
        assert cdg1.evidence["num_cycles"] == walked > 0


# ----------------------------------------------------------------------
# certificate exclusivity + spec-level lint
# ----------------------------------------------------------------------
class TestEngineBehaviour:
    def test_at_most_one_certificate_diagnostic(self):
        for params in ({"algorithm": "dor", "dims": [3, 3]}, {"algorithm": "clockwise", "n": 5}):
            rep = lint_algorithm(build_scenario("baseline-cdg", params).algorithm)
            certs = [d for d in rep.diagnostics if d.certificate is not None]
            assert len(certs) == 1

    def test_lint_messages_deadlock_free(self):
        rep = lint_messages([msg([0, 1], 3, "a"), msg([2, 3], 3, "b")])
        assert rep.verdict == "deadlock_free"
        assert rep.certificate_diagnostic.code == "CRT001"
        (spc,) = [d for d in rep.diagnostics if d.code == "SPC001"]
        assert spc.evidence["acyclic"] is True
        assert spc.evidence["messages"] == 2

    def test_lint_messages_reachable(self):
        rep = lint_messages([msg([0, 1, 2], 2, "a"), msg([2, 3, 0], 2, "b")])
        assert rep.verdict == "reachable_deadlock"
        diag = rep.certificate_diagnostic
        assert diag.code == "CRT005"
        replay = diag.evidence["deadlock_messages"]
        assert sorted(m.tag for m in replay) == ["a", "b"]

    def test_lint_messages_undecided_on_fig1(self):
        """Figure 1 at face value: cyclic but *unreachable* -- no certificate."""
        rep = lint_messages(build_scenario("fig1", {}).messages)
        assert rep.verdict == "undecided"
        (spc,) = [d for d in rep.diagnostics if d.code == "SPC001"]
        assert spc.evidence["acyclic"] is False
