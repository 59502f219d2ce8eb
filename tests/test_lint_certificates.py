"""Certificate soundness: static verdicts cross-checked against the search.

The acceptance bar for the static fast-path: wherever the linter issues a
certificate, the search/classify oracle (run with ``certificates="off"``)
must agree, and every REACHABLE_DEADLOCK certificate must carry a concrete
message set that the search engine confirms deadlocks.  Dally--Seitz-acyclic
scenarios must be decided with *zero* BFS states explored.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.classify import classify_cycle
from repro.analysis.reachability import SearchResult, search_deadlock
from repro.analysis.state import CheckerMessage, SystemSpec
from repro.campaign.scenarios import build_scenario
from repro.cdg.analysis import find_cycles
from repro.cdg.build import build_cdg
from repro.lint import (
    ENV_VAR,
    CertificateMismatch,
    certificates_mode,
    cycle_runs,
    enumerate_tilings,
    lint_algorithm,
    spec_certificate,
)
from repro.routing import RoutingAlgorithm, clockwise_ring
from repro.routing.paths import first_occurrence_prefix, suffix_from
from repro.topology import ring


def msg(path, length, tag=""):
    return CheckerMessage(path=tuple(path), length=length, tag=tag)


def _ring_spec():
    return SystemSpec.uniform([msg([0, 1, 2], 2, "a"), msg([2, 3, 0], 2, "b")])


# ----------------------------------------------------------------------
# registry-wide cross-check (ISSUE acceptance criterion)
# ----------------------------------------------------------------------
#: every campaign-registry scenario family, with the certificate the linter
#: is expected to issue (pinned empirically; None = honestly undecided)
REGISTRY_MATRIX = [
    ("fig1", {}, None),
    ("fig2-pair", {"d1": 3, "d2": 1, "hold": 3}, "CRT007"),
    ("fig3-panel", {"panel": "a"}, None),
    ("shared-cycle", {"approaches": [1, 2, 3], "holds": [2, 2, 2]}, None),
    ("minimal-config", {"approaches": [1, 1, 1], "holds": [1, 1, 1]}, None),
    (
        "theorem2-overlap",
        {"ring_n": 6, "entries": [0, 2, 4], "run_lens": [3, 3, 3]},
        "CRT005",
    ),
    ("gen", {"m": 1}, None),
    ("gen", {"m": 2}, None),
    ("baseline-cdg", {"algorithm": "dor", "dims": [3, 3]}, "CRT001"),
    ("baseline-cdg", {"algorithm": "west-first", "dims": [3, 3]}, "CRT001"),
    ("baseline-cdg", {"algorithm": "ecube", "d": 3}, "CRT001"),
    ("baseline-cdg", {"algorithm": "dateline", "dims": [4, 4]}, "CRT001"),
    ("baseline-cdg", {"algorithm": "clockwise", "n": 5}, "CRT005"),
    ("ring-cycle", {"n": 4}, "CRT005"),
    ("traffic", {"algorithm": "dor", "dims": [2, 2], "cycles": 20}, "CRT001"),
]

_IDS = [
    f"{name}-{i}" for i, (name, _p, _c) in enumerate(REGISTRY_MATRIX)
]


@pytest.mark.parametrize("name,params,expected_code", REGISTRY_MATRIX, ids=_IDS)
def test_registry_certificate_matrix(name, params, expected_code):
    """Each scenario family gets exactly the pinned static verdict."""
    bundle = build_scenario(name, params)
    report = lint_algorithm(bundle.algorithm)
    diag = report.certificate_diagnostic
    assert (None if diag is None else diag.code) == expected_code


@pytest.mark.parametrize("name,params,expected_code", REGISTRY_MATRIX, ids=_IDS)
def test_registry_certificates_agree_with_search(name, params, expected_code):
    """Static certificates replay through the search oracle and agree."""
    bundle = build_scenario(name, params)
    report = lint_algorithm(bundle.algorithm)
    diag = report.certificate_diagnostic

    if diag is not None and report.verdict == "deadlock_free":
        # independent replay of the Dally-Seitz evidence: the numbering
        # strictly increases along every CDG edge
        cdg = build_cdg(bundle.algorithm)
        assert nx.is_directed_acyclic_graph(nx.DiGraph(cdg.adj))
        numbering = diag.evidence["numbering"]
        assert len(numbering) == cdg.number_of_nodes()
        for u, v in cdg.edges:
            assert numbering[u.short()] < numbering[v.short()]
    elif diag is not None:
        # the certificate's concrete deadlock configuration must really
        # deadlock under the exhaustive search
        replay = diag.evidence["deadlock_messages"]
        res = search_deadlock(
            SystemSpec.uniform(list(replay), budget=4),
            find_witness=False,
            certificates="off",
            max_states=5_000_000,
        )
        assert res.deadlock_reachable

    # spec-level certificates (the search fast-path) against the raw search
    if bundle.messages:
        for budget in (0, 1):
            spec = SystemSpec.uniform(bundle.messages, budget=budget)
            cert = spec_certificate(spec)
            if cert is None:
                continue
            res = search_deadlock(
                spec, find_witness=False, certificates="off", max_states=5_000_000
            )
            assert res.deadlock_reachable == cert.deadlock_reachable, (
                name,
                budget,
                cert.code,
            )


# ----------------------------------------------------------------------
# zero-state fast path (ISSUE acceptance criterion)
# ----------------------------------------------------------------------
class TestSearchFastPath:
    def test_acyclic_spec_decided_with_zero_states(self):
        bundle = build_scenario("fig1", {"subset": ["M1", "M3"]})
        res = search_deadlock(SystemSpec.uniform(bundle.messages), certificates="on")
        assert not res.deadlock_reachable
        assert res.states_explored == 0
        assert res.certificate == "CRT001"

    def test_reachable_spec_decided_without_search_in_verdict_mode(self):
        res = search_deadlock(_ring_spec(), find_witness=False, certificates="on")
        assert res.deadlock_reachable
        assert res.states_explored == 0 and res.witness is None
        assert res.certificate == "CRT005"

    def test_witness_mode_emits_constructive_witness(self):
        """CRT005 now *constructs* the witness: zero BFS states explored."""
        from repro.lint import validate_witness

        res = search_deadlock(_ring_spec(), find_witness=True, certificates="on")
        assert res.deadlock_reachable
        assert res.witness is not None and res.states_explored == 0
        assert res.certificate == "CRT005"
        assert validate_witness(res.witness)

    def test_mode_off_disables_annotation(self):
        res = search_deadlock(_ring_spec(), find_witness=False, certificates="off")
        assert res.deadlock_reachable and res.states_explored > 0
        assert res.certificate is None

    def test_check_mode_runs_search_and_agrees(self):
        res = search_deadlock(_ring_spec(), find_witness=False, certificates="check")
        assert res.deadlock_reachable and res.states_explored > 0
        assert res.certificate == "CRT005"

    def test_check_mode_raises_on_bogus_certificate(self, monkeypatch):
        import repro.lint.certificates as certs

        fake = certs.Certificate(
            code="CRT001", verdict="DEADLOCK_FREE", rationale="bogus"
        )
        monkeypatch.setattr(certs, "spec_certificate", lambda spec, **kw: fake)
        with pytest.raises(CertificateMismatch, match="CRT001"):
            search_deadlock(_ring_spec(), find_witness=False, certificates="check")

    def test_env_var_gates_the_fast_path(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "off")
        res = search_deadlock(_ring_spec(), find_witness=False)
        assert res.certificate is None and res.states_explored > 0
        monkeypatch.setenv(ENV_VAR, "on")
        res = search_deadlock(_ring_spec(), find_witness=False)
        assert res.certificate == "CRT005" and res.states_explored == 0


class TestClassifyFastPath:
    @pytest.fixture
    def ring_cycle(self):
        net = ring(4)
        alg = RoutingAlgorithm(clockwise_ring(net, 4))
        (cycle,) = find_cycles(build_cdg(alg)).cycles
        return alg, cycle

    def test_certificate_skips_scenarios(self, ring_cycle):
        alg, cycle = ring_cycle
        cls = classify_cycle(alg, cycle, certificates="on")
        assert cls.deadlock_reachable
        assert cls.scenarios_tested == 0
        assert cls.certificate == "CRT005"
        assert any("static certificate" in n for n in cls.notes)

    def test_off_mode_searches_and_agrees(self, ring_cycle):
        alg, cycle = ring_cycle
        cls = classify_cycle(alg, cycle, certificates="off")
        assert cls.deadlock_reachable
        assert cls.scenarios_tested >= 1 and cls.certificate is None

    def test_off_mode_reaches_the_scenario_searches(self, ring_cycle):
        """``off`` holds for the searches of each scenario too: the
        answer's witness comes from the BFS, not a CRT005 schedule."""
        alg, cycle = ring_cycle
        wit = classify_cycle(alg, cycle, certificates="off").witness_result
        assert wit.certificate is None and wit.states_explored > 0

    def test_check_mode_annotates_after_searching(self, ring_cycle):
        alg, cycle = ring_cycle
        cls = classify_cycle(alg, cycle, certificates="check")
        assert cls.deadlock_reachable
        assert cls.scenarios_tested >= 1 and cls.certificate == "CRT005"

    def test_fig1_cycle_never_certified(self):
        """The paper's false resource cycle must stay search-decided."""
        alg = build_scenario("fig1", {}).algorithm
        cycles = find_cycles(build_cdg(alg)).cycles
        for cycle in cycles:
            cls = classify_cycle(alg, cycle, certificates="on")
            if not cls.deadlock_reachable:
                assert cls.certificate is None
                assert cls.scenarios_tested >= 1


# ----------------------------------------------------------------------
# the one certificate contract, at each of its entry points
# ----------------------------------------------------------------------
def _contract_search(mode):
    return search_deadlock(_ring_spec(), find_witness=False, certificates=mode)


def _contract_adaptive(mode):
    from repro.analysis.adaptive_state import search_adaptive_deadlock

    bundle = build_scenario("adaptive-mesh", {"dims": [2, 2], "msgs": 2})
    return search_adaptive_deadlock(*bundle.adaptive, certificates=mode)


def _contract_classify(mode):
    alg = RoutingAlgorithm(clockwise_ring(ring(4), 4))
    (cycle,) = find_cycles(build_cdg(alg)).cycles
    return classify_cycle(alg, cycle, certificates=mode)


#: entry point -> (query by mode, the certifier it consults, its work
#: count, the code its certificate issues)
CONTRACT_ENTRY_POINTS = {
    "search_deadlock": (_contract_search, "spec_certificate", "states_explored", "CRT005"),
    "search_adaptive_deadlock": (
        _contract_adaptive, "adaptive_certificate", "states_explored", "CRT008",
    ),
    "classify_cycle": (_contract_classify, "cycle_certificate", "scenarios_tested", "CRT005"),
}


@pytest.mark.parametrize("mode", ["off", "on", "check", "check-forged"])
@pytest.mark.parametrize("entry", sorted(CONTRACT_ENTRY_POINTS))
def test_certificate_contract(entry, mode, monkeypatch):
    """``off`` searches without a certificate; ``on`` lets a deciding
    certificate skip all work; ``check`` searches and stamps the code; a
    forged certificate with the wrong verdict is a named mismatch."""
    import repro.lint.certificates as certs
    from repro.lint.diagnostics import DEADLOCK_FREE, REACHABLE_DEADLOCK

    query, certifier, work, code = CONTRACT_ENTRY_POINTS[entry]
    truth = query("off")
    if mode == "check-forged":
        forged = certs.Certificate(
            code="CRT004",
            verdict=DEADLOCK_FREE if truth.deadlock_reachable else REACHABLE_DEADLOCK,
            rationale="forged",
        )
        monkeypatch.setattr(certs, certifier, lambda *args, **kw: forged)
        with pytest.raises(CertificateMismatch, match="CRT004"):
            query("check")
        return
    res = query(mode)
    assert res.deadlock_reachable == truth.deadlock_reachable
    if entry == "search_adaptive_deadlock":  # one result type for both searches
        from repro.analysis.adaptive_state import AdaptiveSystem

        assert isinstance(res, SearchResult) and isinstance(res.spec, AdaptiveSystem)
    if mode == "off":
        assert res.certificate is None and getattr(res, work) > 0
    elif mode == "on":
        assert res.certificate == code and getattr(res, work) == 0
    else:
        assert res.certificate == code and getattr(res, work) > 0


# ----------------------------------------------------------------------
# mode parsing
# ----------------------------------------------------------------------
class TestModeParsing:
    def test_default_is_on(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert certificates_mode() == "on"

    def test_env_and_override(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "off")
        assert certificates_mode() == "off"
        assert certificates_mode("check") == "check"  # parameter beats env

    def test_invalid_values_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="certificates mode"):
            certificates_mode("sometimes")
        monkeypatch.setenv(ENV_VAR, "weird")
        with pytest.raises(ValueError, match="certificates mode"):
            certificates_mode()


# ----------------------------------------------------------------------
# tiling primitives
# ----------------------------------------------------------------------
class TestTilingPrimitives:
    def test_cycle_runs_offset_entry(self):
        cyc = (10, 11, 12, 13)
        assert cycle_runs(cyc, (7, 11, 12)) == [(1, 2)]
        assert cycle_runs(cyc, (7, 8)) == []
        assert cycle_runs(cyc, ()) == []

    def test_enumerate_tilings_exact_cover(self):
        # runs overshoot the held segment by one: the successor's first
        # channel must lie strictly inside the predecessor's run
        cands = {"a": [(0, 3)], "b": [(2, 3)]}
        tilings = enumerate_tilings(4, cands)
        assert len(tilings) == 1
        (t,) = tilings
        assert set(t.members) == {"a", "b"}
        assert t.held_lengths == [2, 2]

    def test_enumerate_tilings_rejects_unblockable_members(self):
        # exact-cover runs with nowhere to be blocked: not a Definition-6
        # configuration (each member must wait *inside* its own run)
        assert enumerate_tilings(4, {"a": [(0, 2)], "b": [(2, 2)]}) == []

    def test_enumerate_tilings_cap(self):
        # many single-slot candidates: the cap bounds the explosion
        cands = {i: [(p, 2) for p in range(4)] for i in range(8)}
        tilings = enumerate_tilings(4, cands, max_tilings=5)
        assert len(tilings) == 5


# ----------------------------------------------------------------------
# evidence replay: diagnostics carry facts that re-verify independently
# ----------------------------------------------------------------------
class TestEvidenceReplay:
    def test_closure_violations_replay(self):
        """Every reported (s, d, w) triple really violates Def. 7/8."""
        alg = build_scenario("fig1", {}).algorithm
        report = lint_algorithm(alg)
        replayed = 0
        for diag in report.diagnostics:
            if diag.code not in ("PRP001", "PRP002"):
                continue
            for item in diag.evidence["violations"]:
                (s, d), w = item["pair"], item["via"]
                full = alg.try_path(s, d)
                assert full is not None
                if diag.code == "PRP001":
                    part, own = first_occurrence_prefix(full, w), alg.try_path(s, w)
                else:
                    part, own = suffix_from(full, w), alg.try_path(w, d)
                if item["reason"] == "partial path undefined":
                    assert own is None
                else:
                    assert own is not None and tuple(own) != tuple(part)
                replayed += 1
        assert replayed > 0

    def test_crt005_members_really_tile_the_cycle(self):
        bundle = build_scenario(
            "theorem2-overlap",
            {"ring_n": 6, "entries": [0, 2, 4], "run_lens": [3, 3, 3]},
        )
        diag = lint_algorithm(bundle.algorithm).certificate_diagnostic
        assert diag.code == "CRT005"
        cycle = [ch.cid for ch in diag.evidence["cycle"]]
        held = diag.evidence["held_lengths"]
        assert sum(held) == len(cycle)
        for m, start, h in zip(
            diag.evidence["deadlock_messages"],
            diag.evidence["starts"],
            held,
        ):
            # the message's path really contains its held run of the cycle
            idx = m.path.index(cycle[start])
            n = len(cycle)
            assert [cycle[(start + k) % n] for k in range(h)] == list(
                m.path[idx : idx + h]
            )
            assert m.length >= h


# ----------------------------------------------------------------------
# hypothesis: random specs and geometries never get a wrong certificate
# ----------------------------------------------------------------------
@st.composite
def small_specs(draw) -> SystemSpec:
    num_channels = draw(st.integers(min_value=2, max_value=5))
    n_msgs = draw(st.integers(min_value=1, max_value=3))
    messages, budgets = [], []
    for mi in range(n_msgs):
        plen = draw(st.integers(min_value=1, max_value=min(3, num_channels)))
        path = tuple(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=num_channels - 1),
                    min_size=plen,
                    max_size=plen,
                    unique=True,
                )
            )
        )
        messages.append(msg(path, draw(st.integers(min_value=1, max_value=3)), f"M{mi}"))
        budgets.append(draw(st.integers(min_value=0, max_value=2)))
    return SystemSpec(messages=tuple(messages), budgets=tuple(budgets))


@settings(max_examples=40, deadline=None)
@given(spec=small_specs())
def test_random_spec_certificates_sound(spec):
    cert = spec_certificate(spec)
    if cert is None:
        return
    res = search_deadlock(
        spec, find_witness=False, certificates="off", max_states=200_000
    )
    assert res.deadlock_reachable == cert.deadlock_reachable


@settings(max_examples=15, deadline=None)
@given(
    geometry=st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=2, max_size=3
    )
)
def test_random_shared_cycle_certificates_sound(geometry):
    """Random Theorem 3/4 geometries: any certificate replays to a deadlock."""
    try:
        bundle = build_scenario(
            "shared-cycle",
            {"approaches": [a for a, _ in geometry], "holds": [h for _, h in geometry]},
        )
    except ValueError:
        return  # builder rejects degenerate geometries (walk spans the ring)
    report = lint_algorithm(bundle.algorithm)
    diag = report.certificate_diagnostic
    if diag is None or report.verdict != "reachable_deadlock":
        return
    replay = diag.evidence["deadlock_messages"]
    res = search_deadlock(
        SystemSpec.uniform(list(replay), budget=4),
        find_witness=False,
        certificates="off",
        max_states=2_000_000,
    )
    assert res.deadlock_reachable
