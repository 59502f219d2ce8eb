"""CRT008 (Duato escape certificate) cross-checked against the oracle.

Three independent deciders must agree on adaptive routing functions:

* the static certificate (:func:`repro.lint.certificates.adaptive_certificate`,
  CRT008 via Duato's escape condition or CRT001 via an acyclic full CDG);
* the OR-semantics knot detector
  (:meth:`repro.analysis.adaptive_state.AdaptiveSystem.deadlocked_set`);
* the exhaustive adaptive search under the full adversary
  (:func:`repro.analysis.adaptive_state.search_adaptive_deadlock`).

Hypothesis drives random small 2D meshes with 2 VCs through all three.
"""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.adaptive_state import (
    AdaptiveMessage,
    AdaptiveSystem,
    search_adaptive_deadlock,
)
from repro.analysis.reachability import SearchLimitExceeded
from repro.campaign.scenarios import build_scenario
from repro.lint import CertificateMismatch, adaptive_certificate, lint_adaptive
from repro.routing.adaptive import FullyAdaptiveMesh, duato_escape_mesh
from repro.topology import mesh


def four_corners(dims, length=2):
    x, y = dims[0] - 1, dims[1] - 1
    corners = [(0, 0), (x, 0), (x, y), (0, y)]
    return [
        AdaptiveMessage(src=c, dst=(x - c[0], y - c[1]), length=length, tag=f"c{i}")
        for i, c in enumerate(corners)
    ]


# ----------------------------------------------------------------------
# pinned cross-checks on the registry geometries
# ----------------------------------------------------------------------
class TestRegistryAgreement:
    def test_escape_mesh_certified_and_search_agrees(self):
        net = mesh((2, 2), vcs=2)
        fn = duato_escape_mesh(net, 2)
        cert = adaptive_certificate(fn)
        assert cert is not None and cert.code == "CRT008"
        assert not cert.deadlock_reachable
        # check mode replays the full search and raises on disagreement
        res = search_adaptive_deadlock(
            fn, four_corners((2, 2)), certificates="check"
        )
        assert not res.deadlock_reachable and res.states_explored > 0
        assert res.certificate == "CRT008"

    def test_full_adaptive_mesh_is_honestly_undecided(self):
        net = mesh((2, 2))
        fn = FullyAdaptiveMesh(net, 2)
        assert adaptive_certificate(fn) is None

    def test_four_corners_deadlock_found_by_knot(self):
        """The OR-knot detector, via the search, nails all four members."""
        net = mesh((2, 2))
        fn = FullyAdaptiveMesh(net, 2)
        res = search_adaptive_deadlock(fn, four_corners((2, 2)))
        assert res.deadlock_reachable
        assert set(res.deadlocked_tags) == {"c0", "c1", "c2", "c3"}
        assert res.certificate is None  # no certificate covers this fn

    def test_two_corners_unreachable(self):
        net = mesh((2, 2))
        fn = FullyAdaptiveMesh(net, 2)
        res = search_adaptive_deadlock(fn, four_corners((2, 2))[:2])
        assert not res.deadlock_reachable and res.states_explored > 0

    def test_escape_mesh_zero_state_fast_path(self):
        net = mesh((3, 3), vcs=2)
        fn = duato_escape_mesh(net, 2)
        res = search_adaptive_deadlock(
            fn, four_corners((3, 3)), certificates="on"
        )
        assert not res.deadlock_reachable
        assert res.states_explored == 0 and res.certificate == "CRT008"

    def test_lint_adaptive_verdicts(self):
        net = mesh((3, 3), vcs=2)
        report = lint_adaptive(duato_escape_mesh(net, 2))
        assert report.verdict == "deadlock_free"
        assert report.certificate_diagnostic.code == "CRT008"
        undecided = lint_adaptive(FullyAdaptiveMesh(mesh((3, 3)), 2))
        assert undecided.verdict == "undecided"

    def test_check_mode_raises_on_bogus_certificate(self, monkeypatch):
        import repro.analysis.adaptive_state as mod
        import repro.lint.certificates as certs

        net = mesh((2, 2))
        fn = FullyAdaptiveMesh(net, 2)
        fake = certs.Certificate(
            code="CRT008", verdict="DEADLOCK_FREE", rationale="bogus"
        )
        monkeypatch.setattr(certs, "adaptive_certificate", lambda f: fake)
        with pytest.raises(CertificateMismatch, match="CRT008"):
            search_adaptive_deadlock(
                fn, four_corners((2, 2)), certificates="check"
            )

    @pytest.mark.parametrize(
        "name,params",
        [
            ("adaptive-mesh", {"routing": "escape", "dims": [2, 2], "msgs": 2}),
            ("adaptive-mesh", {"routing": "full", "dims": [2, 2], "msgs": 4}),
            ("adaptive-mesh", {"routing": "full", "dims": [2, 2], "msgs": 2}),
        ],
    )
    def test_registry_scenarios_pass_check_mode(self, name, params):
        """Every registry adaptive scenario survives certificates='check'."""
        bundle = build_scenario(name, params)
        fn, messages = bundle.adaptive
        search_adaptive_deadlock(fn, messages, certificates="check")


# ----------------------------------------------------------------------
# OR-semantics of the knot detector
# ----------------------------------------------------------------------
class TestKnotSemantics:
    def test_free_candidate_excludes_from_knot(self):
        """A message with ANY free candidate is not deadlocked (OR, not AND)."""
        net = mesh((2, 2))
        fn = FullyAdaptiveMesh(net, 2)
        system = AdaptiveSystem(fn, four_corners((2, 2))[:2])
        # walk the full reachable space: the search says no deadlock, so
        # the knot must be empty in every reachable state
        seen = {system.initial_state()}
        frontier = [system.initial_state()]
        while frontier:
            state = frontier.pop()
            assert system.deadlocked_set(state) == ()
            for nxt, _acts in system.successors(state):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)

    def test_knot_requires_all_candidates_held_by_knot_members(self):
        net = mesh((2, 2))
        fn = FullyAdaptiveMesh(net, 2)
        msgs = four_corners((2, 2))
        system = AdaptiveSystem(fn, msgs)
        # find a deadlocked state by BFS and re-verify the knot by hand
        seen = {system.initial_state()}
        frontier = [system.initial_state()]
        dead_state = None
        while frontier and dead_state is None:
            state = frontier.pop()
            if system.deadlocked_set(state):
                dead_state = state
                break
            for nxt, _acts in system.successors(state):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert dead_state is not None
        knot = set(system.deadlocked_set(dead_state))
        occ = system.occupied(dead_state)
        for i in knot:
            taken = dead_state[i][0]
            cands = system._candidates(taken, i)
            assert cands, "knot member must still want a channel"
            owners = {occ.get(c) for c in cands}
            assert None not in owners  # every candidate is occupied...
            assert owners <= knot  # ...by another knot member


# ----------------------------------------------------------------------
# hypothesis: random geometries never get a wrong CRT008
# ----------------------------------------------------------------------
@st.composite
def mesh_and_messages(draw):
    dims = (draw(st.integers(2, 3)), 2)
    nodes = list(itertools.product(range(dims[0]), range(dims[1])))
    n_msgs = draw(st.integers(min_value=1, max_value=3))
    msgs = []
    for mi in range(n_msgs):
        src, dst = draw(
            st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True)
        )
        length = draw(st.integers(min_value=1, max_value=2))
        msgs.append(AdaptiveMessage(src=src, dst=dst, length=length, tag=f"m{mi}"))
    return dims, msgs


@settings(max_examples=12, deadline=None)
@given(case=mesh_and_messages())
def test_random_escape_meshes_certified_soundly(case):
    """CRT008 on random 2-VC meshes: the exhaustive search never refutes it."""
    dims, msgs = case
    net = mesh(dims, vcs=2)
    fn = duato_escape_mesh(net, 2)
    cert = adaptive_certificate(fn)
    assert cert is not None and cert.code == "CRT008"
    assert not cert.deadlock_reachable
    try:
        res = search_adaptive_deadlock(
            fn, msgs, certificates="off", max_states=150_000
        )
    except SearchLimitExceeded:
        assume(False)  # state space too large for this example; discard
    assert not res.deadlock_reachable


@settings(max_examples=12, deadline=None)
@given(case=mesh_and_messages())
def test_random_full_adaptive_meshes_check_mode(case):
    """check mode never raises: the certificate layer refuses to certify
    anything the search could refute on 1-VC fully adaptive meshes."""
    dims, msgs = case
    net = mesh(dims)
    fn = FullyAdaptiveMesh(net, 2)
    try:
        search_adaptive_deadlock(fn, msgs, certificates="check", max_states=150_000)
    except SearchLimitExceeded:
        assume(False)
