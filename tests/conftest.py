"""Fixtures shared by several test modules."""

from contextlib import contextmanager

import pytest


@pytest.fixture
def running_on():
    """``with running_on(engine):`` runs the enclosed calls on ``engine``
    the way the program reaches it: ``kernel`` is its own pick, and
    ``reference`` is the real fallback, taken because the compiled library
    is patched out (warning silenced, fallback still counted)."""
    import repro.analysis.reachability as reachability_mod

    @contextmanager
    def on(engine: str):
        if engine == "kernel":
            yield
            return
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                reachability_mod, "_kernel_unavailable", lambda: "forced fallback (test)"
            )
            mp.setattr(reachability_mod, "_fallback_warned", {RuntimeWarning})
            yield

    return on
