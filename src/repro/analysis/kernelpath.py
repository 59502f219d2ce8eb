"""Compiled search kernel: the default search engine.

:class:`KernelEngine` runs the same fused expand/arbitrate/dedup/deadlock
BFS as :class:`~repro.analysis.fastpath.FastEngine` -- grant rounds,
deterministic pre-apply, joint-choice enumeration, mixed-radix
arbitration, in-expansion visited dedup, wait-for-cycle test -- but as
**one compiled loop over flat transition tables**, eliminating the
per-state Python interpretation of the fast engine.  Verdicts,
``states_explored`` (including the early-exit count and the exact
:class:`~repro.analysis.reachability.SearchLimitExceeded` behaviour) and
witnesses are bit-identical to the reference engine;
``tests/test_kernelpath_differential.py`` pins the three-way contract.

The tables are the fast engine's scan records flattened into stdlib
:class:`array.array` buffers, built once per engine, whose addresses go
straight to the C loop through :mod:`ctypes`:

* channels are stored as **indices** (``int32``, ``-1`` = none) and
  occupancy masks are ``W``-word ``uint64`` arrays -- specs with more
  than 62 channels need no fallback;
* the visited store is an open-addressing hash over raw index rows --
  no packed key, so no key-width limit.  Only the per-state ``pending``
  bitmask bounds the engine: ``n <= 64`` messages (wider specs fall back
  to the fast engine with a structured :class:`WideSpecFallbackWarning`).

The loop is ``_kernel.c`` (same directory), compiled on first use with the
system C compiler (``REPRO_CC`` names one) into a shared library cached on
disk (``REPRO_KERNEL_CACHE``) keyed by source hash and machine
architecture.  A cached library that fails to load (corrupt, foreign,
stale ABI) is rebuilt once.  Where no library loads, the engine is
unavailable: :func:`repro.analysis.reachability.resolve_engine` then
selects the fast engine, loudly, and a direct :class:`KernelEngine`
delegates each search to its fast engine with a :class:`RuntimeWarning`.

Witness searches track a parent per arena slot and recover action labels
after the fact by re-expanding only the chain states through
``successors_full``, the same scheme the fast engine uses.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
import threading
import warnings
from array import array
from pathlib import Path

from repro.analysis.fastpath import FastEngine, engine_for
from repro.analysis.state import SystemSpec

#: widest message count the single-``uint64`` pending bitmask covers;
#: beyond it the engine delegates to the fast engine wholesale
MAX_KERNEL_MSGS = 64

_KENGINE_CACHE_LIMIT = 64
_KENGINES: dict[SystemSpec, "KernelEngine"] = {}

#: cumulative counters, read by the telemetry layer (repro.obs) via
#: snapshot deltas around a search
COUNTERS: dict[str, int] = {
    "kernelpath.engine_cache.hits": 0,
    "kernelpath.engine_cache.misses": 0,
    "kernelpath.searches.cc": 0,
    "kernelpath.fallback.searches": 0,
    "kernelpath.cc.compiles": 0,
    "kernelpath.cc.cache_hits": 0,
    "kernelpath.cc.rebuilds": 0,
    "kernelpath.cc.errors": 0,
}

_STATUS_NOT_FOUND = 0
_STATUS_FOUND = 1
_STATUS_LIMIT = 2
_STATUS_OOM = 3

_LIMIT_MSG = "exceeded {max_states} states; tighten the scenario or raise the cap"


def counters_snapshot() -> dict[str, int]:
    """A copy of :data:`COUNTERS` (diff two to meter one search)."""
    return dict(COUNTERS)


class WideSpecFallbackWarning(UserWarning):
    """The kernel engine delegated a too-wide spec to the fast engine.

    Carries the spec's actual requirements and the engine's limit as
    attributes so tooling can report them structurally; the message spells
    them out for humans.  Verdicts are unaffected -- only the speedup is
    lost -- which is why this is a warning, not an error.
    """

    def __init__(self, engine: str, n: int, num_bits: int, max_msgs: int) -> None:
        self.engine = engine
        self.n = n
        self.num_bits = num_bits
        self.max_msgs = max_msgs
        super().__init__(
            f"{engine} engine fell back to the fast engine: spec needs "
            f"{n} messages over {num_bits} channel bits, engine limit is "
            f"{max_msgs} messages (verdict unchanged, no speedup)"
        )


def warn_wide_fallback(engine: str, n: int, num_bits: int, max_msgs: int) -> None:
    """Emit the structured wide-spec fallback warning, attributed to the
    code that called the engine's ``search``/``search_witness``."""
    warnings.warn(
        WideSpecFallbackWarning(engine, n, num_bits, max_msgs), stacklevel=4
    )


# ----------------------------------------------------------------------
# cc tier: runtime-compiled shared library through ctypes
# ----------------------------------------------------------------------
_CC_SRC = Path(__file__).with_name("_kernel.c")
_CC_ABI = 1
_cc_lib: ctypes.CDLL | None = None
_cc_tried = False
_cc_lock = threading.Lock()
#: why the cc tier did not resolve (``None`` until a load failed)
_cc_error: str | None = None


def _cc_cache_dir() -> Path:
    env = os.environ.get("REPRO_KERNEL_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    try:
        base.mkdir(parents=True, exist_ok=True)
    except OSError:  # pragma: no cover - unwritable home
        import tempfile

        base = Path(tempfile.gettempdir())
    return base / "repro-kernel"


def _cc_compiler() -> str | None:
    import shutil

    env = os.environ.get("REPRO_CC")
    if env:
        return env if shutil.which(env) else None
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return cand
    return None


def cc_lib_path() -> Path:
    """Where the compiled C kernel is cached: keyed by the source hash and
    the machine architecture, so a cache directory shared across
    architectures (an NFS home) never hands one host another's library."""
    tag = hashlib.sha256(_CC_SRC.read_bytes()).hexdigest()[:16]
    suffix = "dll" if sys.platform == "win32" else "so"
    machine = platform.machine() or "unknown"
    return _cc_cache_dir() / f"repro_kernel_{machine}_{tag}.{suffix}"


def _open_cc_lib(path: Path) -> ctypes.CDLL | str:
    """The library at ``path`` with its ABI vetted, or why it is unusable."""
    try:
        lib = ctypes.CDLL(str(path))
        lib.rk_abi_version.restype = ctypes.c_int
        abi = lib.rk_abi_version()
    except (OSError, AttributeError) as exc:  # corrupt / foreign / no symbol
        return f"compiled kernel library failed to load: {exc}"
    if abi != _CC_ABI:
        return f"compiled kernel library has ABI {abi}, expected {_CC_ABI}"
    lib.rk_search.restype = ctypes.c_int
    lib.rk_free.restype = None
    lib.rk_free.argtypes = [ctypes.c_void_p]
    return lib


def _build_cc_lib(so: Path) -> ctypes.CDLL | str:
    """Compile ``_kernel.c`` into ``so``, or say why that failed.

    The build goes to a private temp file that is loaded and vetted
    *before* ``os.replace`` publishes it atomically, so concurrent
    builders race safely and a broken build never lands in the cache.
    """
    import subprocess
    import tempfile

    comp = _cc_compiler()
    if comp is None:
        want = os.environ.get("REPRO_CC")
        return (
            f"C compiler {want!r} (REPRO_CC) not found"
            if want
            else "no C compiler found (cc, gcc or clang on PATH)"
        )
    try:
        so.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=so.suffix, dir=str(so.parent))
        os.close(fd)
    except OSError as exc:
        return f"kernel cache directory unusable: {exc}"
    try:
        cmd = [comp, "-O2", "-fPIC", "-shared", "-o", tmp, str(_CC_SRC)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            tail = (proc.stderr or "").strip().splitlines()[-1:] or [""]
            return f"compile of _kernel.c with {comp} failed: {tail[0]}"
        lib = _open_cc_lib(Path(tmp))
        if isinstance(lib, str):
            return lib
        os.replace(tmp, so)
        COUNTERS["kernelpath.cc.compiles"] += 1
        return lib
    except (OSError, subprocess.SubprocessError) as exc:
        return f"compile of _kernel.c with {comp} failed: {exc}"
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_cc_lib() -> ctypes.CDLL | None:
    """The compiled C kernel, building (and disk-caching) it on first use.

    Returns ``None`` -- never raises -- when no C compiler is available,
    compilation fails, or the library will not load; searches then run on
    the fast engine and :func:`kernel_unavailable_reason` says why.  A
    cached library that fails to load or reports a stale ABI is rebuilt
    once (``kernelpath.cc.rebuilds``) rather than poisoning every later
    process.  Thread-safe: concurrent first searches (serve's
    worker threads) wait for one load instead of seeing a half-done one.
    """
    global _cc_lib, _cc_tried, _cc_error
    if _cc_tried:
        return _cc_lib
    with _cc_lock:
        if _cc_tried:
            return _cc_lib
        lib: ctypes.CDLL | str
        try:
            so = cc_lib_path()
        except OSError as exc:  # pragma: no cover - broken install
            lib = f"kernel source unreadable: {exc}"
        else:
            if so.exists():
                lib = _open_cc_lib(so)
                if isinstance(lib, str):
                    COUNTERS["kernelpath.cc.rebuilds"] += 1
                    lib = _build_cc_lib(so)
                else:
                    COUNTERS["kernelpath.cc.cache_hits"] += 1
            else:
                lib = _build_cc_lib(so)
        if isinstance(lib, str):
            COUNTERS["kernelpath.cc.errors"] += 1
            _cc_error = lib
        else:
            _cc_lib = lib
        _cc_tried = True  # last: readers outside the lock see a finished load
    return _cc_lib


def resolve_backend() -> str | None:
    """``"cc"`` when the compiled kernel library loads, else ``None``.

    Never raises; :func:`kernel_unavailable_reason` says why it is ``None``.
    """
    return "cc" if _load_cc_lib() is not None else None


def kernel_unavailable_reason() -> str | None:
    """Why the compiled kernel would not run, or ``None`` when it would."""
    if _load_cc_lib() is not None:
        return None
    return _cc_error or "compiled kernel library unavailable"


def kernel_engine_for(spec: SystemSpec) -> "KernelEngine":
    """The (cached) kernel engine for ``spec``."""
    eng = _KENGINES.get(spec)
    if eng is None:
        COUNTERS["kernelpath.engine_cache.misses"] += 1
        if len(_KENGINES) >= _KENGINE_CACHE_LIMIT:
            _KENGINES.clear()
        eng = KernelEngine(spec)
        _KENGINES[spec] = eng
    else:
        COUNTERS["kernelpath.engine_cache.hits"] += 1
    return eng


def peek_engine(spec: SystemSpec) -> "KernelEngine | None":
    """The cached engine for ``spec``, without counting a cache hit/miss
    (telemetry peeks must not disturb the metered counters)."""
    return _KENGINES.get(spec)


class KernelEngine:
    """Compiled fused BFS over flat ``array.array`` transition tables."""

    def __init__(self, spec: SystemSpec, *, fast: FastEngine | None = None) -> None:
        self.spec = spec
        self.fast = fast if fast is not None else engine_for(spec)
        f = self.fast
        self._n = f._n
        self.num_bits = f.num_bits
        n = self._n
        #: False when the spec exceeds the single-uint64 pending bitmask;
        #: every search then delegates to the fast engine (counted, and
        #: warned about, in COUNTERS / WideSpecFallbackWarning)
        self.kernelizable = 1 <= n <= MAX_KERNEL_MSGS
        #: BFS levels of the most recent :meth:`search` (telemetry only)
        self.last_search_depth: int | None = None
        #: backend the most recent compiled search ran on, ``"cc"``; ``None``
        #: until one ran (telemetry only)
        self.last_backend: str | None = None
        #: per-phase wall seconds of the most recent search -- ``kernel``
        #: (the compiled call) and, for witness searches, ``witness`` (the
        #: Python-side path recovery).  Populated only when telemetry is
        #: enabled; the gate is checked once per search.
        self.phase_seconds: dict[str, float] = {}
        if not self.kernelizable:
            return
        S = max(len(f._back[i]) for i in range(n))
        self._S = S
        W = max(1, (f.num_bits + 63) // 64)
        self._W = W
        size = n * S
        # flat row-major [message, state] tables: int32 ("i"), int8 ("b"),
        # uint8 ("B") and uint64 occupancy words ("Q", W per state)
        t_req = array("i", [-1]) * size
        t_nops = array("b", [0]) * size
        t_ch0 = array("i", [-1]) * size
        t_nxt0 = array("i", [0]) * size
        t_acq0 = array("i", [-1]) * size
        t_rel0 = array("i", [-1]) * size
        t_nxt1 = array("i", [0]) * size
        t_wait1 = array("B", [0]) * size
        t_occ = array("Q", [0]) * (size * W)
        t_blk = array("i", [-1]) * size
        wmask = (1 << 64) - 1
        for i in range(n):
            scan_i = f._scan[i]
            occ_i = f._occm[i]
            blk_i = f._blk[i]
            for ci in range(len(scan_i)):
                at = i * S + ci
                req, opts = scan_i[ci]
                if req:
                    t_req[at] = req.bit_length() - 1
                if blk_i[ci]:
                    t_blk[at] = blk_i[ci].bit_length() - 1
                ob = occ_i[ci]
                for w in range(W):
                    t_occ[at * W + w] = (ob >> (64 * w)) & wmask
                t_nops[at] = len(opts)
                if opts:
                    _lab, chan, nci, acq, rel = opts[0]
                    if chan is not None:
                        t_ch0[at] = chan.bit_length() - 1
                    t_nxt0[at] = nci
                    if acq:
                        t_acq0[at] = acq.bit_length() - 1
                    if rel:
                        t_rel0[at] = rel.bit_length() - 1
                if len(opts) > 1:
                    lab1, _c1, nci1, _a1, _r1 = opts[1]
                    t_nxt1[at] = nci1
                    t_wait1[at] = 1 if lab1 == "wait" else 0
        self._t_req = t_req
        self._t_nops = t_nops
        self._t_ch0 = t_ch0
        self._t_nxt0 = t_nxt0
        self._t_acq0 = t_acq0
        self._t_rel0 = t_rel0
        self._t_nxt1 = t_nxt1
        self._t_wait1 = t_wait1
        self._t_occ = t_occ
        self._t_blk = t_blk
        self._init_cfg = array("i", f.init_idx)
        # symmetry classes as (offsets, concatenated ascending columns);
        # mirrors FastEngine.canon (sort values within each class)
        groups: dict[tuple, list[int]] = {}
        for i, (m, b) in enumerate(zip(spec.messages, spec.budgets)):
            groups.setdefault((m.path, m.length, b), []).append(i)
        classes = [ix for ix in groups.values() if len(ix) > 1]
        cols: list[int] = []
        offs = [0]
        for ix in classes:
            cols.extend(ix)
            offs.append(len(cols))
        self._ncls = len(classes)
        self._cls_off = array("i", offs)
        self._cls_cols = array("i", cols if cols else [0])

    # ------------------------------------------------------------------
    # compiled call
    # ------------------------------------------------------------------
    def _delegated(self) -> bool:
        """Whether this search must run on the fast engine instead -- the
        spec is too wide for the pending bitmask, or no compiled library
        loads.  Either way the search is counted and warned about."""
        if self.kernelizable and _load_cc_lib() is not None:
            return False
        COUNTERS["kernelpath.fallback.searches"] += 1
        if not self.kernelizable:
            warn_wide_fallback("kernel", self._n, self.num_bits, MAX_KERNEL_MSGS)
        else:
            warnings.warn(
                f"compiled search kernel unavailable "
                f"({kernel_unavailable_reason()}); the kernel engine ran "
                "the fast engine (same verdicts, slower)",
                RuntimeWarning,
                stacklevel=3,
            )
        return True

    def _run(
        self, max_states: int, symmetry_reduction: bool, track: bool
    ) -> tuple[int, int, int, list[tuple[int, ...]]]:
        """``(status, count, depth, chain)`` from one call into the C loop;
        ``chain`` runs from the initial state to the found deadlock (empty
        unless ``track`` and found)."""
        lib = _load_cc_lib()
        assert lib is not None  # _delegated vetted it
        self.last_backend = "cc"
        COUNTERS["kernelpath.searches.cc"] += 1
        use_canon = 1 if (symmetry_reduction and self._ncls) else 0
        c_i32p = ctypes.POINTER(ctypes.c_int32)
        out_count = ctypes.c_int64(0)
        out_depth = ctypes.c_int64(0)
        out_chain = c_i32p()
        out_chain_len = ctypes.c_int64(0)

        def p(buf: array) -> ctypes.c_void_p:
            return ctypes.c_void_p(buf.buffer_info()[0])

        status = lib.rk_search(
            ctypes.c_int32(self._n),
            ctypes.c_int32(self._S),
            ctypes.c_int32(self._W),
            p(self._t_req),
            p(self._t_nops),
            p(self._t_ch0),
            p(self._t_nxt0),
            p(self._t_acq0),
            p(self._t_rel0),
            p(self._t_nxt1),
            p(self._t_wait1),
            p(self._t_occ),
            p(self._t_blk),
            p(self._init_cfg),
            ctypes.c_int32(self._ncls),
            p(self._cls_off),
            p(self._cls_cols),
            ctypes.c_int32(use_canon),
            ctypes.c_int64(max_states),
            ctypes.c_int32(1 if track else 0),
            ctypes.byref(out_count),
            ctypes.byref(out_depth),
            ctypes.byref(out_chain) if track else None,
            ctypes.byref(out_chain_len) if track else None,
        )
        # the C side returns only the found chain, one row per BFS level
        chain: list[tuple[int, ...]] = []
        n = self._n
        chain_len = int(out_chain_len.value)
        if track and status == _STATUS_FOUND and chain_len:
            flat = out_chain[: chain_len * n]
            chain = [tuple(flat[k * n:(k + 1) * n]) for k in range(chain_len)]
        if track and out_chain:
            lib.rk_free(out_chain)
        return int(status), int(out_count.value), int(out_depth.value), chain

    # ------------------------------------------------------------------
    # searches
    # ------------------------------------------------------------------
    def search(
        self, *, max_states: int = 2_000_000, symmetry_reduction: bool = True
    ) -> tuple[bool, int]:
        """Compiled BFS; bit-identical to ``FastEngine.search``."""
        from repro.analysis.reachability import SearchLimitExceeded

        if self._delegated():
            result = self.fast.search(
                max_states=max_states, symmetry_reduction=symmetry_reduction
            )
            self.last_search_depth = self.fast.last_search_depth
            return result
        from time import perf_counter

        from repro.obs import get as _obs_get

        prof = _obs_get() is not None
        self.phase_seconds = {}
        t0 = perf_counter() if prof else 0.0
        status, count, depth, _chain = self._run(
            max_states, symmetry_reduction, track=False
        )
        if prof:
            self.phase_seconds["kernel"] = perf_counter() - t0
        if status == _STATUS_LIMIT:
            raise SearchLimitExceeded(_LIMIT_MSG.format(max_states=max_states))
        if status == _STATUS_OOM:  # pragma: no cover - allocator exhaustion
            raise MemoryError("kernel search ran out of memory")
        self.last_search_depth = depth
        return status == _STATUS_FOUND, count

    def search_witness(
        self, *, max_states: int = 2_000_000, symmetry_reduction: bool = False
    ) -> tuple[bool, int, list | None, list | None, tuple[int, ...]]:
        """Compiled witness BFS; mirrors ``FastEngine.search_witness``."""
        from repro.analysis.reachability import SearchLimitExceeded

        if self._delegated():
            return self.fast.search_witness(
                max_states=max_states, symmetry_reduction=symmetry_reduction
            )
        from time import perf_counter

        from repro.obs import get as _obs_get

        prof = _obs_get() is not None
        self.phase_seconds = {}
        t0 = perf_counter() if prof else 0.0
        status, count, _depth, chain = self._run(
            max_states, symmetry_reduction, track=True
        )
        if prof:
            self.phase_seconds["kernel"] = perf_counter() - t0
            t0 = perf_counter()
        if status == _STATUS_LIMIT:
            raise SearchLimitExceeded(_LIMIT_MSG.format(max_states=max_states))
        if status == _STATUS_OOM:  # pragma: no cover - allocator exhaustion
            raise MemoryError("kernel search ran out of memory")
        if status != _STATUS_FOUND:
            return False, count, None, None, ()
        f = self.fast
        final = chain[-1]
        final_mask = 0
        for i, ci in enumerate(final):
            final_mask |= f._occm[i][ci]
        dead = f._deadlocked(final, final_mask)
        decode = f.decode
        states = [decode(s) for s in chain[1:]]
        steps: list[tuple[str, ...]] = []
        for prev, raw in zip(chain, states):
            praw = decode(prev)
            for s, acts, _d in f.successors_full(praw):
                if s == raw:
                    steps.append(acts)
                    break
            else:  # pragma: no cover - parent chain is consistent
                raise AssertionError("witness edge lost")
        if prof:
            self.phase_seconds["witness"] = perf_counter() - t0
        return True, count, steps, states, dead


def clear_caches() -> None:
    """Drop the engine cache (tests use this to force table rebuilds)."""
    _KENGINES.clear()
