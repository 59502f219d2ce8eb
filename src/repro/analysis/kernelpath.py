"""Compiled search kernel: the default search engine.

:class:`KernelEngine` runs the reachability BFS of
:mod:`repro.analysis.reachability` -- grant rounds, deterministic
pre-apply, joint-choice enumeration, mixed-radix arbitration,
in-expansion visited dedup, wait-for-cycle test -- as **one compiled loop
over flat transition tables**.  Verdicts, ``states_explored`` (including
the early-exit count and the exact
:class:`~repro.analysis.reachability.SearchLimitExceeded` behaviour) and
witnesses are bit-identical to the reference engine;
``tests/test_kernelpath_differential.py`` pins the contract.

The tables are built once per engine (:class:`_TableBuilder`) as stdlib
:class:`array.array` buffers whose addresses go straight to the C loop
through :mod:`ctypes`:

* every per-message state ``(h, inj, cons, bud)`` reachable under the
  message's own dynamics gets a small index, so a search state is one
  row of ``n`` indices and a move is a table lookup;
* channels are stored as dense bit **positions** (``int32``, ``-1`` =
  none) and occupancy masks are ``W``-word ``uint64`` arrays -- specs with
  more than 62 channels need no fallback;
* the visited store is an open-addressing hash over raw index rows --
  no packed key, so no key-width limit.  Its slots hold a hash tag and
  the index of a BFS arena row, so each state is stored once.  Only the
  per-state ``pending`` bitmask bounds the engine:
  ``1 <= n <= MAX_KERNEL_MSGS`` messages.  A search the C side cannot
  store (an allocation fails, or past 2**31 states) raises
  :class:`~repro.analysis.reachability.KernelOutOfMemory`.

The loop is ``_kernel.c`` (same directory), compiled on first use with the
system C compiler (``REPRO_CC`` names one) into a shared library cached on
disk (``REPRO_KERNEL_CACHE``) keyed by source hash and machine
architecture.  A cached library that fails to load (corrupt, foreign,
stale ABI) is rebuilt once.  Where no library loads, or a spec has more
than ``MAX_KERNEL_MSGS`` messages,
:func:`repro.analysis.reachability.resolve_engine` runs the reference
engine instead, loudly; a direct :class:`KernelEngine` raises.

Witness searches track a parent per arena slot; the C side returns the
chain of index rows from the initial state to the deadlock, and the
action labels are recovered by re-expanding only the chain states through
:meth:`~repro.analysis.state.SystemSpec.successors`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
import threading
from array import array
from pathlib import Path
from time import perf_counter

from repro.analysis.state import SystemSpec
from repro.obs import get as _obs_get
from repro.obs import incr as _obs_incr

#: widest message count the single-``uint64`` pending bitmask covers;
#: wider specs search on the reference engine
MAX_KERNEL_MSGS = 64

_KENGINE_CACHE_LIMIT = 64
_KENGINES: dict[SystemSpec, "KernelEngine"] = {}

_STATUS_NOT_FOUND = 0
_STATUS_FOUND = 1
_STATUS_LIMIT = 2
_STATUS_OOM = 3

_LIMIT_MSG = "exceeded {max_states} states; tighten the scenario or raise the cap"


class WideSpecFallbackWarning(UserWarning):
    """A kernel request ran on the reference engine: the spec is too wide.

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
            f"{engine} engine fell back to the reference engine: spec needs "
            f"{n} messages over {num_bits} channel bits, engine limit is "
            f"{max_msgs} messages (verdict unchanged, no speedup)"
        )


# ----------------------------------------------------------------------
# cc tier: runtime-compiled shared library through ctypes
# ----------------------------------------------------------------------
_CC_SRC = Path(__file__).with_name("_kernel.c")
_CC_ABI = 2
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
    i32, i64, ptr = ctypes.c_int32, ctypes.c_int64, ctypes.c_void_p
    # _kernel.c's rk_search parameters in order; a table is passed as the
    # bare address of its array buffer
    lib.rk_search.argtypes = [
        i32, i32, i32,  # n, S, W
        ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr,  # nops .. init_cfg
        i32, ptr, ptr,  # ncls, cls_off, cls_cols
        i32, i64, i32,  # use_canon, max_states, track_parents
        ctypes.POINTER(i64), ctypes.POINTER(i64),  # out_count, out_depth
        ctypes.POINTER(ctypes.POINTER(i32)), ctypes.POINTER(i64),  # out_chain(_len)
    ]
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
        _obs_incr("kernelpath.cc.compiles")
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
    the reference engine and :func:`kernel_unavailable_reason` says why.  A
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
                    _obs_incr("kernelpath.cc.rebuilds")
                    lib = _build_cc_lib(so)
                else:
                    _obs_incr("kernelpath.cc.cache_hits")
            else:
                lib = _build_cc_lib(so)
        if isinstance(lib, str):
            _obs_incr("kernelpath.cc.errors")
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
        _obs_incr("kernelpath.engine_cache.misses")
        if len(_KENGINES) >= _KENGINE_CACHE_LIMIT:
            _KENGINES.clear()
        eng = KernelEngine(spec)
        _KENGINES[spec] = eng
    else:
        _obs_incr("kernelpath.engine_cache.hits")
    return eng


# ----------------------------------------------------------------------
# transition tables
# ----------------------------------------------------------------------
class _TableBuilder:
    """One spec's flat ``[message, state]`` transition tables.

    Every channel id the spec touches maps to a dense bit position.
    Every per-message state reachable from injection start is enumerated
    and indexed in **sorted tuple order**, so comparing indices compares
    the underlying states and sorting indices within a symmetry class
    picks the representative the reference canonicalizer picks.  Per
    index the tables hold the channels its flit train occupies (``occ``,
    ``W`` words), the channel it blocks on (``blk``), and up to two move
    options: the first's channel (``ch0``: the channel the state requests,
    and the one its train gains when the move is made), successor index
    and released channel, the second's successor index and whether it is
    a wait.
    """

    def __init__(self, spec: SystemSpec) -> None:
        bit_of: dict[int, int] = {}
        for m in spec.messages:
            for cid in m.path:
                bit_of.setdefault(cid, len(bit_of))
        self.bit_of = bit_of
        n = len(spec.messages)
        #: per-message states by index: decodes the kernel's index rows
        self.back = [self._closure(spec, i) for i in range(n)]
        S = max(len(states) for states in self.back)
        W = max(1, (self.num_bits + 63) // 64)
        self.S, self.W = S, W
        size = n * S
        # int32 ("i"), int8 ("b"), uint8 ("B") and uint64 words ("Q")
        self.blk = array("i", [-1]) * size
        self.occ = array("Q", [0]) * (size * W)
        self.nops = array("b", [0]) * size
        self.ch0 = array("i", [-1]) * size
        self.nxt0 = array("i", [0]) * size
        self.rel0 = array("i", [-1]) * size
        self.nxt1 = array("i", [0]) * size
        self.wait1 = array("B", [0]) * size
        for i in range(n):
            idx = {ms: ci for ci, ms in enumerate(self.back[i])}
            for ci, ms in enumerate(self.back[i]):
                self._fill(spec, i, i * S + ci, ms, idx)
        self.init = array(
            "i", [self.back[i].index((0, 0, 0, spec.budgets[i])) for i in range(n)]
        )
        # symmetry classes (same path, length and budget) as (offsets,
        # concatenated ascending columns); the C loop sorts the values
        # within each class, as the reference canonicalizer does
        groups: dict[tuple, list[int]] = {}
        for i, (m, b) in enumerate(zip(spec.messages, spec.budgets)):
            groups.setdefault((m.path, m.length, b), []).append(i)
        classes = [ix for ix in groups.values() if len(ix) > 1]
        cols: list[int] = []
        offs = [0]
        for ix in classes:
            cols.extend(ix)
            offs.append(len(cols))
        self.ncls = len(classes)
        self.cls_off = array("i", offs)
        self.cls_cols = array("i", cols if cols else [0])

    @property
    def num_bits(self) -> int:
        """Channel bit positions; the occupancy rows hold this many bits."""
        return len(self.bit_of)

    @staticmethod
    def _closure(spec: SystemSpec, i: int) -> list[tuple]:
        """Every state of message ``i`` reachable from injection start
        under its own moves, sorted."""
        start = (0, 0, 0, spec.budgets[i])
        seen = {start}
        todo = [start]
        while todo:
            ms = todo.pop()
            for label, chan in spec.moves(i, ms):
                nxt = spec._apply(i, ms, label, chan)
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return sorted(seen)

    def _fill(self, spec: SystemSpec, i: int, at: int, ms: tuple, idx: dict) -> None:
        """Write the table row of message ``i``'s state ``ms`` at flat slot
        ``at``."""
        bit_of, W, occ = self.bit_of, self.W, self.occ
        train = spec.flit_train(i, ms)
        for cid in train:
            b = bit_of[cid]
            occ[at * W + (b >> 6)] |= 1 << (b & 63)
        moves = spec.moves(i, ms)
        if not moves:
            return  # done: no options
        self.nops[at] = len(moves)
        label, chan = moves[0]
        nxt = spec._apply(i, ms, label, chan)
        self.nxt0[at] = idx[nxt]
        # the channels acquired and released are the set difference of
        # the trains before and after; a train slides forward along its
        # path, so it can gain a channel only at its front and lose one
        # only at its tail.  The C loop sets the gained channel from
        # ``ch0``, so a move must gain exactly the channel it requests.
        after = spec.flit_train(i, nxt)
        gained = after[-1] if after and after[-1] not in train else None
        if gained != chan:
            raise RuntimeError(
                f"message {i} state {ms}: move {label!r} requests channel "
                f"{chan} but its flit train gains {gained}"
            )
        if train and train[0] not in after:
            self.rel0[at] = bit_of[train[0]]
        if chan is not None:
            # an arbitrated request; a header in the network also blocks
            # on it (an injection merely waits)
            self.ch0[at] = bit_of[chan]
            if ms[0]:
                self.blk[at] = bit_of[chan]
        if len(moves) > 1:  # the injection's wait, or the router's stall
            label, chan = moves[1]
            self.nxt1[at] = idx[spec._apply(i, ms, label, chan)]
            self.wait1[at] = label == "wait"


class KernelEngine:
    """Compiled fused BFS over one spec's flat transition tables."""

    def __init__(self, spec: SystemSpec) -> None:
        n = len(spec.messages)
        if not 1 <= n <= MAX_KERNEL_MSGS:
            raise ValueError(
                f"the kernel engine searches 1..{MAX_KERNEL_MSGS} messages; "
                f"this spec has {n}"
            )
        self.spec = spec
        self._tables = _TableBuilder(spec)

    @property
    def num_bits(self) -> int:
        """Dense channel bit positions the spec's paths use."""
        return self._tables.num_bits

    # ------------------------------------------------------------------
    # compiled call
    # ------------------------------------------------------------------
    def _run(
        self, max_states: int, symmetry_reduction: bool, track: bool
    ) -> tuple[int, int, int, list[tuple[int, ...]]]:
        """``(status, count, depth, chain)`` from one call into the C loop;
        ``chain`` runs from the initial state to the found deadlock (empty
        unless ``track`` and found)."""
        lib = _load_cc_lib()
        if lib is None:
            raise RuntimeError(
                f"compiled search kernel unavailable ({kernel_unavailable_reason()})"
            )
        _obs_incr("kernelpath.searches.cc")
        t = self._tables
        n = len(self.spec.messages)
        use_canon = 1 if (symmetry_reduction and t.ncls) else 0
        c_i32p = ctypes.POINTER(ctypes.c_int32)
        out_count = ctypes.c_int64(0)
        out_depth = ctypes.c_int64(0)
        out_chain = c_i32p()
        out_chain_len = ctypes.c_int64(0)

        def p(buf: array) -> ctypes.c_void_p:
            return ctypes.c_void_p(buf.buffer_info()[0])

        status = lib.rk_search(
            ctypes.c_int32(n),
            ctypes.c_int32(t.S),
            ctypes.c_int32(t.W),
            p(t.nops),
            p(t.ch0),
            p(t.nxt0),
            p(t.rel0),
            p(t.nxt1),
            p(t.wait1),
            p(t.occ),
            p(t.blk),
            p(t.init),
            ctypes.c_int32(t.ncls),
            p(t.cls_off),
            p(t.cls_cols),
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
        chain_len = int(out_chain_len.value)
        if track and status == _STATUS_FOUND and chain_len:
            flat = out_chain[: chain_len * n]
            chain = [tuple(flat[k * n:(k + 1) * n]) for k in range(chain_len)]
        if track and out_chain:
            lib.rk_free(out_chain)
        if status == _STATUS_LIMIT:
            from repro.analysis.reachability import SearchLimitExceeded

            raise SearchLimitExceeded(_LIMIT_MSG.format(max_states=max_states))
        if status == _STATUS_OOM:
            from repro.analysis.reachability import KernelOutOfMemory

            raise KernelOutOfMemory(int(out_count.value))
        return int(status), int(out_count.value), int(out_depth.value), chain

    # ------------------------------------------------------------------
    # searches
    # ------------------------------------------------------------------
    def search(
        self, *, max_states: int = 2_000_000, symmetry_reduction: bool = True
    ) -> tuple[bool, int, int]:
        """``(deadlock_reachable, states_explored, depth)``: the first two
        bit-identical to the reference search with ``find_witness=False``,
        ``depth`` the BFS levels the kernel expanded.

        With telemetry on, the compiled call's wall time is counted in
        ``kernelpath.phase.kernel_s``.
        """
        tel = _obs_get()
        t0 = perf_counter() if tel is not None else 0.0
        status, count, depth, _chain = self._run(
            max_states, symmetry_reduction, track=False
        )
        if tel is not None:
            tel.incr("kernelpath.phase.kernel_s", round(perf_counter() - t0, 6))
        return status == _STATUS_FOUND, count, depth

    def search_witness(
        self, *, max_states: int = 2_000_000, symmetry_reduction: bool = False
    ) -> tuple[bool, int, list | None, list | None, tuple[int, ...]]:
        """``(found, states_explored, steps, states, deadlocked)``: the
        per-cycle action rows and raw states of a minimum-length deadlock
        formation (``None`` when no deadlock is reachable).

        The compiled BFS yields first occurrences in the reference's
        order, so every chain state's parent is the reference's parent,
        and the first :meth:`SystemSpec.successors` entry equal to the
        next chain state carries the actions the reference's parent map
        keeps: the witness is step-for-step the reference's.

        With telemetry on, the compiled call's wall time is counted in
        ``kernelpath.phase.kernel_s`` and the label recovery's in
        ``kernelpath.phase.witness_s``.
        """
        tel = _obs_get()
        t0 = perf_counter() if tel is not None else 0.0
        status, count, _depth, chain = self._run(
            max_states, symmetry_reduction, track=True
        )
        if tel is not None:
            t1 = perf_counter()
            tel.incr("kernelpath.phase.kernel_s", round(t1 - t0, 6))
            t0 = t1
        if status != _STATUS_FOUND:
            return False, count, None, None, ()
        spec = self.spec
        back = self._tables.back
        states = [tuple(back[i][ci] for i, ci in enumerate(row)) for row in chain]
        steps: list[tuple[str, ...]] = []
        for prev, nxt in zip(states, states[1:]):
            for s, acts in spec.successors(prev):
                if s == nxt:
                    steps.append(acts)
                    break
            else:  # pragma: no cover - parent chain is consistent
                raise AssertionError("witness edge lost")
        dead = spec.deadlocked_set(states[-1])
        if tel is not None:
            tel.incr("kernelpath.phase.witness_s", round(perf_counter() - t0, 6))
        return True, count, steps, states[1:], dead


def clear_caches() -> None:
    """Drop the engine cache (tests use this to force table rebuilds)."""
    _KENGINES.clear()
