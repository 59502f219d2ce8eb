"""Compiled search kernel: the default search engine.

:class:`KernelEngine` runs the same fused expand/arbitrate/dedup/deadlock
BFS as :class:`~repro.analysis.fastpath.FastEngine` -- grant rounds,
deterministic pre-apply, joint-choice enumeration, mixed-radix
arbitration, in-expansion visited dedup, wait-for-cycle test -- but as
**one compiled loop over flat numpy transition tables**, eliminating the
per-state Python interpretation of the fast engine.  Verdicts,
``states_explored`` (including the early-exit count and the exact
:class:`~repro.analysis.reachability.SearchLimitExceeded` behaviour) and
witnesses are bit-identical to the reference engine;
``tests/test_kernelpath_differential.py`` pins the three-way contract.

The tables are the fast engine's scan records flattened into arrays:

* channels are stored as **indices** (``int32``, ``-1`` = none) and
  occupancy masks are ``W``-word ``uint64`` arrays -- specs with more
  than 62 channels need no fallback;
* the visited store is an open-addressing hash over raw index rows --
  no packed key, so no key-width limit.  Only the per-state ``pending``
  bitmask bounds the engine: ``n <= 64`` messages (wider specs fall back
  to the fast engine with a structured :class:`WideSpecFallbackWarning`).

Three interchangeable backends execute the loop (``REPRO_KERNEL_BACKEND``
or the ``backend=`` argument; ``auto`` picks the first available):

``numba``
    :func:`_core_search` compiled with ``numba.njit``.  numba is an
    optional extra (``pip install repro[kernel]``); imports never
    hard-fail without it.
``cc``
    ``_kernel.c`` (same directory) -- a C99 port of the identical loop --
    compiled on first use with the system C compiler into a shared
    library cached on disk keyed by source hash and machine
    architecture, called through :mod:`ctypes`.  A cached library that
    fails to load (corrupt, foreign, stale ABI) is rebuilt once.
``python``
    :func:`_core_search` interpreted.  Slow, but always available: it is
    the no-dependency floor that keeps the engine importable and lets the
    numba-source logic be pinned by tests on machines without numba.

Witness searches track a parent per arena slot and recover action labels
after the fact by re-expanding only the chain states through
``successors_full``, the same scheme the fast engine uses.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

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
    "kernelpath.searches.numba": 0,
    "kernelpath.searches.cc": 0,
    "kernelpath.searches.python": 0,
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
    """Emit the structured wide-spec fallback warning."""
    warnings.warn(
        WideSpecFallbackWarning(engine, n, num_bits, max_msgs), stacklevel=3
    )


# ----------------------------------------------------------------------
# numba tier: optional decoration of the shared core
# ----------------------------------------------------------------------
try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    HAVE_NUMBA = True
except Exception:  # ImportError, or a broken numba install
    HAVE_NUMBA = False

    def _njit(*args, **kwargs):  # type: ignore[misc]
        """No-op ``@njit`` stand-in: the core runs interpreted."""
        if args and callable(args[0]):
            return args[0]

        def deco(fn):
            return fn

        return deco


_U0 = np.uint64(0)
_U1 = np.uint64(1)
_U33 = np.uint64(33)
_FNV_OFF = np.uint64(0xCBF29CE484222325)
_FNV_PRM = np.uint64(0x100000001B3)
_MIX = np.uint64(0xFF51AFD7ED558CCD)


@_njit(cache=True)
def _hash_row(row, n):
    """FNV-1a over ``n`` int32 values with a xor-shift finalizer."""
    h = _FNV_OFF
    for j in range(n):
        h = (h ^ np.uint64(row[j])) * _FNV_PRM
    h ^= h >> _U33
    h *= _MIX
    h ^= h >> _U33
    return h


@_njit(cache=True)
def _hash_node(cfg_row, pend_row, n):
    """Hash of a ``(configuration, pending)`` wave node."""
    h = _FNV_OFF
    for j in range(n):
        h = (h ^ np.uint64(cfg_row[j])) * _FNV_PRM
    for j in range(n):
        h = (h ^ np.uint64(pend_row[j])) * _FNV_PRM
    h ^= h >> _U33
    h *= _MIX
    h ^= h >> _U33
    return h


@_njit(cache=True)
def _vgrow(vslots, vkeys, vused, n):
    """Double the visited slot table, rehashing the live keys."""
    nslots = np.full(vslots.size * 2, -1, np.int64)
    m = np.uint64(nslots.size - 1)
    for k in range(vused):
        h = _hash_row(vkeys[k], n) & m
        while nslots[h] >= 0:
            h = (h + _U1) & m
        nslots[h] = k
    return nslots


@_njit(cache=True)
def _sgrow(sslots, s_cfg, s_pend, sused, n):
    """Double the wave-node slot table, rehashing the live nodes."""
    nslots = np.full(sslots.size * 2, -1, np.int64)
    m = np.uint64(nslots.size - 1)
    for k in range(sused):
        h = _hash_node(s_cfg[k], s_pend[k], n) & m
        while nslots[h] >= 0:
            h = (h + _U1) & m
        nslots[h] = k
    return nslots


@_njit(cache=True)
def _canon_into(keybuf, cur, off, n, ncls, cls_off, cls_cols):
    """``keybuf`` = ``cur[off:off+n]`` canonicalized (sort within class)."""
    for j in range(n):
        keybuf[j] = cur[off + j]
    for t in range(ncls):
        lo = cls_off[t]
        hi = cls_off[t + 1]
        for a in range(lo + 1, hi):
            v = keybuf[cls_cols[a]]
            b = a - 1
            while b >= lo and keybuf[cls_cols[b]] > v:
                keybuf[cls_cols[b + 1]] = keybuf[cls_cols[b]]
                b -= 1
            keybuf[cls_cols[b + 1]] = v


@_njit(cache=True)
def _deadlocked(cur, off, mask, wait_to, n, S, W, blk_ch, occ):
    """Wait-for cycle existence (mirrors ``FastEngine._deadlocked``)."""
    anyb = False
    for i in range(n):
        wait_to[i] = -1
        rc = blk_ch[i * S + cur[off + i]]
        if rc < 0:
            continue
        if (mask[rc >> 6] >> np.uint64(rc & 63)) & _U1 == _U0:
            continue
        for j in range(n):
            ob = occ[(j * S + cur[off + j]) * W + (rc >> 6)]
            if (ob >> np.uint64(rc & 63)) & _U1 != _U0:
                if j != i:
                    wait_to[i] = j
                    anyb = True
                break  # occupancies are disjoint: first owner is the owner
    if not anyb:
        return False
    for i in range(n):
        p = wait_to[i]
        k = 0
        while k < n and p >= 0:
            p = wait_to[p]
            k += 1
        if p >= 0:
            return True  # a pointer that survives n hops is cyclic
    return False


@_njit(cache=True)
def _core_search(
    n,
    S,
    W,
    req_ch,
    nops,
    ch0,
    nxt0,
    acq0,
    rel0,
    nxt1,
    wait1,
    occ,
    blk_ch,
    init_cfg,
    ncls,
    cls_off,
    cls_cols,
    use_canon,
    max_states,
    track,
):
    """Fused BFS over the flat tables; the loop ``_kernel.c`` also runs.

    Returns ``(status, count, depth, arena_cfg, arena_parent, arena_size)``
    with the :data:`_STATUS_NOT_FOUND`/``FOUND``/``LIMIT`` codes of the C
    kernel.  ``arena_cfg[:arena_size]`` holds every counted state in
    discovery order (the found deadlock last); ``arena_parent`` maps each
    to its BFS parent slot (``-1`` for the initial state) when ``track``.

    The body is a transliteration of ``rk_search`` in ``_kernel.c``:
    per-message state indices in flat int32 rows, occupancy as ``W``-word
    ``uint64`` masks, visited as open addressing over raw rows, and the
    exact grant-round orchestration of ``FastEngine._emissions``.  It is
    nopython-compatible, so ``numba.njit`` compiles it unchanged.
    """
    # --- visited: open-addressing hash over canonical rows ---
    vslots = np.full(1 << 14, -1, np.int64)
    vkeys = np.empty((4096, n), np.int32)
    vused = 0
    # --- arena: every counted state, discovery order (doubles as queue) ---
    ar_cap = 1024
    ar_cfg = np.empty((ar_cap, n), np.int32)
    ar_par = np.empty(ar_cap if track else 1, np.int64)
    ar_size = 0
    # --- per-root expansion stack + forward-order child buffer ---
    st_cap = 256
    st_cfg = np.empty((st_cap, n), np.int32)
    st_pend = np.empty((st_cap, n), np.uint8)
    st_mask = np.empty((st_cap, W), np.uint64)
    st_fix = np.empty(st_cap, np.uint8)
    kd_cap = 64
    kd_cfg = np.empty((kd_cap, n), np.int32)
    kd_pend = np.empty((kd_cap, n), np.uint8)
    kd_mask = np.empty((kd_cap, W), np.uint64)
    kd_fix = np.empty(kd_cap, np.uint8)
    # --- per-root (cfg, pending) node set: branch-convergence pruning ---
    sslots = np.full(1 << 10, -1, np.int64)
    s_cfg = np.empty((512, n), np.int32)
    s_pend = np.empty((512, n), np.uint8)
    sused = 0
    # --- scratch ---
    keybuf = np.empty(n, np.int32)
    wait_to = np.empty(n, np.int64)
    movers = np.empty(n, np.int64)
    bmov = np.empty(n, np.int64)
    bch0 = np.empty(n, np.int32)
    bnxt0 = np.empty(n, np.int32)
    bacq0 = np.empty(n, np.int32)
    brel0 = np.empty(n, np.int32)
    bnxt1 = np.empty(n, np.int32)
    bwait1 = np.empty(n, np.uint8)
    btwo = np.empty(n, np.uint8)
    chose = np.empty(n, np.int32)
    cdig = np.empty(n, np.uint8)
    t_ch = np.empty(n, np.int32)
    t_cnt = np.empty(n, np.int64)
    t_mem = np.empty(n * n, np.int64)
    winner_of = np.empty(n, np.int64)
    want = np.empty(W, np.uint64)
    freed = np.empty(W, np.uint64)
    reqm = np.empty(W, np.uint64)
    seen1 = np.empty(W, np.uint64)
    seen2 = np.empty(W, np.uint64)
    mask = np.empty(W, np.uint64)

    count = np.int64(1)
    depth = np.int64(0)
    status = _STATUS_NOT_FOUND

    for j in range(n):
        ar_cfg[0, j] = init_cfg[j]
    if track:
        ar_par[0] = -1
    ar_size = 1
    # seed visited with the canonical initial state
    if use_canon:
        _canon_into(keybuf, init_cfg, 0, n, ncls, cls_off, cls_cols)
    else:
        for j in range(n):
            keybuf[j] = init_cfg[j]
    h = _hash_row(keybuf, n) & np.uint64(vslots.size - 1)
    vslots[h] = 0
    for j in range(n):
        vkeys[0, j] = keybuf[j]
    vused = 1

    head = np.int64(0)
    boundary = np.int64(1)
    stop = False
    while head < ar_size and not stop:
        # ---- expand one root ----
        if sused > 0:  # cheap per-root reset of the wave-node set
            sslots[:] = -1
            sused = 0
        for j in range(n):
            st_cfg[0, j] = ar_cfg[head, j]
            st_pend[0, j] = 1
        for w in range(W):
            mask[w] = _U0
        for i in range(n):
            base = (i * S + ar_cfg[head, i]) * W
            for w in range(W):
                mask[w] |= occ[base + w]
        for w in range(W):
            st_mask[0, w] = mask[w]
        st_fix[0] = 0
        top = 1
        while top > 0 and not stop:
            top -= 1
            cur = st_cfg[top]
            pend = st_pend[top]
            for w in range(W):
                mask[w] = st_mask[top, w]
            fixed = st_fix[top] != 0

            branch = False
            nb = 0
            pre_moved = False
            if not fixed:
                while True:  # grant rounds
                    pending_any = False
                    for i in range(n):
                        if pend[i] != 0:
                            pending_any = True
                            break
                    if not pending_any:
                        break
                    nm = 0
                    multi = False
                    clash = False
                    for w in range(W):
                        want[w] = _U0
                        reqm[w] = _U0
                    for i in range(n):
                        if pend[i] == 0:
                            continue
                        idx = i * S + cur[i]
                        rc = req_ch[idx]
                        no = nops[idx]
                        if rc >= 0 and (
                            (mask[rc >> 6] >> np.uint64(rc & 63)) & _U1 != _U0
                        ):
                            want[rc >> 6] |= _U1 << np.uint64(rc & 63)  # blocked
                        elif no > 0:
                            movers[nm] = i
                            nm += 1
                            if no > 1:
                                multi = True
                            elif rc >= 0:
                                if (reqm[rc >> 6] >> np.uint64(rc & 63)) & _U1 != _U0:
                                    clash = True
                                reqm[rc >> 6] |= _U1 << np.uint64(rc & 63)
                        else:
                            pend[i] = 0  # done
                    if nm == 0:
                        break
                    if not multi and not clash:
                        # fully deterministic round: apply every mover
                        for w in range(W):
                            freed[w] = _U0
                        for k in range(nm):
                            i = movers[k]
                            idx = i * S + cur[i]
                            acq = acq0[idx]
                            rel = rel0[idx]
                            cur[i] = nxt0[idx]
                            if acq >= 0:
                                mask[acq >> 6] |= _U1 << np.uint64(acq & 63)
                            if rel >= 0:
                                mask[rel >> 6] &= ~(_U1 << np.uint64(rel & 63))
                                freed[rel >> 6] |= _U1 << np.uint64(rel & 63)
                            pend[i] = 0
                        pending_any = False
                        for i in range(n):
                            if pend[i] != 0:
                                pending_any = True
                                break
                        hit = False
                        for w in range(W):
                            if freed[w] & want[w] != _U0:
                                hit = True
                                break
                        if not pending_any or not hit:
                            break
                        continue
                    # channel demand across first options: twice-requested
                    # channels force single-option movers to branch too
                    for w in range(W):
                        seen1[w] = _U0
                        seen2[w] = _U0
                    for k in range(nm):
                        i = movers[k]
                        ch = ch0[i * S + cur[i]]
                        if ch >= 0:
                            b = _U1 << np.uint64(ch & 63)
                            if seen1[ch >> 6] & b != _U0:
                                seen2[ch >> 6] |= b
                            seen1[ch >> 6] |= b
                    nb = 0
                    for w in range(W):
                        freed[w] = _U0
                    for k in range(nm):
                        i = movers[k]
                        idx = i * S + cur[i]
                        ch = ch0[idx]
                        if nops[idx] > 1 or (
                            ch >= 0
                            and (seen2[ch >> 6] >> np.uint64(ch & 63)) & _U1 != _U0
                        ):
                            bmov[nb] = i
                            nb += 1
                            continue
                        # deterministic: pre-apply in place
                        acq = acq0[idx]
                        rel = rel0[idx]
                        cur[i] = nxt0[idx]
                        if acq >= 0:
                            mask[acq >> 6] |= _U1 << np.uint64(acq & 63)
                        if rel >= 0:
                            mask[rel >> 6] &= ~(_U1 << np.uint64(rel & 63))
                            freed[rel >> 6] |= _U1 << np.uint64(rel & 63)
                        pend[i] = 0
                        pre_moved = True
                    if nb == 0:  # unreachable in practice: multi/clash
                        pending_any = False
                        for i in range(n):
                            if pend[i] != 0:
                                pending_any = True
                                break
                        hit = False
                        for w in range(W):
                            if freed[w] & want[w] != _U0:
                                hit = True
                                break
                        if not pending_any or not hit:
                            break
                        continue
                    branch = True
                    break

            if not branch:
                # ---- emit: fused dedup, count/cap, deadlock test ----
                if use_canon:
                    _canon_into(keybuf, cur, 0, n, ncls, cls_off, cls_cols)
                else:
                    for j in range(n):
                        keybuf[j] = cur[j]
                if (vused + 1) * 2 >= vslots.size:
                    vslots = _vgrow(vslots, vkeys, vused, n)
                hm = np.uint64(vslots.size - 1)
                h = _hash_row(keybuf, n) & hm
                present = False
                while vslots[h] >= 0:
                    k = vslots[h]
                    same = True
                    for j in range(n):
                        if vkeys[k, j] != keybuf[j]:
                            same = False
                            break
                    if same:
                        present = True
                        break
                    h = (h + _U1) & hm
                if present:
                    continue  # duplicate: never counted
                if vused >= vkeys.shape[0]:
                    nk = np.empty((vkeys.shape[0] * 2, n), np.int32)
                    nk[:vused] = vkeys[:vused]
                    vkeys = nk
                for j in range(n):
                    vkeys[vused, j] = keybuf[j]
                vslots[h] = vused
                vused += 1
                count += 1
                if count > max_states:
                    status = _STATUS_LIMIT
                    stop = True
                    continue
                if ar_size >= ar_cap:
                    ar_cap *= 2
                    na = np.empty((ar_cap, n), np.int32)
                    na[:ar_size] = ar_cfg[:ar_size]
                    ar_cfg = na
                    if track:
                        npa = np.empty(ar_cap, np.int64)
                        npa[:ar_size] = ar_par[:ar_size]
                        ar_par = npa
                for j in range(n):
                    ar_cfg[ar_size, j] = cur[j]
                if track:
                    ar_par[ar_size] = head
                ar_size += 1
                if _deadlocked(cur, 0, mask, wait_to, n, S, W, blk_ch, occ):
                    status = _STATUS_FOUND
                    stop = True
                continue

            # ---- branching round: joint choices x arbitration winners ----
            for k in range(nb):
                i = bmov[k]
                idx = i * S + cur[i]
                bch0[k] = ch0[idx]
                bnxt0[k] = nxt0[idx]
                bacq0[k] = acq0[idx]
                brel0[k] = rel0[idx]
                bnxt1[k] = nxt1[idx]
                bwait1[k] = wait1[idx]
                btwo[k] = 1 if nops[idx] > 1 else 0
            ncombo = np.int64(1)
            for k in range(nb):
                if btwo[k] != 0:
                    ncombo <<= 1
            ktop = 0
            for combo in range(ncombo):
                # digit of mover k: the first two-option mover varies
                # slowest, matching product(*bopts)
                div = ncombo
                T = 0
                for k in range(nb):
                    choice = 0
                    if btwo[k] != 0:
                        div >>= 1
                        choice = (combo // div) & 1
                    cdig[k] = choice
                    ch = bch0[k] if choice == 0 else np.int32(-1)
                    chose[k] = ch
                    if ch >= 0:
                        t = 0
                        while t < T and t_ch[t] != ch:
                            t += 1
                        if t == T:
                            t_ch[T] = ch
                            t_cnt[T] = 0
                            T += 1
                        t_mem[t * n + t_cnt[t]] = k  # bmover slot
                        t_cnt[t] += 1
                # compress to genuinely contested channels, keeping order
                Tc = 0
                for t in range(T):
                    if t_cnt[t] > 1:
                        if Tc != t:
                            t_ch[Tc] = t_ch[t]
                            t_cnt[Tc] = t_cnt[t]
                            for q in range(t_cnt[t]):
                                t_mem[Tc * n + q] = t_mem[t * n + q]
                        Tc += 1
                nwin = np.int64(1)
                for t in range(Tc):
                    nwin *= t_cnt[t]
                for wsel in range(nwin):
                    # mixed-radix winner set: last contested channel varies
                    # fastest, matching product(*requests.values())
                    acc = wsel
                    for t in range(Tc - 1, -1, -1):
                        winner_of[t] = t_mem[t * n + (acc % t_cnt[t])]
                        acc //= t_cnt[t]
                    if ktop >= kd_cap:
                        kd_cap *= 2
                        nc = np.empty((kd_cap, n), np.int32)
                        nc[:ktop] = kd_cfg[:ktop]
                        kd_cfg = nc
                        npd = np.empty((kd_cap, n), np.uint8)
                        npd[:ktop] = kd_pend[:ktop]
                        kd_pend = npd
                        nmk = np.empty((kd_cap, W), np.uint64)
                        nmk[:ktop] = kd_mask[:ktop]
                        kd_mask = nmk
                        nf = np.empty(kd_cap, np.uint8)
                        nf[:ktop] = kd_fix[:ktop]
                        kd_fix = nf
                    nxt = kd_cfg[ktop]
                    npend = kd_pend[ktop]
                    nmask = kd_mask[ktop]
                    for j in range(n):
                        nxt[j] = cur[j]
                        npend[j] = pend[j]
                    for w in range(W):
                        nmask[w] = mask[w]
                    moved = pre_moved
                    for k in range(nb):
                        i = bmov[k]
                        if cdig[k] == 0:
                            ch = bch0[k]
                            if ch >= 0:
                                lost = False
                                for t in range(Tc):
                                    if t_ch[t] == ch:
                                        if winner_of[t] != k:
                                            lost = True
                                        break
                                if lost:
                                    npend[i] = 0  # lost arbitration
                                    continue
                            nxt[i] = bnxt0[k]
                            npend[i] = 0
                            moved = True
                            if bacq0[k] >= 0:
                                nmask[bacq0[k] >> 6] |= _U1 << np.uint64(
                                    bacq0[k] & 63
                                )
                            if brel0[k] >= 0:
                                nmask[brel0[k] >> 6] &= ~(
                                    _U1 << np.uint64(brel0[k] & 63)
                                )
                        elif bwait1[k] != 0:
                            pass  # wait: stays pending, nothing changes
                        else:
                            nxt[i] = bnxt1[k]  # stall: moves, not "moved"
                            npend[i] = 0
                    if moved:
                        # branch-convergence pruning on (cfg, pending)
                        if (sused + 1) * 2 >= sslots.size:
                            sslots = _sgrow(sslots, s_cfg, s_pend, sused, n)
                        sm = np.uint64(sslots.size - 1)
                        h = _hash_node(nxt, npend, n) & sm
                        dup = False
                        while sslots[h] >= 0:
                            k2 = sslots[h]
                            same = True
                            for j in range(n):
                                if s_cfg[k2, j] != nxt[j] or s_pend[k2, j] != npend[j]:
                                    same = False
                                    break
                            if same:
                                dup = True
                                break
                            h = (h + _U1) & sm
                        if dup:
                            continue
                        if sused >= s_cfg.shape[0]:
                            nc2 = np.empty((s_cfg.shape[0] * 2, n), np.int32)
                            nc2[:sused] = s_cfg[:sused]
                            s_cfg = nc2
                            np2 = np.empty((s_pend.shape[0] * 2, n), np.uint8)
                            np2[:sused] = s_pend[:sused]
                            s_pend = np2
                        for j in range(n):
                            s_cfg[sused, j] = nxt[j]
                            s_pend[sused, j] = npend[j]
                        sslots[h] = sused
                        sused += 1
                        kd_fix[ktop] = 0
                    else:
                        kd_fix[ktop] = 1  # fixpoint: emit directly
                    ktop += 1
            # push children in reverse for depth-first reference order
            while top + ktop > st_cap:
                st_cap *= 2
                nc3 = np.empty((st_cap, n), np.int32)
                nc3[: top] = st_cfg[:top]
                st_cfg = nc3
                np3 = np.empty((st_cap, n), np.uint8)
                np3[:top] = st_pend[:top]
                st_pend = np3
                nm3 = np.empty((st_cap, W), np.uint64)
                nm3[:top] = st_mask[:top]
                st_mask = nm3
                nf3 = np.empty(st_cap, np.uint8)
                nf3[:top] = st_fix[:top]
                st_fix = nf3
            for k in range(ktop - 1, -1, -1):
                for j in range(n):
                    st_cfg[top, j] = kd_cfg[k, j]
                    st_pend[top, j] = kd_pend[k, j]
                for w in range(W):
                    st_mask[top, w] = kd_mask[k, w]
                st_fix[top] = kd_fix[k]
                top += 1
        # ---- root done ----
        if stop:
            if status == _STATUS_FOUND:
                depth += 1
            break
        head += 1
        if head == boundary:
            depth += 1
            boundary = ar_size
    return status, count, depth, ar_cfg, ar_par, ar_size


#: the interpreted core: numba's ``py_func`` when decorated, else itself
_core_py = _core_search.py_func if HAVE_NUMBA else _core_search


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
        base = Path(tempfile.gettempdir())
    return base / "repro-kernel"


def _cc_compiler() -> str | None:
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
    compilation fails, or the library will not load; the caller falls
    through to the next backend and :func:`kernel_unavailable_reason`
    says why.  A cached library that fails to load or reports a stale ABI
    is rebuilt once (``kernelpath.cc.rebuilds``) rather than poisoning
    every later process.  Thread-safe: concurrent first searches (serve's
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


_BACKENDS = ("numba", "cc", "python")


def resolve_backend(name: str | None = None) -> str:
    """The backend a search would run on (env/arg ``auto`` resolved).

    Raises :class:`ValueError` for unknown names and :class:`RuntimeError`
    when an explicitly requested accelerated backend is unavailable;
    ``auto`` never fails (the python tier always exists).
    """
    want = name or os.environ.get("REPRO_KERNEL_BACKEND", "auto")
    if want not in _BACKENDS + ("auto",):
        raise ValueError(
            f"unknown kernel backend {want!r}; use 'numba', 'cc', "
            "'python' or 'auto'"
        )
    if want == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError(
                "kernel backend 'numba' requested but numba is not "
                "installed (pip install repro[kernel])"
            )
        return "numba"
    if want == "cc":
        if _load_cc_lib() is None:
            raise RuntimeError(
                "kernel backend 'cc' requested but no C compiler / cached "
                f"library is available ({_cc_error})"
            )
        return "cc"
    if want == "python":
        return "python"
    # auto: first accelerated tier that resolves, else interpreted
    if HAVE_NUMBA:
        return "numba"
    if _load_cc_lib() is not None:
        return "cc"
    return "python"


def kernel_unavailable_reason() -> str | None:
    """Why no **accelerated** backend (numba or cc) would run, or ``None``
    when one would.

    The interpreted python tier keeps :class:`KernelEngine` importable and
    correct everywhere, but it is slower than the fast engine -- so the
    default engine selection only picks the kernel when this is ``None``
    and otherwise reports the reason with its fallback.
    """
    try:
        backend = resolve_backend()
    except (ValueError, RuntimeError) as exc:
        return str(exc)
    if backend != "python":
        return None
    if os.environ.get("REPRO_KERNEL_BACKEND") == "python":
        return "REPRO_KERNEL_BACKEND=python selects the interpreted tier"
    return _cc_error or "no accelerated kernel backend"


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
    """Compiled fused BFS over flat numpy transition tables."""

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
        #: backend the most recent search ran on (telemetry only)
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
        t_req = np.full((n, S), -1, np.int32)
        t_nops = np.zeros((n, S), np.int8)
        t_ch0 = np.full((n, S), -1, np.int32)
        t_nxt0 = np.zeros((n, S), np.int32)
        t_acq0 = np.full((n, S), -1, np.int32)
        t_rel0 = np.full((n, S), -1, np.int32)
        t_nxt1 = np.zeros((n, S), np.int32)
        t_wait1 = np.zeros((n, S), np.uint8)
        t_occ = np.zeros((n, S, W), np.uint64)
        t_blk = np.full((n, S), -1, np.int32)
        wmask = (1 << 64) - 1
        for i in range(n):
            scan_i = f._scan[i]
            occ_i = f._occm[i]
            blk_i = f._blk[i]
            for ci in range(len(scan_i)):
                req, opts = scan_i[ci]
                if req:
                    t_req[i, ci] = req.bit_length() - 1
                if blk_i[ci]:
                    t_blk[i, ci] = blk_i[ci].bit_length() - 1
                ob = occ_i[ci]
                for w in range(W):
                    t_occ[i, ci, w] = (ob >> (64 * w)) & wmask
                t_nops[i, ci] = len(opts)
                if opts:
                    _lab, chan, nci, acq, rel = opts[0]
                    if chan is not None:
                        t_ch0[i, ci] = chan.bit_length() - 1
                    t_nxt0[i, ci] = nci
                    if acq:
                        t_acq0[i, ci] = acq.bit_length() - 1
                    if rel:
                        t_rel0[i, ci] = rel.bit_length() - 1
                if len(opts) > 1:
                    lab1, _c1, nci1, _a1, _r1 = opts[1]
                    t_nxt1[i, ci] = nci1
                    t_wait1[i, ci] = 1 if lab1 == "wait" else 0
        self._t_req = np.ascontiguousarray(t_req.reshape(-1))
        self._t_nops = np.ascontiguousarray(t_nops.reshape(-1))
        self._t_ch0 = np.ascontiguousarray(t_ch0.reshape(-1))
        self._t_nxt0 = np.ascontiguousarray(t_nxt0.reshape(-1))
        self._t_acq0 = np.ascontiguousarray(t_acq0.reshape(-1))
        self._t_rel0 = np.ascontiguousarray(t_rel0.reshape(-1))
        self._t_nxt1 = np.ascontiguousarray(t_nxt1.reshape(-1))
        self._t_wait1 = np.ascontiguousarray(t_wait1.reshape(-1))
        self._t_occ = np.ascontiguousarray(t_occ.reshape(-1))
        self._t_blk = np.ascontiguousarray(t_blk.reshape(-1))
        self._init_cfg = np.asarray(f.init_idx, dtype=np.int32)
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
        self._cls_off = np.asarray(offs, dtype=np.int64)
        self._cls_cols = np.asarray(cols if cols else [0], dtype=np.int64)

    # ------------------------------------------------------------------
    # backend dispatch
    # ------------------------------------------------------------------
    def _run(
        self, max_states: int, symmetry_reduction: bool, track: bool
    ) -> tuple[int, int, int, np.ndarray, np.ndarray, int]:
        backend = resolve_backend()
        self.last_backend = backend
        COUNTERS[f"kernelpath.searches.{backend}"] += 1
        use_canon = 1 if (symmetry_reduction and self._ncls) else 0
        if backend == "cc":
            return self._run_cc(max_states, use_canon, track)
        core = _core_search if backend == "numba" else _core_py
        with np.errstate(over="ignore"):  # uint64 hash mixing wraps by design
            status, count, depth, ar_cfg, ar_par, ar_size = core(
                self._n,
                self._S,
                self._W,
                self._t_req,
                self._t_nops,
                self._t_ch0,
                self._t_nxt0,
                self._t_acq0,
                self._t_rel0,
                self._t_nxt1,
                self._t_wait1,
                self._t_occ,
                self._t_blk,
                self._init_cfg,
                self._ncls,
                self._cls_off,
                self._cls_cols,
                use_canon,
                max_states,
                1 if track else 0,
            )
        return int(status), int(count), int(depth), ar_cfg, ar_par, int(ar_size)

    def _run_cc(
        self, max_states: int, use_canon: int, track: bool
    ) -> tuple[int, int, int, np.ndarray, np.ndarray, int]:
        lib = _load_cc_lib()
        assert lib is not None  # resolve_backend vetted it
        c_i32p = ctypes.POINTER(ctypes.c_int32)
        cls_off32 = np.asarray(self._cls_off, dtype=np.int32)
        cls_cols32 = np.asarray(self._cls_cols, dtype=np.int32)
        out_count = ctypes.c_int64(0)
        out_depth = ctypes.c_int64(0)
        out_chain = c_i32p()
        out_chain_len = ctypes.c_int64(0)

        def p(arr: np.ndarray) -> ctypes.c_void_p:
            return ctypes.c_void_p(arr.ctypes.data)

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
            p(cls_off32),
            p(cls_cols32),
            ctypes.c_int32(use_canon),
            ctypes.c_int64(max_states),
            ctypes.c_int32(1 if track else 0),
            ctypes.byref(out_count),
            ctypes.byref(out_depth),
            ctypes.byref(out_chain) if track else None,
            ctypes.byref(out_chain_len) if track else None,
        )
        # the C side returns only the found chain, not the whole arena:
        # repackage it in the (ar_cfg, ar_par) shape the callers consume
        n = self._n
        chain_len = int(out_chain_len.value)
        if track and status == _STATUS_FOUND and chain_len:
            buf = ctypes.cast(
                out_chain, ctypes.POINTER(ctypes.c_int32 * (chain_len * n))
            ).contents
            ar_cfg = np.frombuffer(buf, dtype=np.int32).reshape(chain_len, n).copy()
            lib.rk_free(out_chain)
            ar_par = np.arange(-1, chain_len - 1, dtype=np.int64)
            return (
                int(status),
                int(out_count.value),
                int(out_depth.value),
                ar_cfg,
                ar_par,
                chain_len,
            )
        if track and out_chain:  # pragma: no cover - defensive
            lib.rk_free(out_chain)
        empty = np.empty((0, n), dtype=np.int32)
        return (
            int(status),
            int(out_count.value),
            int(out_depth.value),
            empty,
            np.empty(0, dtype=np.int64),
            0,
        )

    # ------------------------------------------------------------------
    # searches
    # ------------------------------------------------------------------
    def search(
        self, *, max_states: int = 2_000_000, symmetry_reduction: bool = True
    ) -> tuple[bool, int]:
        """Compiled BFS; bit-identical to ``FastEngine.search``."""
        from repro.analysis.reachability import SearchLimitExceeded

        if not self.kernelizable:
            COUNTERS["kernelpath.fallback.searches"] += 1
            warn_wide_fallback("kernel", self._n, self.num_bits, MAX_KERNEL_MSGS)
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
        status, count, depth, _cfg, _par, _size = self._run(
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

        if not self.kernelizable:
            COUNTERS["kernelpath.fallback.searches"] += 1
            warn_wide_fallback("kernel", self._n, self.num_bits, MAX_KERNEL_MSGS)
            return self.fast.search_witness(
                max_states=max_states, symmetry_reduction=symmetry_reduction
            )
        from time import perf_counter

        from repro.obs import get as _obs_get

        prof = _obs_get() is not None
        self.phase_seconds = {}
        t0 = perf_counter() if prof else 0.0
        status, count, _depth, ar_cfg, ar_par, ar_size = self._run(
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
        # walk the arena parents back to the initial state (the found
        # deadlock is always the last arena slot)
        chain: list[tuple] = []
        at = ar_size - 1
        while at >= 0:
            chain.append(tuple(int(v) for v in ar_cfg[at]))
            at = int(ar_par[at])
        chain.reverse()
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
