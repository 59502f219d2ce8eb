"""numpy/numba core of the kernel engine: the ``numba`` and ``python`` tiers.

:mod:`repro.analysis.kernelpath` imports this module only when a search
resolves to one of these two tiers, so a process whose searches run on the
``cc`` tier (the default wherever a C compiler exists) loads neither numpy
nor numba.  :func:`run_core` wraps the engine's stdlib ``array`` tables with
``np.frombuffer`` (zero-copy) and runs :func:`_core_search` -- compiled with
``numba.njit`` on the numba tier, interpreted on the python tier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.kernelpath import _STATUS_FOUND, _STATUS_LIMIT, _STATUS_NOT_FOUND

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.kernelpath import KernelEngine

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    #: numba imported cleanly (a broken install counts as absent)
    NUMBA_OK = True
except Exception:  # ImportError, or a broken numba install
    NUMBA_OK = False

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
_core_py = _core_search.py_func if NUMBA_OK else _core_search


def run_core(
    eng: "KernelEngine", jit: bool, use_canon: int, max_states: int, track: bool
) -> tuple[int, int, int, list[tuple[int, ...]]]:
    """One search over ``eng``'s tables: ``(status, count, depth, chain)``.

    ``chain`` is the BFS path from the initial state to the found deadlock
    (per-message state indices), empty unless ``track`` and found.
    """
    core = _core_search if jit else _core_py

    def i32(buf):
        return np.frombuffer(buf, dtype=np.int32)

    with np.errstate(over="ignore"):  # uint64 hash mixing wraps by design
        status, count, depth, ar_cfg, ar_par, ar_size = core(
            eng._n,
            eng._S,
            eng._W,
            i32(eng._t_req),
            np.frombuffer(eng._t_nops, dtype=np.int8),
            i32(eng._t_ch0),
            i32(eng._t_nxt0),
            i32(eng._t_acq0),
            i32(eng._t_rel0),
            i32(eng._t_nxt1),
            np.frombuffer(eng._t_wait1, dtype=np.uint8),
            np.frombuffer(eng._t_occ, dtype=np.uint64),
            i32(eng._t_blk),
            i32(eng._init_cfg),
            eng._ncls,
            i32(eng._cls_off),
            i32(eng._cls_cols),
            use_canon,
            max_states,
            1 if track else 0,
        )
    chain: list[tuple[int, ...]] = []
    if track and status == _STATUS_FOUND:
        # walk the arena parents back to the initial state (the found
        # deadlock is always the last arena slot)
        at = int(ar_size) - 1
        while at >= 0:
            chain.append(tuple(int(v) for v in ar_cfg[at]))
            at = int(ar_par[at])
        chain.reverse()
    return int(status), int(count), int(depth), chain
