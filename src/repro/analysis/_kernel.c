/* Compiled search kernel: fused BFS over the fastpath transition tables.
 *
 * This is the C twin of the `cc` backend in repro/analysis/kernelpath.py.
 * It ports FastEngine._emissions / FastEngine.search / search_witness
 * (src/repro/analysis/fastpath.py) loop for loop: the same grant-round
 * orchestration (scan, deterministic pre-apply, joint-choice product,
 * mixed-radix arbitration), the same fused visited-dedup at emission
 * time, the same deadlock test, the same count/cap/early-exit semantics.
 * Verdicts, states_explored and witness chains are bit-identical to the
 * reference engine; tests/test_kernelpath_differential.py pins that.
 *
 * Channel occupancy is a fixed-width array of W uint64 words, so specs
 * with more than 62 channels need no fallback; message count is bounded
 * by the single uint64 `pending` bitmask (n <= 64).
 *
 * The file is self-contained C99 with no dependencies beyond libc; the
 * Python side compiles it once per toolchain into a disk-cached shared
 * library and calls rk_search through ctypes.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define RK_NOT_FOUND 0
#define RK_FOUND 1
#define RK_LIMIT 2
#define RK_OOM 3

#define RK_ABI_VERSION 1

#ifdef _WIN32
#define RK_EXPORT __declspec(dllexport)
#else
#define RK_EXPORT __attribute__((visibility("default")))
#endif

/* ------------------------------------------------------------------ */
/* multi-word channel masks (W x uint64)                               */
/* ------------------------------------------------------------------ */

static inline int mw_test(const uint64_t *m, int32_t ch) {
    return (int)((m[ch >> 6] >> (ch & 63)) & 1u);
}

static inline void mw_set(uint64_t *m, int32_t ch) {
    m[ch >> 6] |= (uint64_t)1 << (ch & 63);
}

static inline void mw_clear(uint64_t *m, int32_t ch) {
    m[ch >> 6] &= ~((uint64_t)1 << (ch & 63));
}

static inline void mw_zero(uint64_t *m, int32_t W) {
    for (int32_t w = 0; w < W; w++) m[w] = 0;
}

static inline void mw_copy(uint64_t *dst, const uint64_t *src, int32_t W) {
    for (int32_t w = 0; w < W; w++) dst[w] = src[w];
}

static inline int mw_intersects(const uint64_t *a, const uint64_t *b, int32_t W) {
    for (int32_t w = 0; w < W; w++)
        if (a[w] & b[w]) return 1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* growable arenas                                                     */
/* ------------------------------------------------------------------ */

typedef struct {
    int32_t *cfg;      /* size * n per-message state indices            */
    int64_t *parent;   /* size (only when tracking parents)             */
    int64_t size;
    int64_t cap;
} rk_arena;

static int arena_reserve(rk_arena *a, int64_t need, int32_t n, int track) {
    if (need <= a->cap) return 1;
    int64_t cap = a->cap ? a->cap : 1024;
    while (cap < need) cap *= 2;
    int32_t *cfg = (int32_t *)realloc(a->cfg, (size_t)cap * n * sizeof(int32_t));
    if (!cfg) return 0;
    a->cfg = cfg;
    if (track) {
        int64_t *par = (int64_t *)realloc(a->parent, (size_t)cap * sizeof(int64_t));
        if (!par) return 0;
        a->parent = par;
    }
    a->cap = cap;
    return 1;
}

/* ------------------------------------------------------------------ */
/* visited hash set (open addressing over int32 rows)                  */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t *slots;    /* index into key arena, -1 empty                */
    int64_t nslots;    /* power of two                                  */
    int32_t *keys;     /* used * n                                      */
    int64_t used;
    int64_t keycap;
} rk_set;

static uint64_t row_hash(const int32_t *row, int32_t n) {
    /* FNV-1a over the row bytes, finalized with a xor-shift mix */
    uint64_t h = 1469598103934665603ULL;
    const uint8_t *p = (const uint8_t *)row;
    for (size_t i = 0; i < (size_t)n * sizeof(int32_t); i++) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
}

static int set_init(rk_set *s, int64_t nslots) {
    s->nslots = nslots;
    s->slots = (int64_t *)malloc((size_t)nslots * sizeof(int64_t));
    if (!s->slots) return 0;
    memset(s->slots, 0xff, (size_t)nslots * sizeof(int64_t));
    s->keys = NULL;
    s->used = 0;
    s->keycap = 0;
    return 1;
}

static void set_free(rk_set *s) {
    free(s->slots);
    free(s->keys);
}

static int set_grow(rk_set *s, int32_t n) {
    int64_t nslots = s->nslots * 2;
    int64_t *slots = (int64_t *)malloc((size_t)nslots * sizeof(int64_t));
    if (!slots) return 0;
    memset(slots, 0xff, (size_t)nslots * sizeof(int64_t));
    for (int64_t k = 0; k < s->used; k++) {
        uint64_t h = row_hash(s->keys + k * n, n) & (uint64_t)(nslots - 1);
        while (slots[h] >= 0) h = (h + 1) & (uint64_t)(nslots - 1);
        slots[h] = k;
    }
    free(s->slots);
    s->slots = slots;
    s->nslots = nslots;
    return 1;
}

/* insert row if absent; returns 1 inserted, 0 present, -1 OOM */
static int set_add(rk_set *s, const int32_t *row, int32_t n) {
    if ((s->used + 1) * 2 >= s->nslots && !set_grow(s, n)) return -1;
    uint64_t h = row_hash(row, n) & (uint64_t)(s->nslots - 1);
    while (s->slots[h] >= 0) {
        if (memcmp(s->keys + s->slots[h] * n, row, (size_t)n * sizeof(int32_t)) == 0)
            return 0;
        h = (h + 1) & (uint64_t)(s->nslots - 1);
    }
    if (s->used >= s->keycap) {
        int64_t cap = s->keycap ? s->keycap * 2 : 4096;
        int32_t *keys = (int32_t *)realloc(s->keys, (size_t)cap * n * sizeof(int32_t));
        if (!keys) return -1;
        s->keys = keys;
        s->keycap = cap;
    }
    memcpy(s->keys + s->used * n, row, (size_t)n * sizeof(int32_t));
    s->slots[h] = s->used++;
    return 1;
}

/* ------------------------------------------------------------------ */
/* per-root (cfg, pending) node set: branch-convergence pruning        */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t *slots;
    int64_t nslots;
    int32_t *cfg;      /* used * n                                      */
    uint64_t *pend;    /* used                                          */
    int64_t used;
    int64_t cap;
} rk_nodeset;

static int nodeset_init(rk_nodeset *s, int64_t nslots) {
    s->nslots = nslots;
    s->slots = (int64_t *)malloc((size_t)nslots * sizeof(int64_t));
    if (!s->slots) return 0;
    memset(s->slots, 0xff, (size_t)nslots * sizeof(int64_t));
    s->cfg = NULL;
    s->pend = NULL;
    s->used = 0;
    s->cap = 0;
    return 1;
}

static void nodeset_free(rk_nodeset *s) {
    free(s->slots);
    free(s->cfg);
    free(s->pend);
}

static void nodeset_reset(rk_nodeset *s) {
    /* cheap per-root reset: the slot table is only cleared when it was
     * touched (the common node expands without ever branching twice) */
    if (s->used)
        memset(s->slots, 0xff, (size_t)s->nslots * sizeof(int64_t));
    s->used = 0;
}

static int nodeset_grow(rk_nodeset *s, int32_t n) {
    int64_t nslots = s->nslots * 2;
    int64_t *slots = (int64_t *)malloc((size_t)nslots * sizeof(int64_t));
    if (!slots) return 0;
    memset(slots, 0xff, (size_t)nslots * sizeof(int64_t));
    for (int64_t k = 0; k < s->used; k++) {
        uint64_t h = (row_hash(s->cfg + k * n, n) ^ (s->pend[k] * 0x9e3779b97f4a7c15ULL))
                     & (uint64_t)(nslots - 1);
        while (slots[h] >= 0) h = (h + 1) & (uint64_t)(nslots - 1);
        slots[h] = k;
    }
    free(s->slots);
    s->slots = slots;
    s->nslots = nslots;
    return 1;
}

static int nodeset_add(rk_nodeset *s, const int32_t *row, uint64_t pend, int32_t n) {
    if ((s->used + 1) * 2 >= s->nslots && !nodeset_grow(s, n)) return -1;
    uint64_t h = (row_hash(row, n) ^ (pend * 0x9e3779b97f4a7c15ULL))
                 & (uint64_t)(s->nslots - 1);
    while (s->slots[h] >= 0) {
        int64_t k = s->slots[h];
        if (s->pend[k] == pend &&
            memcmp(s->cfg + k * n, row, (size_t)n * sizeof(int32_t)) == 0)
            return 0;
        h = (h + 1) & (uint64_t)(s->nslots - 1);
    }
    if (s->used >= s->cap) {
        int64_t cap = s->cap ? s->cap * 2 : 1024;
        int32_t *cfg = (int32_t *)realloc(s->cfg, (size_t)cap * n * sizeof(int32_t));
        if (!cfg) return -1;
        s->cfg = cfg;
        uint64_t *pendarr = (uint64_t *)realloc(s->pend, (size_t)cap * sizeof(uint64_t));
        if (!pendarr) return -1;
        s->pend = pendarr;
        s->cap = cap;
    }
    memcpy(s->cfg + s->used * n, row, (size_t)n * sizeof(int32_t));
    s->pend[s->used] = pend;
    s->slots[h] = s->used++;
    return 1;
}

/* ------------------------------------------------------------------ */
/* expansion node stack                                                */
/* ------------------------------------------------------------------ */

typedef struct {
    int32_t *cfg;      /* cap * n                                       */
    uint64_t *pend;    /* cap                                           */
    uint64_t *mask;    /* cap * W                                       */
    uint8_t *fix;      /* cap: 1 = already at fixpoint, emit directly   */
    int64_t top;
    int64_t cap;
} rk_stack;

static int stack_reserve(rk_stack *s, int64_t need, int32_t n, int32_t W) {
    if (need <= s->cap) return 1;
    int64_t cap = s->cap ? s->cap : 256;
    while (cap < need) cap *= 2;
    int32_t *cfg = (int32_t *)realloc(s->cfg, (size_t)cap * n * sizeof(int32_t));
    if (!cfg) return 0;
    s->cfg = cfg;
    uint64_t *pend = (uint64_t *)realloc(s->pend, (size_t)cap * sizeof(uint64_t));
    if (!pend) return 0;
    s->pend = pend;
    uint64_t *mask = (uint64_t *)realloc(s->mask, (size_t)cap * W * sizeof(uint64_t));
    if (!mask) return 0;
    s->mask = mask;
    uint8_t *fix = (uint8_t *)realloc(s->fix, (size_t)cap);
    if (!fix) return 0;
    s->fix = fix;
    s->cap = cap;
    return 1;
}

/* ------------------------------------------------------------------ */
/* the search context                                                  */
/* ------------------------------------------------------------------ */

typedef struct {
    int32_t n, S, W;
    const int32_t *req_ch;   /* n*S: channel this state waits on, -1    */
    const int8_t *nops;      /* n*S: option count 0..2                  */
    const int32_t *ch0;      /* n*S: option-0 arbitration channel, -1   */
    const int32_t *nxt0;     /* n*S: option-0 successor index           */
    const int32_t *acq0;     /* n*S: option-0 acquired channel, -1      */
    const int32_t *rel0;     /* n*S: option-0 released channel, -1      */
    const int32_t *nxt1;     /* n*S: option-1 successor index           */
    const uint8_t *wait1;    /* n*S: option-1 is wait (1) vs stall (0)  */
    const uint64_t *occ;     /* n*S*W occupancy words                   */
    const int32_t *blk_ch;   /* n*S: deadlock-relevant request, -1      */
    int32_t ncls;            /* symmetry classes (canonicalization)     */
    const int32_t *cls_off;  /* ncls+1 offsets into cls_cols            */
    const int32_t *cls_cols;
    int use_canon;
    int64_t max_states;
    int track;

    rk_arena arena;          /* BFS queue: states in discovery order    */
    rk_set visited;
    rk_nodeset seen;         /* per-root branch-convergence set         */
    rk_stack stack;
    rk_stack kids;           /* forward-order child buffer per branch   */
    int64_t count;

    /* scratch (allocated once; n <= 64 keeps these tiny) */
    int32_t *keybuf;         /* n: canonicalized emission key           */
    int32_t *wait_to;        /* n: deadlock wait-for pointers           */
    int32_t *movers;         /* n */
    int32_t *bmov;           /* n: branching movers                     */
    int32_t *bnxt0, *bacq0, *brel0, *bnxt1, *bch0; /* n: cached options */
    uint8_t *btwo, *bwait1;  /* n */
    int32_t *chose;          /* n: chosen channel per branching mover   */
    uint8_t *cdig;           /* n: chosen option digit per mover (0/1)  */
    int32_t *t_ch;           /* n: contested-channel list               */
    int32_t *t_cnt;          /* n */
    int32_t *t_mem;          /* n*n: requester lists                    */
    int32_t *winner_of;      /* n: winner per contested channel slot    */
    uint64_t *want, *freed, *reqm, *seen1, *seen2, *dupm, *maskbuf;
} rk_ctx;

static void ctx_free(rk_ctx *c) {
    free(c->arena.cfg);
    free(c->arena.parent);
    set_free(&c->visited);
    nodeset_free(&c->seen);
    free(c->stack.cfg); free(c->stack.pend); free(c->stack.mask); free(c->stack.fix);
    free(c->kids.cfg); free(c->kids.pend); free(c->kids.mask); free(c->kids.fix);
    free(c->keybuf); free(c->wait_to); free(c->movers); free(c->bmov);
    free(c->bnxt0); free(c->bacq0); free(c->brel0); free(c->bnxt1); free(c->bch0);
    free(c->btwo); free(c->bwait1); free(c->chose); free(c->cdig);
    free(c->t_ch); free(c->t_cnt); free(c->t_mem); free(c->winner_of);
    free(c->want);
}

static int ctx_alloc(rk_ctx *c) {
    int32_t n = c->n, W = c->W;
    memset(&c->arena, 0, sizeof(c->arena));
    memset(&c->stack, 0, sizeof(c->stack));
    memset(&c->kids, 0, sizeof(c->kids));
    if (!set_init(&c->visited, 1 << 14)) return 0;
    if (!nodeset_init(&c->seen, 1 << 10)) return 0;
    c->keybuf = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    c->wait_to = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    c->movers = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    c->bmov = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    c->bnxt0 = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    c->bacq0 = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    c->brel0 = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    c->bnxt1 = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    c->bch0 = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    c->btwo = (uint8_t *)malloc((size_t)n);
    c->bwait1 = (uint8_t *)malloc((size_t)n);
    c->chose = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    c->cdig = (uint8_t *)malloc((size_t)n);
    c->t_ch = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    c->t_cnt = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    c->t_mem = (int32_t *)malloc((size_t)n * n * sizeof(int32_t));
    c->winner_of = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    /* one block for the 7 W-word scratch masks */
    c->want = (uint64_t *)malloc((size_t)7 * W * sizeof(uint64_t));
    if (!c->keybuf || !c->wait_to || !c->movers || !c->bmov || !c->bnxt0 ||
        !c->bacq0 || !c->brel0 || !c->bnxt1 || !c->bch0 || !c->btwo ||
        !c->bwait1 || !c->chose || !c->cdig || !c->t_ch || !c->t_cnt || !c->t_mem ||
        !c->winner_of || !c->want)
        return 0;
    c->freed = c->want + W;
    c->reqm = c->want + 2 * W;
    c->seen1 = c->want + 3 * W;
    c->seen2 = c->want + 4 * W;
    c->dupm = c->want + 5 * W;
    c->maskbuf = c->want + 6 * W;
    return 1;
}

/* canonicalize cur into keybuf: sort values within each symmetry class */
static const int32_t *canon_key(rk_ctx *c, const int32_t *cur) {
    if (!c->use_canon || c->ncls == 0) return cur;
    memcpy(c->keybuf, cur, (size_t)c->n * sizeof(int32_t));
    for (int32_t t = 0; t < c->ncls; t++) {
        int32_t lo = c->cls_off[t], hi = c->cls_off[t + 1];
        /* insertion sort of keybuf values at columns cls_cols[lo:hi] */
        for (int32_t a = lo + 1; a < hi; a++) {
            int32_t v = c->keybuf[c->cls_cols[a]];
            int32_t b = a - 1;
            while (b >= lo && c->keybuf[c->cls_cols[b]] > v) {
                c->keybuf[c->cls_cols[b + 1]] = c->keybuf[c->cls_cols[b]];
                b--;
            }
            c->keybuf[c->cls_cols[b + 1]] = v;
        }
    }
    return c->keybuf;
}

/* wait-for cycle test; mirrors FastEngine._deadlocked truthiness */
static int is_deadlocked(rk_ctx *c, const int32_t *cur, const uint64_t *mask) {
    int32_t n = c->n, S = c->S, W = c->W;
    int any = 0;
    for (int32_t i = 0; i < n; i++) {
        c->wait_to[i] = -1;
        int32_t rc = c->blk_ch[(int64_t)i * S + cur[i]];
        if (rc < 0 || !mw_test(mask, rc)) continue;
        for (int32_t j = 0; j < n; j++) {
            const uint64_t *oj = c->occ + ((int64_t)j * S + cur[j]) * W;
            if ((oj[rc >> 6] >> (rc & 63)) & 1u) {
                if (j != i) {
                    c->wait_to[i] = j;
                    any = 1;
                }
                break; /* occupancies are disjoint: first owner is the owner */
            }
        }
    }
    if (!any) return 0;
    for (int32_t i = 0; i < n; i++) {
        int32_t p = c->wait_to[i];
        for (int32_t k = 0; k < n && p >= 0; k++) p = c->wait_to[p];
        if (p >= 0) return 1; /* a pointer that survives n hops is cyclic */
    }
    return 0;
}

/* emit one expansion leaf: fused visited-dedup, count/cap, deadlock.
 * Returns RK_NOT_FOUND to continue, RK_FOUND/RK_LIMIT/RK_OOM to stop. */
static int emit(rk_ctx *c, const int32_t *cur, const uint64_t *mask, int64_t root) {
    const int32_t *key = canon_key(c, cur);
    int added = set_add(&c->visited, key, c->n);
    if (added < 0) return RK_OOM;
    if (!added) return RK_NOT_FOUND; /* duplicate: never counted */
    c->count++;
    if (c->count > c->max_states) return RK_LIMIT;
    if (!arena_reserve(&c->arena, c->arena.size + 1, c->n, c->track)) return RK_OOM;
    memcpy(c->arena.cfg + c->arena.size * c->n, cur, (size_t)c->n * sizeof(int32_t));
    if (c->track) c->arena.parent[c->arena.size] = root;
    c->arena.size++;
    if (is_deadlocked(c, cur, mask)) return RK_FOUND;
    return RK_NOT_FOUND;
}

/* expand one root state: the grant-round machine of FastEngine._emissions */
static int expand_root(rk_ctx *c, int64_t root) {
    const int32_t n = c->n, S = c->S, W = c->W;
    rk_stack *st = &c->stack;
    rk_stack *kids = &c->kids;

    nodeset_reset(&c->seen);
    st->top = 0;
    if (!stack_reserve(st, 1, n, W)) return RK_OOM;
    memcpy(st->cfg, c->arena.cfg + root * n, (size_t)n * sizeof(int32_t));
    st->pend[0] = (n == 64) ? ~(uint64_t)0 : (((uint64_t)1 << n) - 1);
    /* root occupancy: OR of the per-message occupancy rows */
    mw_zero(st->mask, W);
    for (int32_t i = 0; i < n; i++) {
        const uint64_t *oi = c->occ + ((int64_t)i * S + st->cfg[i]) * W;
        for (int32_t w = 0; w < W; w++) st->mask[w] |= oi[w];
    }
    st->fix[0] = 0;
    st->top = 1;

    while (st->top > 0) {
        st->top--;
        int32_t *cur = st->cfg + st->top * n;
        uint64_t pending = st->pend[st->top];
        uint64_t *mask = c->maskbuf;
        mw_copy(mask, st->mask + st->top * W, W);
        int fixed = st->fix[st->top];

        int branch = 0;
        int nb = 0;          /* branching movers */
        int pre_moved = 0;

        if (!fixed) {
            for (;;) { /* grant rounds */
                if (!pending) break;
                int nm = 0, multi = 0, clash = 0;
                mw_zero(c->want, W);
                mw_zero(c->reqm, W);
                for (int32_t i = 0; i < n; i++) {
                    if (!((pending >> i) & 1u)) continue;
                    int64_t idx = (int64_t)i * S + cur[i];
                    int32_t rc = c->req_ch[idx];
                    int8_t no = c->nops[idx];
                    if (rc >= 0 && mw_test(mask, rc)) {
                        mw_set(c->want, rc); /* blocked */
                    } else if (no > 0) {
                        c->movers[nm++] = i;
                        if (no > 1) {
                            multi = 1;
                        } else if (rc >= 0) {
                            if (mw_test(c->reqm, rc)) clash = 1;
                            mw_set(c->reqm, rc);
                        }
                    } else {
                        pending &= ~((uint64_t)1 << i); /* done */
                    }
                }
                if (!nm) break;
                if (!multi && !clash) {
                    /* fully deterministic round: apply every mover */
                    mw_zero(c->freed, W);
                    for (int k = 0; k < nm; k++) {
                        int32_t i = c->movers[k];
                        int64_t idx = (int64_t)i * S + cur[i];
                        int32_t acq = c->acq0[idx], rel = c->rel0[idx];
                        cur[i] = c->nxt0[idx];
                        if (acq >= 0) mw_set(mask, acq);
                        if (rel >= 0) {
                            mw_clear(mask, rel);
                            mw_set(c->freed, rel);
                        }
                        pending &= ~((uint64_t)1 << i);
                    }
                    if (!pending || !mw_intersects(c->freed, c->want, W)) break;
                    continue;
                }
                /* channel demand across first options: twice-requested
                 * channels force even single-option movers to branch */
                mw_zero(c->seen1, W);
                mw_zero(c->seen2, W);
                for (int k = 0; k < nm; k++) {
                    int32_t i = c->movers[k];
                    int32_t ch = c->ch0[(int64_t)i * S + cur[i]];
                    if (ch >= 0) {
                        if (mw_test(c->seen1, ch)) mw_set(c->seen2, ch);
                        mw_set(c->seen1, ch);
                    }
                }
                nb = 0;
                mw_zero(c->freed, W);
                for (int k = 0; k < nm; k++) {
                    int32_t i = c->movers[k];
                    int64_t idx = (int64_t)i * S + cur[i];
                    int32_t ch = c->ch0[idx];
                    if (c->nops[idx] > 1 || (ch >= 0 && mw_test(c->seen2, ch))) {
                        c->bmov[nb++] = i;
                        continue;
                    }
                    /* deterministic: pre-apply in place */
                    int32_t acq = c->acq0[idx], rel = c->rel0[idx];
                    cur[i] = c->nxt0[idx];
                    if (acq >= 0) mw_set(mask, acq);
                    if (rel >= 0) {
                        mw_clear(mask, rel);
                        mw_set(c->freed, rel);
                    }
                    pending &= ~((uint64_t)1 << i);
                    pre_moved = 1;
                }
                if (!nb) { /* unreachable in practice: multi/clash imply some */
                    if (!pending || !mw_intersects(c->freed, c->want, W)) break;
                    continue;
                }
                branch = 1;
                break;
            }
        }

        if (!branch) {
            int rc = emit(c, cur, mask, root);
            if (rc != RK_NOT_FOUND) return rc;
            continue;
        }

        /* branching round: joint choices x arbitration winner sets.
         * Children are generated in reference combo order into `kids`,
         * then pushed onto the stack in reverse (LIFO pop order equals
         * the reference's depth-first emission order). */
        for (int k = 0; k < nb; k++) {
            int32_t i = c->bmov[k];
            int64_t idx = (int64_t)i * S + cur[i];
            c->bch0[k] = c->ch0[idx];
            c->bnxt0[k] = c->nxt0[idx];
            c->bacq0[k] = c->acq0[idx];
            c->brel0[k] = c->rel0[idx];
            c->bnxt1[k] = c->nxt1[idx];
            c->bwait1[k] = c->wait1[idx];
            c->btwo[k] = (uint8_t)(c->nops[idx] > 1);
        }
        int64_t ncombo = 1;
        for (int k = 0; k < nb; k++)
            if (c->btwo[k]) ncombo <<= 1;
        kids->top = 0;
        for (int64_t combo = 0; combo < ncombo; combo++) {
            /* digit of mover k: first two-option mover varies slowest */
            int64_t rem = combo;
            int64_t div = ncombo;
            int T = 0; /* contested channels, first-requester order */
            for (int k = 0; k < nb; k++) {
                int choice = 0;
                if (c->btwo[k]) {
                    div >>= 1;
                    choice = (int)((rem / div) & 1);
                }
                c->cdig[k] = (uint8_t)choice;
                int32_t ch = (choice == 0) ? c->bch0[k] : -1;
                c->chose[k] = ch;
                if (ch >= 0) {
                    int t = 0;
                    while (t < T && c->t_ch[t] != ch) t++;
                    if (t == T) {
                        c->t_ch[T] = ch;
                        c->t_cnt[T] = 0;
                        T++;
                    }
                    c->t_mem[t * n + c->t_cnt[t]++] = k; /* bmover slot */
                }
            }
            /* compress to genuinely contested channels, keeping order */
            int Tc = 0;
            for (int t = 0; t < T; t++) {
                if (c->t_cnt[t] > 1) {
                    if (Tc != t) {
                        c->t_ch[Tc] = c->t_ch[t];
                        c->t_cnt[Tc] = c->t_cnt[t];
                        memmove(c->t_mem + Tc * n, c->t_mem + t * n,
                                (size_t)c->t_cnt[t] * sizeof(int32_t));
                    }
                    Tc++;
                }
            }
            int64_t nwin = 1;
            for (int t = 0; t < Tc; t++) nwin *= c->t_cnt[t];
            for (int64_t w = 0; w < nwin; w++) {
                /* mixed-radix winner set: last contested channel varies
                 * fastest, matching product(*requests.values()) */
                int64_t acc = w;
                for (int t = Tc - 1; t >= 0; t--) {
                    c->winner_of[t] = c->t_mem[t * n + (int)(acc % c->t_cnt[t])];
                    acc /= c->t_cnt[t];
                }
                if (!stack_reserve(kids, kids->top + 1, n, W)) return RK_OOM;
                int32_t *nxt = kids->cfg + kids->top * n;
                uint64_t *nmask = kids->mask + kids->top * W;
                memcpy(nxt, cur, (size_t)n * sizeof(int32_t));
                mw_copy(nmask, mask, W);
                uint64_t npend = pending;
                int moved = pre_moved;
                for (int k = 0; k < nb; k++) {
                    int32_t i = c->bmov[k];
                    if (c->cdig[k] == 0) {
                        int32_t ch = c->bch0[k];
                        if (ch >= 0) {
                            /* contested? then only the winner advances */
                            int lost = 0;
                            for (int t = 0; t < Tc; t++) {
                                if (c->t_ch[t] == ch) {
                                    if (c->winner_of[t] != k) lost = 1;
                                    break;
                                }
                            }
                            if (lost) {
                                npend &= ~((uint64_t)1 << i);
                                continue;
                            }
                        }
                        nxt[i] = c->bnxt0[k];
                        npend &= ~((uint64_t)1 << i);
                        moved = 1;
                        if (c->bacq0[k] >= 0) mw_set(nmask, c->bacq0[k]);
                        if (c->brel0[k] >= 0) mw_clear(nmask, c->brel0[k]);
                    } else if (c->bwait1[k]) {
                        /* wait: stays pending, nothing changes */
                    } else {
                        /* stall: state moves, not "moved" */
                        nxt[i] = c->bnxt1[k];
                        npend &= ~((uint64_t)1 << i);
                    }
                }
                if (moved) {
                    int fresh = nodeset_add(&c->seen, nxt, npend, n);
                    if (fresh < 0) return RK_OOM;
                    if (!fresh) continue; /* convergent branch: prune */
                    kids->pend[kids->top] = npend;
                    kids->fix[kids->top] = 0;
                } else {
                    kids->pend[kids->top] = npend;
                    kids->fix[kids->top] = 1; /* fixpoint: emit directly */
                }
                kids->top++;
            }
        }
        /* push children in reverse for depth-first reference order */
        if (!stack_reserve(st, st->top + kids->top, n, W)) return RK_OOM;
        /* NOTE: `cur`/`mask` point into stack/scratch storage that the
         * reserve above may have reallocated; they are dead here. */
        for (int64_t k = kids->top - 1; k >= 0; k--) {
            memcpy(st->cfg + st->top * n, kids->cfg + k * n,
                   (size_t)n * sizeof(int32_t));
            st->pend[st->top] = kids->pend[k];
            mw_copy(st->mask + st->top * W, kids->mask + k * W, W);
            st->fix[st->top] = kids->fix[k];
            st->top++;
        }
    }
    return RK_NOT_FOUND;
}

RK_EXPORT int rk_abi_version(void) { return RK_ABI_VERSION; }

RK_EXPORT void rk_free(void *p) { free(p); }

/* Full BFS; returns RK_* status.  out_count is states_explored (valid for
 * NOT_FOUND / FOUND), out_depth the BFS level count (search() semantics).
 * With track_parents, a FOUND search also returns the init..deadlock
 * chain as a malloc'd (chain_len x n) int32 block the caller must
 * rk_free. */
RK_EXPORT int rk_search(
    int32_t n, int32_t S, int32_t W,
    const int32_t *req_ch, const int8_t *nops,
    const int32_t *ch0, const int32_t *nxt0,
    const int32_t *acq0, const int32_t *rel0,
    const int32_t *nxt1, const uint8_t *wait1,
    const uint64_t *occ, const int32_t *blk_ch,
    const int32_t *init_cfg,
    int32_t ncls, const int32_t *cls_off, const int32_t *cls_cols,
    int32_t use_canon,
    int64_t max_states,
    int32_t track_parents,
    int64_t *out_count, int64_t *out_depth,
    int32_t **out_chain, int64_t *out_chain_len)
{
    if (n < 1 || n > 64) return RK_OOM; /* caller guards; belt and braces */
    rk_ctx c;
    memset(&c, 0, sizeof(c));
    c.n = n; c.S = S; c.W = W;
    c.req_ch = req_ch; c.nops = nops; c.ch0 = ch0; c.nxt0 = nxt0;
    c.acq0 = acq0; c.rel0 = rel0; c.nxt1 = nxt1; c.wait1 = wait1;
    c.occ = occ; c.blk_ch = blk_ch;
    c.ncls = ncls; c.cls_off = cls_off; c.cls_cols = cls_cols;
    c.use_canon = use_canon;
    c.max_states = max_states;
    c.track = track_parents;
    c.count = 1; /* the initial state */
    *out_count = 0;
    *out_depth = 0;
    if (out_chain) *out_chain = NULL;
    if (out_chain_len) *out_chain_len = 0;

    int status = RK_OOM;
    if (!ctx_alloc(&c)) goto done;
    if (!arena_reserve(&c.arena, 1, n, c.track)) goto done;
    memcpy(c.arena.cfg, init_cfg, (size_t)n * sizeof(int32_t));
    if (c.track) c.arena.parent[0] = -1;
    c.arena.size = 1;
    if (set_add(&c.visited, canon_key(&c, init_cfg), n) < 0) goto done;

    int64_t head = 0, boundary = 1, depth = 0;
    status = RK_NOT_FOUND;
    while (head < c.arena.size) {
        status = expand_root(&c, head);
        head++;
        if (status == RK_FOUND) {
            *out_depth = depth + 1;
            break;
        }
        if (status != RK_NOT_FOUND) break; /* limit / oom */
        if (head == boundary) {
            depth++;
            boundary = c.arena.size;
        }
    }
    if (status == RK_NOT_FOUND) *out_depth = depth;
    *out_count = c.count;

    if (status == RK_FOUND && c.track && out_chain && out_chain_len) {
        int64_t len = 0;
        for (int64_t idx = c.arena.size - 1; idx >= 0; idx = c.arena.parent[idx])
            len++;
        int32_t *chain = (int32_t *)malloc((size_t)len * n * sizeof(int32_t));
        if (!chain) {
            status = RK_OOM;
        } else {
            int64_t at = len;
            for (int64_t idx = c.arena.size - 1; idx >= 0;
                 idx = c.arena.parent[idx]) {
                at--;
                memcpy(chain + at * n, c.arena.cfg + idx * n,
                       (size_t)n * sizeof(int32_t));
            }
            *out_chain = chain;
            *out_chain_len = len;
        }
    }

done:
    ctx_free(&c);
    return status;
}
