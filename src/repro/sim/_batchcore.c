/* Compiled core for the cycle-accurate tier and the CASH runtime's
 * lower hull.  Three exported entry points, loaded through ctypes by
 * repro.native:
 *
 *   - repro_run_batch advances many independent pipeline cells in
 *     lockstep: every iteration of the outer loop steps each
 *     still-active cell through exactly one processed cycle (an
 *     "event epoch" -- the idle cycles in between are skipped exactly
 *     as in the Python event-driven engine), with finished cells
 *     dropped from the active list;
 *   - repro_decode_trace decodes a synthetic micro-op trace from raw
 *     Mersenne Twister words, draw for draw as
 *     repro.sim.trace.TraceGenerator._generate_reference consumes
 *     them from random.Random;
 *   - repro_lower_hull (at the end of this file) runs the monotone
 *     chain of repro.runtime.optimizer._lower_hull_presorted.
 *
 * The batch algorithm is a field-for-field port of
 * repro.sim.pipeline.MultiSlicePipeline._run_event_driven plus the
 * MemorySystem / CacheBank / ComposedL2 semantics it drives:
 *
 *   - same fetch/steer/capacity/misprediction ordering;
 *   - same issue arbitration (one ALU + one LSU per Slice per cycle,
 *     lowest op id first, MSHR cap on in-flight loads);
 *   - same in-order commit with per-cycle budget and the
 *     commit-wakeup ready-time relaxation for remote operands;
 *   - same LRU set-associative cache model, bank hashing, prewarm
 *     and bulk L1I replay on skipped cycles.
 *
 * Heap pops compare full packed values and every key in flight is
 * distinct (or duplicates are exact value duplicates), so any correct
 * binary heap reproduces CPython's heapq behaviour bit for bit; the
 * wake lists preserve append order via tail pointers.  Python-side
 * parity tests assert bit-identical PipelineResult, per-slice
 * counters and memory stats against MultiSlicePipeline.run for every
 * cell.
 *
 * All inputs are flat little-endian int64/int8 buffers prepared by
 * repro.sim.batchpipe from TraceArrays (see repro.sim.soa); -1 is the
 * None sentinel throughout.
 *
 * The decoder builds each random() double exactly from integer words
 * and only compares it against rates computed in Python; the hull
 * evaluates the same cross product as the Python chain, operation for
 * operation.  repro.native compiles with -ffp-contract=off, so no
 * multiply-add is ever fused and both see CPython's doubles bit for
 * bit by construction.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* params block layout (shared across the batch) */
enum {
    P_WINDOW = 0,
    P_ROB,
    P_FETCH_WIDTH,
    P_COMMIT_WIDTH,
    P_MAX_LOADS,
    P_MEM_DELAY,
    P_L1_HIT_DELAY,
    P_L1D_SETS,
    P_L1D_ASSOC,
    P_L1I_SETS,
    P_L1I_ASSOC,
    P_L2_SETS,
    P_L2_ASSOC,
    P_L2_BASE_DELAY,
    P_L2_HOP_DELAY,
    P_FRONT_END_DEPTH,
    P_COUNT
};

/* cell_conf layout (per cell) */
enum {
    C_SLICES = 0,
    C_L2_BANKS,
    C_TRACE_OFF,
    C_TRACE_LEN,
    C_WARM_OFF,
    C_WARM_LEN,
    C_COUNT
};

/* out_cell layout (per cell) */
enum {
    O_CYCLES = 0,
    O_L1_HITS,
    O_L2_HITS,
    O_L2_MISSES,
    O_MISPREDICTS,
    O_L1I_HITS,
    O_L1I_MISSES,
    O_L2_WRITEBACKS,
    O_STATUS,
    O_COUNT
};

/* out_slice layout (per cell x slice) */
enum {
    S_COMMITTED = 0,
    S_L2_ACCESSES,
    S_L2_MISSES,
    S_L1_MISSES,
    S_BRANCHES,
    S_BRANCH_MISPREDICTS,
    S_COUNT
};

#define KIND_LOAD 1
#define KIND_STORE 2
#define KIND_BRANCH 3
#define STALL_FOREVER 1000000000LL
/* op ids are packed into the low bits of future-heap keys */
#define OP_SHIFT 21
#define OP_MASK ((1LL << OP_SHIFT) - 1)

/* ---- growable min-heap of int64 keys ------------------------------- */

typedef struct {
    int64_t *data;
    int64_t len;
    int64_t cap;
} Heap;

static int heap_init(Heap *h, int64_t cap) {
    h->data = (int64_t *)malloc((size_t)cap * sizeof(int64_t));
    h->len = 0;
    h->cap = cap;
    return h->data == NULL ? -1 : 0;
}

static int heap_push(Heap *h, int64_t value) {
    int64_t i, parent;
    if (h->len == h->cap) {
        int64_t cap = h->cap * 2;
        int64_t *grown = (int64_t *)realloc(
            h->data, (size_t)cap * sizeof(int64_t));
        if (grown == NULL)
            return -1;
        h->data = grown;
        h->cap = cap;
    }
    i = h->len++;
    while (i > 0) {
        parent = (i - 1) >> 1;
        if (h->data[parent] <= value)
            break;
        h->data[i] = h->data[parent];
        i = parent;
    }
    h->data[i] = value;
    return 0;
}

static int64_t heap_pop(Heap *h) {
    int64_t top = h->data[0];
    int64_t last = h->data[--h->len];
    int64_t i = 0, child;
    for (;;) {
        child = 2 * i + 1;
        if (child >= h->len)
            break;
        if (child + 1 < h->len && h->data[child + 1] < h->data[child])
            child++;
        if (h->data[child] >= last)
            break;
        h->data[i] = h->data[child];
        i = child;
    }
    h->data[i] = last;
    return top;
}

/* ---- append-ordered wake lists (arena linked lists) ---------------- */

typedef struct {
    int32_t *head;   /* per producer op: first arena slot or -1 */
    int32_t *tail;   /* per producer op: last arena slot or -1 */
    int32_t *consumer;
    int32_t *next;
    int64_t used;
    int64_t cap;
} WakeLists;

static int wake_init(WakeLists *w, int64_t ops, int64_t cap) {
    w->head = (int32_t *)malloc((size_t)ops * sizeof(int32_t));
    w->tail = (int32_t *)malloc((size_t)ops * sizeof(int32_t));
    w->consumer = (int32_t *)malloc((size_t)cap * sizeof(int32_t));
    w->next = (int32_t *)malloc((size_t)cap * sizeof(int32_t));
    w->used = 0;
    w->cap = cap;
    if (!w->head || !w->tail || !w->consumer || !w->next)
        return -1;
    memset(w->head, 0xff, (size_t)ops * sizeof(int32_t));
    memset(w->tail, 0xff, (size_t)ops * sizeof(int32_t));
    return 0;
}

static void wake_append(WakeLists *w, int64_t producer, int64_t consumer) {
    int32_t slot = (int32_t)w->used++;
    w->consumer[slot] = (int32_t)consumer;
    w->next[slot] = -1;
    if (w->head[producer] < 0)
        w->head[producer] = slot;
    else
        w->next[w->tail[producer]] = slot;
    w->tail[producer] = slot;
}

static void wake_free(WakeLists *w) {
    free(w->head);
    free(w->tail);
    free(w->consumer);
    free(w->next);
}

/* ---- LRU set-associative cache banks ------------------------------- */

typedef struct {
    int64_t *tag;    /* [banks * sets * assoc] */
    int64_t *last;   /* [banks * sets * assoc] */
    uint8_t *dirty;  /* [banks * sets * assoc] */
    uint8_t *cnt;    /* [banks * sets] occupied ways */
    int64_t *clock;  /* [banks] */
    int64_t sets;
    int64_t assoc;
} CacheArr;

static int cache_init(CacheArr *c, int64_t banks, int64_t sets,
                      int64_t assoc) {
    size_t lines = (size_t)(banks * sets * assoc);
    c->tag = (int64_t *)malloc(lines * sizeof(int64_t));
    c->last = (int64_t *)malloc(lines * sizeof(int64_t));
    c->dirty = (uint8_t *)calloc(lines, 1);
    c->cnt = (uint8_t *)calloc((size_t)(banks * sets), 1);
    c->clock = (int64_t *)calloc((size_t)banks, sizeof(int64_t));
    c->sets = sets;
    c->assoc = assoc;
    if (!c->tag || !c->last || !c->dirty || !c->cnt || !c->clock)
        return -1;
    return 0;
}

static void cache_free(CacheArr *c) {
    free(c->tag);
    free(c->last);
    free(c->dirty);
    free(c->cnt);
    free(c->clock);
}

/* Access one bank: returns 1 on hit, 0 on miss (installing the line,
 * counting a writeback into *wb if a dirty victim is evicted). */
static int cache_access(CacheArr *c, int64_t bank, int64_t block,
                        int is_write, int64_t *wb) {
    int64_t set = block % c->sets;
    int64_t tag = block / c->sets;
    int64_t base = (bank * c->sets + set) * c->assoc;
    int64_t clock = ++c->clock[bank];
    int64_t count = c->cnt[bank * c->sets + set];
    int64_t i, victim, victim_last;
    for (i = 0; i < count; i++) {
        if (c->tag[base + i] == tag) {
            c->last[base + i] = clock;
            if (is_write)
                c->dirty[base + i] = 1;
            return 1;
        }
    }
    if (count >= c->assoc) {
        victim = 0;
        victim_last = c->last[base];
        for (i = 1; i < count; i++) {
            if (c->last[base + i] < victim_last) {
                victim = i;
                victim_last = c->last[base + i];
            }
        }
        if (c->dirty[base + victim] && wb != NULL)
            (*wb)++;
        for (i = victim; i < count - 1; i++) {
            c->tag[base + i] = c->tag[base + i + 1];
            c->last[base + i] = c->last[base + i + 1];
            c->dirty[base + i] = c->dirty[base + i + 1];
        }
        count--;
    }
    c->tag[base + count] = tag;
    c->last[base + count] = clock;
    c->dirty[base + count] = (uint8_t)(is_write ? 1 : 0);
    c->cnt[bank * c->sets + set] = (uint8_t)(count + 1);
    return 0;
}

/* ---- one pipeline cell --------------------------------------------- */

typedef struct {
    /* static shape */
    int64_t n;          /* trace length */
    int64_t S;          /* slices */
    int64_t nb;         /* l2 banks */
    int64_t prod_width;
    const int8_t *kinds;
    const int8_t *is_mem;
    const int8_t *mis;
    const int64_t *addr;
    const int64_t *code;
    const int64_t *prod;
    const int64_t *params;
    int64_t *l2_delay;  /* [nb] */
    int64_t operand_hops;
    int64_t steer_cap;
    int64_t fetch_budget_max;
    int64_t commit_budget_max;
    int64_t max_cycles;

    /* memory system */
    CacheArr l1d;
    CacheArr l1i;
    CacheArr l2;
    int64_t l2_wb;
    int64_t l1_hits, l2_hits, mem_acc, l1i_hits, l1i_misses;

    /* scoreboard */
    int32_t *slice_of;
    int64_t *fetched_at;
    int64_t *complete;
    uint8_t *committed;
    uint8_t *issued;
    uint8_t *queued;
    int32_t *waiting;
    int64_t *ready_time;
    WakeLists wake_complete;
    WakeLists wake_commit;

    Heap *ready;        /* [S] heaps of op ids */
    Heap *future;       /* [S] heaps of (time << OP_SHIFT) | op */
    Heap *mshr;         /* [S] heaps of release times */
    int64_t *stash;     /* [n] issue-loop scratch */
    int64_t *rob_occ;
    int64_t *win_occ;
    int64_t *ready_events;

    /* per-slice counters */
    int64_t *committed_n;
    int64_t *l2_accesses_n;
    int64_t *l2_misses_n;
    int64_t *l1_misses_n;
    int64_t *branches_n;
    int64_t *branch_mispredicts_n;

    /* cursors */
    int64_t fetch_index;
    int64_t commit_index;
    int64_t fetch_stalled_until;
    int64_t mispredicts;
    int64_t cycle;
} Cell;

static void cell_free(Cell *c) {
    int64_t s;
    cache_free(&c->l1d);
    cache_free(&c->l1i);
    cache_free(&c->l2);
    free(c->l2_delay);
    free(c->slice_of);
    free(c->fetched_at);
    free(c->complete);
    free(c->committed);
    free(c->issued);
    free(c->queued);
    free(c->waiting);
    free(c->ready_time);
    wake_free(&c->wake_complete);
    wake_free(&c->wake_commit);
    if (c->ready != NULL)
        for (s = 0; s < c->S; s++)
            free(c->ready[s].data);
    if (c->future != NULL)
        for (s = 0; s < c->S; s++)
            free(c->future[s].data);
    if (c->mshr != NULL)
        for (s = 0; s < c->S; s++)
            free(c->mshr[s].data);
    free(c->ready);
    free(c->future);
    free(c->mshr);
    free(c->stash);
    free(c->rob_occ);
    free(c->win_occ);
    free(c->ready_events);
    free(c->committed_n);
    free(c->l2_accesses_n);
    free(c->l2_misses_n);
    free(c->l1_misses_n);
    free(c->branches_n);
    free(c->branch_mispredicts_n);
}

/* integer sqrt rounding matching Python's int(round(math.sqrt(x)))
 * for the small bank-distance arguments in play */
static int64_t rounded_sqrt(int64_t x) {
    int64_t r = 0;
    while ((r + 1) * (r + 1) <= x)
        r++;
    /* round half to even like Python's round(); sqrt(x) is exactly
     * r + 0.5 only when 4*x == (2r+1)^2 */
    {
        int64_t twice = 2 * r + 1;
        int64_t frac4 = 4 * x;
        if (frac4 > twice * twice)
            return r + 1;
        if (frac4 == twice * twice)
            return (r % 2 == 0) ? r : r + 1;
        return r;
    }
}

static int cell_init(Cell *c, const int64_t *params, int64_t S,
                     int64_t nb, int64_t n, int64_t prod_width,
                     const int8_t *kinds, const int8_t *is_mem,
                     const int8_t *mis, const int64_t *addr,
                     const int64_t *code, const int64_t *prod,
                     const int64_t *warm, int64_t warm_len) {
    int64_t s, i;
    memset(c, 0, sizeof(Cell));
    c->n = n;
    c->S = S;
    c->nb = nb;
    c->prod_width = prod_width;
    c->kinds = kinds;
    c->is_mem = is_mem;
    c->mis = mis;
    c->addr = addr;
    c->code = code;
    c->prod = prod;
    c->params = params;
    c->operand_hops = S == 1 ? 0 : (S <= 4 ? 1 : 2);
    c->steer_cap = params[P_WINDOW] / 4;
    if (c->steer_cap < 2)
        c->steer_cap = 2;
    c->fetch_budget_max = params[P_FETCH_WIDTH] * S;
    c->commit_budget_max = params[P_COMMIT_WIDTH] * S;
    c->max_cycles = 1000 * n + 100000;

    c->l2_delay = (int64_t *)malloc((size_t)nb * sizeof(int64_t));
    if (c->l2_delay == NULL)
        return -1;
    for (i = 0; i < nb; i++)
        c->l2_delay[i] = rounded_sqrt(i + S) * params[P_L2_HOP_DELAY]
            + params[P_L2_BASE_DELAY];

    if (cache_init(&c->l1d, S, params[P_L1D_SETS], params[P_L1D_ASSOC]))
        return -1;
    if (cache_init(&c->l1i, S, params[P_L1I_SETS], params[P_L1I_ASSOC]))
        return -1;
    if (cache_init(&c->l2, nb, params[P_L2_SETS], params[P_L2_ASSOC]))
        return -1;

    c->slice_of = (int32_t *)calloc((size_t)n, sizeof(int32_t));
    c->fetched_at = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    c->complete = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    c->committed = (uint8_t *)calloc((size_t)n, 1);
    c->issued = (uint8_t *)calloc((size_t)n, 1);
    c->queued = (uint8_t *)calloc((size_t)n, 1);
    c->waiting = (int32_t *)calloc((size_t)n, sizeof(int32_t));
    c->ready_time = (int64_t *)calloc((size_t)n, sizeof(int64_t));
    if (!c->slice_of || !c->fetched_at || !c->complete || !c->committed
        || !c->issued || !c->queued || !c->waiting || !c->ready_time)
        return -1;
    for (i = 0; i < n; i++) {
        c->fetched_at[i] = -1;
        c->complete[i] = -1;
    }
    if (wake_init(&c->wake_complete, n, n * prod_width + 1))
        return -1;
    if (wake_init(&c->wake_commit, n, n * prod_width + 1))
        return -1;

    c->ready = (Heap *)calloc((size_t)S, sizeof(Heap));
    c->future = (Heap *)calloc((size_t)S, sizeof(Heap));
    c->mshr = (Heap *)calloc((size_t)S, sizeof(Heap));
    c->stash = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    c->rob_occ = (int64_t *)calloc((size_t)S, sizeof(int64_t));
    c->win_occ = (int64_t *)calloc((size_t)S, sizeof(int64_t));
    c->ready_events = (int64_t *)calloc((size_t)S, sizeof(int64_t));
    c->committed_n = (int64_t *)calloc((size_t)S, sizeof(int64_t));
    c->l2_accesses_n = (int64_t *)calloc((size_t)S, sizeof(int64_t));
    c->l2_misses_n = (int64_t *)calloc((size_t)S, sizeof(int64_t));
    c->l1_misses_n = (int64_t *)calloc((size_t)S, sizeof(int64_t));
    c->branches_n = (int64_t *)calloc((size_t)S, sizeof(int64_t));
    c->branch_mispredicts_n = (int64_t *)calloc((size_t)S, sizeof(int64_t));
    if (!c->ready || !c->future || !c->mshr || !c->stash
        || !c->rob_occ || !c->win_occ
        || !c->ready_events || !c->committed_n || !c->l2_accesses_n
        || !c->l2_misses_n || !c->l1_misses_n || !c->branches_n
        || !c->branch_mispredicts_n)
        return -1;
    for (s = 0; s < S; s++) {
        if (heap_init(&c->ready[s], 64))
            return -1;
        if (heap_init(&c->future[s], 64))
            return -1;
        if (heap_init(&c->mshr[s], params[P_MAX_LOADS] + 2))
            return -1;
    }

    /* prewarm: install the code footprint into every L1I bank and the
     * shared L2, then zero the writeback tally -- exactly
     * MemorySystem.prewarm_code */
    for (s = 0; s < S; s++)
        for (i = 0; i < warm_len; i++)
            cache_access(&c->l1i, s, warm[i] >> 6, 0, NULL);
    for (i = 0; i < warm_len; i++) {
        int64_t block = warm[i] >> 6;
        cache_access(&c->l2, block % nb, block / nb, 0, &c->l2_wb);
    }
    c->l2_wb = 0;
    return 0;
}

/* resolve_ready: compute an op's operand-ready time and queue it */
static int resolve_ready(Cell *c, int64_t consumer) {
    int64_t ready_at = c->fetched_at[consumer];
    int64_t consumer_slice = c->slice_of[consumer];
    const int64_t *prods = c->prod + consumer * c->prod_width;
    int64_t k;
    for (k = 0; k < c->prod_width; k++) {
        int64_t producer = prods[k];
        int64_t delay, arrival;
        if (producer < 0)
            break;
        if (c->committed[producer])
            continue;
        delay = c->slice_of[producer] == consumer_slice
            ? 0 : c->operand_hops;
        arrival = c->complete[producer] + delay;
        if (delay >= 2)
            wake_append(&c->wake_commit, producer, consumer);
        if (arrival > ready_at)
            ready_at = arrival;
    }
    c->ready_time[consumer] = ready_at;
    if (ready_at <= c->cycle) {
        c->queued[consumer] = 1;
        return heap_push(&c->ready[consumer_slice], consumer);
    }
    return heap_push(&c->future[consumer_slice],
                     (ready_at << OP_SHIFT) | consumer);
}

/* Advance one processed cycle (plus the trailing idle-cycle skip).
 * Returns 1 when the cell has committed its whole trace, 0 while
 * active, -1 on runaway, -2 on allocation failure. */
static int cell_epoch(Cell *c) {
    const int64_t *params = c->params;
    int64_t S = c->S;
    int64_t n = c->n;
    int64_t cycle, s;
    int fetch_blocked_capacity = 0;
    int activity = 0;
    int64_t commit_budget;
    int64_t earliest, no_event;

    c->cycle += 1;
    cycle = c->cycle;
    if (cycle > c->max_cycles)
        return -1;

    for (s = 0; s < S; s++) {
        Heap *m = &c->mshr[s];
        while (m->len > 0 && m->data[0] <= cycle)
            heap_pop(m);
    }

    /* ---- fetch & rename ---- */
    if (cycle >= c->fetch_stalled_until) {
        int64_t budget = c->fetch_budget_max;
        while (budget > 0 && c->fetch_index < n) {
            int64_t op = c->fetch_index;
            int64_t code_address = c->code[op];
            const int64_t *prods = c->prod + op * c->prod_width;
            int64_t slice_id, k, pending;
            if (code_address >= 0) {
                int64_t target = op % S;
                int64_t block = code_address >> 6;
                int64_t set = block % c->l1i.sets;
                int64_t tag = block / c->l1i.sets;
                int64_t base = (target * c->l1i.sets + set) * c->l1i.assoc;
                int64_t count = c->l1i.cnt[target * c->l1i.sets + set];
                int64_t w;
                int resident = 0;
                for (w = 0; w < count; w++) {
                    if (c->l1i.tag[base + w] == tag) {
                        int64_t clk = ++c->l1i.clock[target];
                        c->l1i.last[base + w] = clk;
                        c->l1i_hits += 1;
                        resident = 1;
                        break;
                    }
                }
                if (!resident) {
                    int64_t cost;
                    int hit;
                    cache_access(&c->l1i, target, block, 0, NULL);
                    c->l1i_misses += 1;
                    hit = cache_access(&c->l2, block % c->nb,
                                       block / c->nb, 0, &c->l2_wb);
                    cost = params[P_L1_HIT_DELAY]
                        + c->l2_delay[block % c->nb];
                    if (!hit)
                        cost += params[P_MEM_DELAY];
                    c->fetch_stalled_until = cycle + cost;
                    break;
                }
            }
            slice_id = -1;
            for (k = 0; k < c->prod_width; k++) {
                int64_t producer = prods[k];
                if (producer < 0)
                    break;
                if (!c->committed[producer]) {
                    int64_t candidate = c->slice_of[producer];
                    if (c->rob_occ[candidate] < params[P_ROB]
                        && c->win_occ[candidate] < c->steer_cap)
                        slice_id = candidate;
                    break;
                }
            }
            if (slice_id < 0) {
                int64_t best_window = c->win_occ[0];
                int64_t best_rob = c->rob_occ[0];
                int64_t candidate;
                slice_id = 0;
                for (candidate = 1; candidate < S; candidate++) {
                    int64_t cand_window = c->win_occ[candidate];
                    int64_t cand_rob;
                    if (cand_window > best_window)
                        continue;
                    cand_rob = c->rob_occ[candidate];
                    if (cand_window < best_window || cand_rob < best_rob) {
                        slice_id = candidate;
                        best_window = cand_window;
                        best_rob = cand_rob;
                    }
                }
            }
            if (c->rob_occ[slice_id] >= params[P_ROB]
                || c->win_occ[slice_id] >= params[P_WINDOW]) {
                fetch_blocked_capacity = 1;
                break;
            }
            c->slice_of[op] = (int32_t)slice_id;
            c->fetched_at[op] = cycle;
            pending = 0;
            for (k = 0; k < c->prod_width; k++) {
                int64_t producer = prods[k];
                if (producer < 0)
                    break;
                if (!c->committed[producer] && c->complete[producer] < 0) {
                    pending += 1;
                    wake_append(&c->wake_complete, producer, op);
                }
            }
            c->waiting[op] = (int32_t)pending;
            c->rob_occ[slice_id] += 1;
            c->win_occ[slice_id] += 1;
            c->fetch_index += 1;
            budget -= 1;
            if (pending == 0)
                if (resolve_ready(c, op))
                    return -2;
            if (c->kinds[op] == KIND_BRANCH && c->mis[op]) {
                c->fetch_stalled_until = cycle + STALL_FOREVER;
                break;
            }
        }
    }

    /* ---- issue & execute ---- */
    for (s = 0; s < S; s++) {
        Heap *matured = &c->future[s];
        Heap *heap = &c->ready[s];
        Heap *slice_mshr = &c->mshr[s];
        int alu_free = 1, lsu_free = 1;
        int blocked_resource = 0, blocked_mshr = 0;
        int64_t *stash = c->stash;
        int64_t stash_len = 0;
        while (matured->len > 0
               && (matured->data[0] >> OP_SHIFT) <= cycle) {
            int64_t op = heap_pop(matured) & OP_MASK;
            if (c->issued[op] || c->queued[op])
                continue;
            c->queued[op] = 1;
            if (heap_push(heap, op))
                return -2;
        }
        if (heap->len == 0) {
            c->ready_events[s] = 0;
            continue;
        }
        while (heap->len > 0) {
            int64_t op;
            if (!alu_free && !lsu_free)
                break;
            op = heap_pop(heap);
            if (c->is_mem[op]) {
                int64_t kind = c->kinds[op];
                int64_t address, block, done;
                int is_write, l1_hit;
                if (!lsu_free) {
                    stash[stash_len++] = op;
                    blocked_resource = 1;
                    continue;
                }
                if (kind == KIND_LOAD
                    && slice_mshr->len >= params[P_MAX_LOADS]) {
                    stash[stash_len++] = op;
                    blocked_mshr = 1;
                    continue;
                }
                address = c->addr[op];
                is_write = kind == KIND_STORE;
                block = address >> 6;
                l1_hit = cache_access(&c->l1d, s, block, is_write, NULL);
                if (l1_hit) {
                    c->l1_hits += 1;
                    done = cycle + params[P_L1_HIT_DELAY];
                } else {
                    int64_t bank = block % c->nb;
                    int l2_hit = cache_access(&c->l2, bank, block / c->nb,
                                              is_write, &c->l2_wb);
                    if (l2_hit) {
                        c->l2_hits += 1;
                        done = cycle + params[P_L1_HIT_DELAY]
                            + c->l2_delay[bank];
                    } else {
                        c->mem_acc += 1;
                        done = cycle + params[P_L1_HIT_DELAY]
                            + c->l2_delay[bank] + params[P_MEM_DELAY];
                        c->l2_misses_n[s] += 1;
                    }
                    c->l1_misses_n[s] += 1;
                }
                c->complete[op] = done;
                if (kind == KIND_LOAD)
                    if (heap_push(slice_mshr, done))
                        return -2;
                c->l2_accesses_n[s] += 1;
                lsu_free = 0;
            } else {
                if (!alu_free) {
                    stash[stash_len++] = op;
                    blocked_resource = 1;
                    continue;
                }
                c->complete[op] = cycle + 1;
                alu_free = 0;
                if (c->kinds[op] == KIND_BRANCH) {
                    c->branches_n[s] += 1;
                    if (c->mis[op]) {
                        c->mispredicts += 1;
                        c->branch_mispredicts_n[s] += 1;
                        c->fetch_stalled_until =
                            cycle + 1 + params[P_FRONT_END_DEPTH];
                    }
                }
            }
            c->issued[op] = 1;
            c->queued[op] = 0;
            activity = 1;
            c->win_occ[s] -= 1;
            {
                int32_t slot = c->wake_complete.head[op];
                c->wake_complete.head[op] = -1;
                while (slot >= 0) {
                    int64_t consumer = c->wake_complete.consumer[slot];
                    slot = c->wake_complete.next[slot];
                    if (--c->waiting[consumer] == 0)
                        if (resolve_ready(c, consumer))
                            return -2;
                }
            }
        }
        {
            int64_t i;
            for (i = 0; i < stash_len; i++)
                if (heap_push(heap, stash[i]))
                    return -2;
        }
        if (heap->len > 0) {
            if (blocked_mshr && !blocked_resource
                && stash_len == heap->len)
                c->ready_events[s] = slice_mshr->data[0];
            else
                c->ready_events[s] = cycle + 1;
        } else {
            c->ready_events[s] = 0;
        }
    }

    /* ---- commit ---- */
    commit_budget = c->commit_budget_max;
    while (commit_budget > 0 && c->commit_index < n) {
        int64_t op = c->commit_index;
        int64_t done, slice_id;
        int32_t slot;
        if (c->fetched_at[op] < 0)
            break;
        done = c->complete[op];
        if (done < 0 || done > cycle)
            break;
        c->committed[op] = 1;
        slice_id = c->slice_of[op];
        c->rob_occ[slice_id] -= 1;
        c->committed_n[slice_id] += 1;
        c->commit_index += 1;
        commit_budget -= 1;
        activity = 1;
        slot = c->wake_commit.head[op];
        c->wake_commit.head[op] = -1;
        while (slot >= 0) {
            int64_t consumer = c->wake_commit.consumer[slot];
            int64_t previous, consumer_slice, relaxed, k;
            slot = c->wake_commit.next[slot];
            if (c->issued[consumer] || c->queued[consumer]
                || c->waiting[consumer])
                continue;
            previous = c->ready_time[consumer];
            if (previous <= cycle + 1)
                continue;
            consumer_slice = c->slice_of[consumer];
            relaxed = c->fetched_at[consumer];
            if (cycle + 1 > relaxed)
                relaxed = cycle + 1;
            for (k = 0; k < c->prod_width; k++) {
                int64_t producer = c->prod[consumer * c->prod_width + k];
                int64_t delay, arrival;
                if (producer < 0)
                    break;
                if (c->committed[producer])
                    continue;
                delay = c->slice_of[producer] == consumer_slice
                    ? 0 : c->operand_hops;
                arrival = c->complete[producer] + delay;
                if (arrival > relaxed)
                    relaxed = arrival;
            }
            if (relaxed < previous) {
                c->ready_time[consumer] = relaxed;
                if (heap_push(&c->future[consumer_slice],
                              (relaxed << OP_SHIFT) | consumer))
                    return -2;
            }
        }
    }

    if (c->commit_index >= n)
        return 1;

    /* ---- next event & idle-cycle skip ---- */
    no_event = c->max_cycles + 2;
    earliest = no_event;
    if (c->fetch_index < n) {
        if (c->fetch_stalled_until > cycle) {
            if (c->fetch_stalled_until < earliest)
                earliest = c->fetch_stalled_until;
        } else if (!fetch_blocked_capacity || activity) {
            earliest = cycle + 1;
        }
    }
    for (s = 0; s < S; s++) {
        int64_t event = c->ready_events[s];
        if (event && event < earliest)
            earliest = event;
        if (c->future[s].len > 0) {
            int64_t at = c->future[s].data[0] >> OP_SHIFT;
            if (at < earliest)
                earliest = at;
        }
    }
    if (c->fetched_at[c->commit_index] >= 0) {
        int64_t done = c->complete[c->commit_index];
        if (done >= 0) {
            int64_t event = done > cycle ? done : cycle + 1;
            if (event < earliest)
                earliest = event;
        }
    }
    if (earliest >= no_event || earliest <= cycle + 1)
        return 0;
    {
        int64_t skipped = earliest - 1 - cycle;
        if (c->fetch_index < n && c->fetch_stalled_until <= cycle
            && fetch_blocked_capacity) {
            int64_t code_address = c->code[c->fetch_index];
            if (code_address >= 0) {
                int64_t target = c->fetch_index % S;
                int64_t block = code_address >> 6;
                int64_t set = block % c->l1i.sets;
                int64_t tag = block / c->l1i.sets;
                int64_t base = (target * c->l1i.sets + set) * c->l1i.assoc;
                int64_t count = c->l1i.cnt[target * c->l1i.sets + set];
                int64_t w;
                for (w = 0; w < count; w++) {
                    if (c->l1i.tag[base + w] == tag) {
                        int64_t clk = c->l1i.clock[target] + skipped;
                        c->l1i.clock[target] = clk;
                        c->l1i.last[base + w] = clk;
                        c->l1i_hits += skipped;
                        break;
                    }
                }
            }
        }
        c->cycle = earliest - 1;
    }
    return 0;
}

/* ---- batch driver --------------------------------------------------- */

int64_t repro_run_batch(
    int64_t n_cells,
    int64_t max_slices,
    int64_t prod_width,
    const int64_t *params,
    const int64_t *cell_conf,
    const int8_t *kinds,
    const int8_t *is_mem,
    const int8_t *mispredicted,
    const int64_t *addresses,
    const int64_t *code_addresses,
    const int64_t *producers,
    const int64_t *warm,
    int64_t *out_cell,
    int64_t *out_slice)
{
    Cell *cells;
    int64_t *active;
    int64_t i, remaining;
    int failed = 0;

    cells = (Cell *)calloc((size_t)n_cells, sizeof(Cell));
    active = (int64_t *)malloc((size_t)n_cells * sizeof(int64_t));
    if (cells == NULL || active == NULL) {
        free(cells);
        free(active);
        return -2;
    }
    for (i = 0; i < n_cells; i++) {
        const int64_t *conf = cell_conf + i * C_COUNT;
        int64_t off = conf[C_TRACE_OFF];
        if (cell_init(&cells[i], params, conf[C_SLICES], conf[C_L2_BANKS],
                      conf[C_TRACE_LEN], prod_width, kinds + off,
                      is_mem + off, mispredicted + off, addresses + off,
                      code_addresses + off, producers + off * prod_width,
                      warm + conf[C_WARM_OFF], conf[C_WARM_LEN])) {
            failed = 1;
            break;
        }
        active[i] = i;
    }
    if (failed) {
        for (i = 0; i < n_cells; i++)
            cell_free(&cells[i]);
        free(cells);
        free(active);
        return -2;
    }

    /* lockstep: every pass steps each still-active cell through one
     * event epoch, then compacts the active list in place */
    remaining = n_cells;
    while (remaining > 0 && !failed) {
        int64_t kept = 0;
        for (i = 0; i < remaining; i++) {
            int64_t cell_id = active[i];
            int status = cell_epoch(&cells[cell_id]);
            if (status == 0) {
                active[kept++] = cell_id;
            } else if (status == -2) {
                failed = 1;
                break;
            } else {
                out_cell[cell_id * O_COUNT + O_STATUS] =
                    status == 1 ? 0 : 1;
            }
        }
        remaining = kept;
    }

    if (!failed) {
        for (i = 0; i < n_cells; i++) {
            Cell *c = &cells[i];
            int64_t *row = out_cell + i * O_COUNT;
            int64_t s;
            row[O_CYCLES] = c->cycle;
            row[O_L1_HITS] = c->l1_hits;
            row[O_L2_HITS] = c->l2_hits;
            row[O_L2_MISSES] = c->mem_acc;
            row[O_MISPREDICTS] = c->mispredicts;
            row[O_L1I_HITS] = c->l1i_hits;
            row[O_L1I_MISSES] = c->l1i_misses;
            row[O_L2_WRITEBACKS] = c->l2_wb;
            for (s = 0; s < c->S; s++) {
                int64_t *srow = out_slice
                    + (i * max_slices + s) * S_COUNT;
                srow[S_COMMITTED] = c->committed_n[s];
                srow[S_L2_ACCESSES] = c->l2_accesses_n[s];
                srow[S_L2_MISSES] = c->l2_misses_n[s];
                srow[S_L1_MISSES] = c->l1_misses_n[s];
                srow[S_BRANCHES] = c->branches_n[s];
                srow[S_BRANCH_MISPREDICTS] = c->branch_mispredicts_n[s];
            }
        }
    }
    for (i = 0; i < n_cells; i++)
        cell_free(&cells[i]);
    free(cells);
    free(active);
    return failed ? -2 : 0;
}

/* ---- trace decoder -------------------------------------------------- */

/* fparams layout; the working-set cumulative shares follow */
enum {
    F_P_GEO = 0,
    F_MEM_FRACTION,
    F_BRANCH_CUT,
    F_L1_MISS_RATE,
    F_MISPREDICT_RATE,
    F_HARD_FRACTION,
    F_COUNT
};

/* iparams layout; the per-region block counts follow */
enum {
    I_REGISTERS = 0,
    I_CODE_BLOCKS,
    I_REGIONS,
    I_COUNT
};

/* generator state scalars */
enum {
    G_PC = 0,
    G_HOT_LEN,
    G_FIRST_SEEN
};

#define HOT_SET_BLOCKS 96
#define BLOCK_BYTES 64
#define CODE_BASE (2LL << 40)
#define STREAM_BASE (1LL << 34)
#define STREAMING_BLOCKS ((256LL << 20) / BLOCK_BYTES)
#define BRANCH_HARD 1
#define BRANCH_EASY 2

/* Raw MT19937 output words, read exactly as CPython's random.Random
 * consumes them.  A read past the end sets overrun and yields 0, which
 * ends every rejection and geometric loop, so the decoder unwinds
 * without per-draw error paths. */
typedef struct {
    const uint64_t *words;
    int64_t n;
    int64_t cur;
    int overrun;
} WordStream;

/* random(): ((a >> 5) * 2^26 + (b >> 6)) * 2^-53, exact in doubles */
static double draw_random(WordStream *s) {
    uint64_t a, b;
    if (s->cur + 2 > s->n) {
        s->overrun = 1;
        return 0.0;
    }
    a = s->words[s->cur] >> 5;
    b = s->words[s->cur + 1] >> 6;
    s->cur += 2;
    return (double)((a << 26) | b) * (1.0 / 9007199254740992.0);
}

/* _randbelow(n), 0 < n < 2^32: the top bit_length(n) bits of one
 * word, rejection-sampled until < n */
static int64_t draw_below(WordStream *s, int64_t n) {
    int bits = 0;
    uint64_t r;
    while ((n >> bits) != 0)
        bits++;
    do {
        if (s->cur >= s->n) {
            s->overrun = 1;
            return 0;
        }
        r = s->words[s->cur++] >> (32 - bits);
    } while (r >= (uint64_t)n);
    return (int64_t)r;
}

/* Decode `count` micro-ops from `words`, draw for draw as
 * repro.sim.trace.TraceGenerator._generate_reference would.  Columns
 * use -1 for None; `sources` is (count, 2).  The generator state is
 * updated in place: state[] scalars, the hot set (oldest block first,
 * on entry and on return), sweep positions, and the per-code-block
 * branch tables (bias 0 = not yet seen), with each newly seen block
 * appended to first_seen.  Returns the words consumed, or -1 when
 * `words` ran out (the caller retries with a larger buffer; partial
 * state is then garbage). */
int64_t repro_decode_trace(
    int64_t count,
    int64_t n_words,
    const uint64_t *words,
    const double *fparams,
    const int64_t *iparams,
    int64_t *state,
    int64_t *hot_set,
    int64_t *sweep,
    int8_t *bias,
    int64_t *target,
    int64_t *first_seen,
    int8_t *kinds,
    int64_t *sources,
    int64_t *dests,
    int64_t *addresses,
    int8_t *mispredicted,
    int64_t *code_addresses,
    int8_t *taken,
    int64_t *branch_targets)
{
    WordStream s = {words, n_words, 0, 0};
    const double p_geo = fparams[F_P_GEO];
    const double mem_fraction = fparams[F_MEM_FRACTION];
    const double branch_cut = fparams[F_BRANCH_CUT];
    const double l1_miss_rate = fparams[F_L1_MISS_RATE];
    const double mispredict_rate = fparams[F_MISPREDICT_RATE];
    const double hard_fraction = fparams[F_HARD_FRACTION];
    const double *cumulative = fparams + F_COUNT;
    const int64_t registers = iparams[I_REGISTERS];
    const int64_t code_blocks = iparams[I_CODE_BLOCKS];
    const int64_t regions = iparams[I_REGIONS];
    const int64_t *region_blocks = iparams + I_COUNT;
    int64_t pc = state[G_PC];
    int64_t hot_len = state[G_HOT_LEN];
    int64_t n_seen = state[G_FIRST_SEEN];
    int64_t hot[HOT_SET_BLOCKS];
    int64_t hot_start = 0;
    int64_t op, i;

    memcpy(hot, hot_set, (size_t)hot_len * sizeof(int64_t));
    for (op = 0; op < count && !s.overrun; op++) {
        int64_t distance = 1, producer, src0, src1 = -1, dest, code;
        int64_t address = -1, block;
        double value, draw;
        int8_t kind;

        value = draw_random(&s);
        while (value > p_geo && distance < 64) {
            distance++;
            value = draw_random(&s);
        }
        producer = op - distance;
        src0 = producer >= 0 ? dests[producer] : -1;
        if (src0 < 0)
            src0 = draw_below(&s, registers);
        if (draw_random(&s) < 0.6) {
            /* randint(16, 64) == 16 + _randbelow(49) */
            int64_t stale = op - 16 - draw_below(&s, 49);
            src1 = stale >= 0 ? dests[stale] : -1;
            if (src1 < 0)
                src1 = draw_below(&s, registers);
        }
        dest = draw_below(&s, registers);
        draw = draw_random(&s);
        mispredicted[op] = 0;
        taken[op] = -1;
        branch_targets[op] = -1;
        if (draw >= branch_cut) {
            kind = 0;
            code = CODE_BASE + pc * BLOCK_BYTES;
            if (draw_random(&s) < 1.0 / 16.0)
                pc = (pc + 1) % code_blocks;
        } else if (draw < mem_fraction) {
            code = CODE_BASE + pc * BLOCK_BYTES;
            if (draw_random(&s) < 1.0 / 16.0)
                pc = (pc + 1) % code_blocks;
            kind = draw_random(&s) < 0.7 ? KIND_LOAD : KIND_STORE;
            /* _address: re-touch the hot set, or sweep a working-set
             * region, or stream */
            if (hot_len > 0 && draw_random(&s) > l1_miss_rate)
                address = hot[(hot_start + draw_below(&s, hot_len))
                              % HOT_SET_BLOCKS];
            if (address < 0) {
                int64_t base = 0, r;
                value = draw_random(&s);
                for (r = 0; r < regions; r++) {
                    if (value < cumulative[r]) {
                        address = base + sweep[r] * BLOCK_BYTES;
                        sweep[r] = (sweep[r] + 1) % region_blocks[r];
                        break;
                    }
                    base += 1LL << 30;
                }
                if (r == regions)
                    address = STREAM_BASE
                        + draw_below(&s, STREAMING_BLOCKS) * BLOCK_BYTES;
                if (hot_len < HOT_SET_BLOCKS) {
                    hot[(hot_start + hot_len++) % HOT_SET_BLOCKS] = address;
                } else {
                    hot[hot_start] = address;
                    hot_start = (hot_start + 1) % HOT_SET_BLOCKS;
                }
            }
            if (kind == KIND_LOAD)
                src1 = -1;
            else
                dest = -1;
        } else {
            kind = KIND_BRANCH;
            /* a taken branch jumps the PC before the address is formed */
            if (draw_random(&s) < 0.6)
                pc = draw_below(&s, code_blocks);
            block = pc;
            code = CODE_BASE + pc * BLOCK_BYTES;
            if (draw_random(&s) < 1.0 / 16.0)
                pc = (pc + 1) % code_blocks;
            if (bias[block] == 0) {
                bias[block] = draw_random(&s) < hard_fraction
                    ? BRANCH_HARD : BRANCH_EASY;
                target[block] = CODE_BASE
                    + draw_below(&s, code_blocks) * BLOCK_BYTES;
                first_seen[n_seen++] = block;
            }
            taken[op] = draw_random(&s)
                < (bias[block] == BRANCH_HARD ? 0.5 : 0.97);
            mispredicted[op] = draw_random(&s) < mispredict_rate;
            branch_targets[op] = target[block];
            src1 = -1;
            dest = -1;
        }
        kinds[op] = kind;
        sources[2 * op] = src0;
        sources[2 * op + 1] = src1;
        dests[op] = dest;
        addresses[op] = address;
        code_addresses[op] = code;
    }
    if (s.overrun)
        return -1;
    for (i = 0; i < hot_len; i++)
        hot_set[i] = hot[(hot_start + i) % HOT_SET_BLOCKS];
    state[G_PC] = pc;
    state[G_HOT_LEN] = hot_len;
    state[G_FIRST_SEEN] = n_seen;
    return s.cur;
}

/* Lower convex hull of n points, sorted and distinct, given as x, y
 * pairs in xy: Andrew's monotone chain exactly as
 * repro.runtime.optimizer._lower_hull_presorted runs it -- the same
 * cross products, in the same order, popping on cross <= 0 (a NaN
 * cross keeps the point, as the Python comparison does).  Writes the
 * hull's point indices to out (room for n) and returns their count. */
int64_t repro_lower_hull(int64_t n, const double *xy, int64_t *out) {
    int64_t i, size = 0;
    for (i = 0; i < n; i++) {
        double px = xy[2 * i], py = xy[2 * i + 1];
        while (size >= 2) {
            const double *a = xy + 2 * out[size - 2];
            const double *b = xy + 2 * out[size - 1];
            double cross = (b[0] - a[0]) * (py - a[1])
                - (b[1] - a[1]) * (px - a[0]);
            if (cross <= 0)
                size--;
            else
                break;
        }
        out[size++] = i;
    }
    return size;
}
