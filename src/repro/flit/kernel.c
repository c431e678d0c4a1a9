/* Native kernel for the batched flit engine: one call is one whole run.
 *
 * Compiled on demand by repro.native, into one shared library with
 * flow/loads.c, loaded through ctypes and driven by repro.flit.native;
 * when it cannot be built the batched engine runs the reference engine
 * (repro.flit.engine.FlitSimulator) instead.  The differential suite
 * tests/flit/test_batched_parity.py pins it to the reference bit for
 * bit: same results, same counters, same telemetry.
 *
 * Phase A replays the arrival process.  Every random draw of the
 * reference happens at an inject event, and the order of inject events
 * does not depend on the network (each host's next arrival depends only
 * on its own clock), so a heap over hosts keyed by (cycle, push id)
 * visits them in the reference's order.  The random numbers continue
 * the caller's random.Random state with CPython's own formulas:
 *   - genrand_uint32 is MT19937;
 *   - random() is res53 (two words);
 *   - randrange(n) is getrandbits(bit_length(n)) with rejection, so
 *     randrange(1) still consumes words;
 *   - expovariate(rate) is -log(1.0 - random()) / rate.
 * The result is a plan: the injection events in push order, the
 * messages, and each packet's route as a range of a per-run array of
 * hop links.  The route table holds path ids, not links.  A pair key
 * names a block and a row: in a compiled table, its NCA level k and its
 * row in level_pairs.  The row lists the pair's path ids and, for a
 * fault-aware scheme, how many of them are live.  Each block reads its
 * paths from a CSR path table, so hop c of path t from s to d is
 *   links[path_ptr[t] + c] + (c < k ? up[s][c] : down[d][c - k]),
 * the sum flow/loads.c's scatter_loads forms.  A block without a pair
 * part (a hand-made table) holds whole link ids.  Traces arrive sorted
 * stably by cycle and only choose paths.
 *
 * Phase B is pure integer event processing that mirrors the reference
 * event for event, for both switch models, in the same (time, seq)
 * order.
 *
 * Data layout notes:
 *  - Queues are intrusive singly-linked lists over dense id spaces, so
 *    enqueue/dequeue are index writes with no allocation.  A packet sits
 *    in at most one queue at a time (an output's request queue in the
 *    output-queued model, an input buffer in the input-FIFO model), and
 *    an input buffer sits in at most one request queue (head_pending
 *    guards it), so one next-link array per id space suffices.
 *  - A packet's current hop is an offset into the plan's hop links;
 *    its route ends at `pkt_end`.
 *  - Calendar buckets are intrusive lists over an event-node arena whose
 *    capacity is computed from the plan (arena_capacity below); every
 *    push is checked against it, and drained nodes are recycled
 *    through a free list.  The bound: a push either creates an event
 *    or re-pushes the head-ready event being processed (a duplicate
 *    head-ready for a buffer served meanwhile), which reuses that
 *    event's node once it is drained, so at most one node more than the
 *    number of creations is ever held.  Creations are one per plan
 *    event, plus per hop of a packet's route at most
 *      output-queued: 2 (port-free/credit, then next header or delivery);
 *      input-FIFO:    4 (the same two, a head-ready when the buffer still
 *                        holds packets after the transmit, and a
 *                        head-ready when the packet enters a buffer whose
 *                        read port is busy).
 *  - Buckets extend `slack` cycles past the horizon so pushes are never
 *    range-checked; anything parked there is a reference "pushed past
 *    the horizon, never popped" event (it only pins sim_cycles).
 *  - Telemetry rows are flushed at the start of a non-empty bucket: the
 *    reference checks before every event, but the time is constant
 *    within a bucket, so only its first event can fire a flush.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef int64_t i64;

enum {
    EV_HEADER = 0,     /* payload: packet id */
    EV_PORTCREDIT = 1, /* payload: channel | (holding+1) << cbits */
    EV_DELIVER = 2,    /* payload: packet id */
    EV_INJECT = 3,     /* payload: plan event id */
    EV_HEAD_READY = 4  /* payload: buffer id (input-FIFO only) */
};

enum {
    P_N_PROCS = 0,
    P_N_KEYS = 1,
    P_N_CHANNELS = 2,
    P_N_VCS = 3,
    P_PPM = 4,
    P_PF = 5,
    P_WIRE_PF = 6,
    P_WIRE_RD = 7,
    P_SLACK = 8,
    P_CBITS = 9,
    P_WARMUP = 10,
    P_WINDOW_END = 11,
    P_HORIZON = 12,
    P_INPUT_FIFO = 13,
    P_MESSAGE_FLITS = 14,
    P_OBS_INTERVAL = 15, /* 0: telemetry off */
    P_SELECTION = 16,
    P_MODEL = 17,
    P_MODEL_LEN = 18, /* permutation or trace entries */
    P_COUNT = 19
};

/* path selection and destination models */
enum { SEL_PER_PACKET = 0, SEL_PER_MESSAGE = 1, SEL_ROUND_ROBIN = 2 };
enum { MODEL_UNIFORM = 0, MODEL_PERMUTATION = 1, MODEL_TRACE = 2 };

enum {
    O_MESSAGES_COMPLETED = 0,
    O_FLITS_DELIVERED = 1,
    O_CREDIT_STALLS = 2,
    O_EVENTS = 3,
    O_LAST_T = 4,
    O_OVERFLOW = 5,
    O_N_DELAYS = 6,
    O_N_ROWS = 7,
    O_MESSAGES_MEASURED = 8,
    O_CAPACITY = 9, /* event-arena nodes */
    O_KEY = 10,     /* the pair key without a route (RC_NO_ROUTE) */
    O_COUNT = 11
};

enum { RC_OK = 0, RC_NO_MEMORY = 1, RC_ARENA_FULL = 2, RC_NO_ROUTE = 3 };

/* Telemetry row layout: t, injected, delivered, credit_stalls, occupancy. */
#define ROW 5

/* ------------------------------------------------------------------ */
/* random.Random, continued from its getstate() words                  */

#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t mt[MT_N];
    int index;
} Rng;

static uint32_t genrand_uint32(Rng *r)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    int kk;

    if (r->index >= MT_N) {
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (r->mt[kk] & 0x80000000U) | (r->mt[kk + 1] & 0x7fffffffU);
            r->mt[kk] = r->mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (r->mt[kk] & 0x80000000U) | (r->mt[kk + 1] & 0x7fffffffU);
            r->mt[kk] = r->mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (r->mt[MT_N - 1] & 0x80000000U) | (r->mt[0] & 0x7fffffffU);
        r->mt[MT_N - 1] = r->mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        r->index = 0;
    }
    y = r->mt[r->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random() */
static double rand_random(Rng *r)
{
    uint32_t a = genrand_uint32(r) >> 5, b = genrand_uint32(r) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* randrange(n) for 1 <= n < 2**32 (hosts and paths per pair both are):
 * getrandbits(n.bit_length()) until the draw is below n. */
static i64 rand_below(Rng *r, i64 n)
{
    int k = 0;
    uint32_t v;
    while ((n >> k) != 0)
        k++;
    do
        v = genrand_uint32(r) >> (32 - k);
    while (v >= (uint64_t)n);
    return v;
}

/* The cycle of an arrival clock, int(clock) + 1; clocks too large for
 * an i64 are past any horizon, so they are capped there. */
static i64 arrival_cycle(double clock)
{
    return clock < 4e18 ? (i64)clock + 1 : (i64)4e18;
}

/* ------------------------------------------------------------------ */
/* Phase A: the injection plan                                         */

typedef struct {
    i64 *at;
    i64 n;
    i64 cap;
} Vec;

static int put(Vec *v, i64 value)
{
    if (v->n == v->cap) {
        i64 cap = v->cap ? 2 * v->cap : 1024;
        i64 *at = realloc(v->at, cap * sizeof(i64));
        if (!at)
            return 0;
        v->at = at;
        v->cap = cap;
    }
    v->at[v->n++] = value;
    return 1;
}

typedef struct {
    i64 cycle;
    i64 id; /* push id: the plan event id */
    i64 host;
} Arrival;

/* One block of the route table, as repro.flit.native's _Block. */
typedef struct {
    i64 p;               /* path ids per row */
    i64 k;               /* pair-part links each way (0: none) */
    const i64 *idx;      /* (rows, p) path ids */
    const i64 *live;     /* live ids per row, a prefix; NULL: all p */
    const i64 *path_ptr; /* path t owns links[path_ptr[t]:path_ptr[t+1]] */
    const i64 *links;
    const i64 *up;       /* (n_procs, k) by source, or NULL */
    const i64 *down;     /* (n_procs, k) by destination, or NULL */
} Block;

typedef struct {
    /* inputs */
    const int8_t *level; /* each pair key's block; 0: no route */
    const i64 *row;      /* each pair key's row in its block */
    const Block *blocks;
    i64 n_procs;
    i64 n_keys;
    i64 ppm;
    i64 warmup;
    i64 window_end;
    i64 horizon;
    int selection;
    int model;
    const i64 *data; /* permutation or trace columns */
    i64 n_data;      /* permutation or trace entries */
    double rate;
    i64 *rr; /* round-robin start per pair key */
    Rng rng;
    /* injection events, in push order */
    Vec ev_cycle;
    Vec ev_msg;   /* message id, or -1 for a silent poll */
    Vec ev_child; /* the host's next event id, or -1 */
    i64 n_initial;
    /* messages */
    Vec msg_src;
    Vec msg_created;
    Vec msg_measured;
    i64 n_measured;
    /* packets: offsets in `hop` of the first hop and past the last */
    Vec pkt_link;
    Vec pkt_end;
    Vec hop; /* every packet's hop links, in packet order */
    int overflow; /* an injection lands past the horizon */
    i64 bad_key;
} Plan;

static void plan_free(Plan *pl)
{
    free(pl->rr);
    free(pl->ev_cycle.at);
    free(pl->ev_msg.at);
    free(pl->ev_child.at);
    free(pl->msg_src.at);
    free(pl->msg_created.at);
    free(pl->msg_measured.at);
    free(pl->pkt_link.at);
    free(pl->pkt_end.at);
    free(pl->hop.at);
}

static int put_event(Plan *pl, i64 cycle, i64 msg)
{
    return put(&pl->ev_cycle, cycle) && put(&pl->ev_msg, msg) &&
           put(&pl->ev_child, -1);
}

/* One packet's route: the links of block `b`'s path `t` from `src` to
 * `dst`, appended to the plan's hop links. */
static int put_route(Plan *pl, const Block *b, i64 t, i64 src, i64 dst)
{
    const i64 *path = b->links + b->path_ptr[t];
    const i64 n = b->path_ptr[t + 1] - b->path_ptr[t];
    i64 c, link;

    if (!put(&pl->pkt_link, pl->hop.n))
        return 0;
    for (c = 0; c < n; c++) {
        link = path[c];
        if (b->up)
            link += c < b->k ? b->up[src * b->k + c]
                             : b->down[dst * b->k + c - b->k];
        if (!put(&pl->hop, link))
            return 0;
    }
    return put(&pl->pkt_end, pl->hop.n);
}

/* A message from `src` to `dst` created at `cyc`, and its packets'
 * paths, drawn as the reference draws them. */
static long emit(Plan *pl, i64 src, i64 dst, i64 cyc)
{
    const i64 key = src * pl->n_procs + dst;
    const int measured = pl->warmup <= cyc && cyc < pl->window_end;
    const Block *b;
    const i64 *ids;
    i64 r, n_paths, base = 0, path = 0, j;

    if (key < 0 || key >= pl->n_keys || pl->level[key] == 0) {
        pl->bad_key = key; /* as the reference's table lookup */
        return RC_NO_ROUTE;
    }
    if (!put(&pl->msg_src, src) || !put(&pl->msg_created, cyc) ||
        !put(&pl->msg_measured, measured))
        return RC_NO_MEMORY;
    pl->n_measured += measured;
    b = &pl->blocks[pl->level[key]];
    r = pl->row[key];
    ids = b->idx + r * b->p;
    n_paths = b->live ? b->live[r] : b->p;
    if (pl->selection == SEL_ROUND_ROBIN) {
        base = pl->rr[key];
        pl->rr[key] = (base + pl->ppm) % n_paths;
    } else if (pl->selection == SEL_PER_MESSAGE) {
        path = ids[rand_below(&pl->rng, n_paths)];
    }
    for (j = 0; j < pl->ppm; j++) {
        if (pl->selection == SEL_PER_PACKET)
            path = ids[rand_below(&pl->rng, n_paths)];
        else if (pl->selection == SEL_ROUND_ROBIN)
            path = ids[(base + j) % n_paths];
        if (!put_route(pl, b, path, src, dst))
            return RC_NO_MEMORY;
    }
    return RC_OK;
}

/* The workload's pick_destination: -1 is a silent poll. */
static i64 pick_destination(Plan *pl, i64 src)
{
    i64 d;
    if (pl->model == MODEL_PERMUTATION) {
        d = pl->data[src];
        return d == src ? -1 : d;
    }
    d = rand_below(&pl->rng, pl->n_procs - 1);
    return d >= src ? d + 1 : d;
}

/* The reference heap's (time, seq) order. */
static int earlier(const Arrival *a, const Arrival *b)
{
    return a->cycle < b->cycle || (a->cycle == b->cycle && a->id < b->id);
}

static void sift_down(Arrival *heap, i64 n, i64 i)
{
    Arrival top = heap[i];
    i64 c;
    for (;;) {
        c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && earlier(&heap[c + 1], &heap[c]))
            c++;
        if (earlier(&top, &heap[c]))
            break;
        heap[i] = heap[c];
        i = c;
    }
    heap[i] = top;
}

/* Poisson arrivals at every host, walked in the reference's order. */
static long plan_arrivals(Plan *pl)
{
    const i64 n = pl->n_procs;
    double *clock = malloc((n ? n : 1) * sizeof(double));
    Arrival *heap = malloc((n ? n : 1) * sizeof(Arrival));
    Arrival top;
    i64 host, e, dst, nxt, size = n;
    long rc = RC_NO_MEMORY;

    if (!clock || !heap)
        goto done;
    for (host = 0; host < n; host++) {
        clock[host] = -log(1.0 - rand_random(&pl->rng)) / pl->rate;
        heap[host].cycle = arrival_cycle(clock[host]);
        heap[host].id = host;
        heap[host].host = host;
        if (!put_event(pl, heap[host].cycle, -1))
            goto done;
    }
    pl->n_initial = n;
    for (e = n / 2 - 1; e >= 0; e--)
        sift_down(heap, size, e);
    rc = RC_OK;
    while (size > 0) {
        top = heap[0];
        if (top.cycle > pl->horizon) {
            pl->overflow = 1;
            break;
        }
        host = top.host;
        dst = pick_destination(pl, host);
        if (dst >= 0) {
            pl->ev_msg.at[top.id] = pl->msg_src.n;
            rc = emit(pl, host, dst, top.cycle);
            if (rc != RC_OK)
                goto done;
        }
        clock[host] += -log(1.0 - rand_random(&pl->rng)) / pl->rate;
        nxt = arrival_cycle(clock[host]);
        if (nxt < pl->window_end) {
            heap[0].cycle = nxt;
            heap[0].id = pl->ev_cycle.n;
            pl->ev_child.at[top.id] = heap[0].id;
            if (!put_event(pl, nxt, -1)) {
                rc = RC_NO_MEMORY;
                goto done;
            }
        } else {
            heap[0] = heap[--size];
        }
        sift_down(heap, size, 0);
    }
done:
    free(clock);
    free(heap);
    return rc;
}

/* Trace entries (cycles, then sources, then destinations), sorted
 * stably by cycle: the reference's (cycle, push id) pop order. */
static long plan_trace(Plan *pl)
{
    const i64 *cycle = pl->data, *src = cycle + pl->n_data;
    const i64 *dst = src + pl->n_data;
    i64 i;
    long rc;

    for (i = 0; i < pl->n_data; i++) {
        if (cycle[i] > pl->horizon) {
            pl->overflow = 1;
            break;
        }
        if (!put_event(pl, cycle[i], dst[i] >= 0 ? pl->msg_src.n : -1))
            return RC_NO_MEMORY;
        if (dst[i] >= 0) {
            rc = emit(pl, src[i], dst[i], cycle[i]);
            if (rc != RC_OK)
                return rc;
        }
    }
    pl->n_initial = pl->ev_cycle.n;
    return RC_OK;
}

/* ------------------------------------------------------------------ */
/* Phase B: the event kernel                                           */

typedef struct {
    /* network + packet state */
    i64 *busy_until;
    i64 *credits;
    i64 *q_head; /* per output: request queue of packets or buffers */
    i64 *q_tail;
    i64 *next_pkt;
    i64 *pkt_link; /* offset of the packet's current hop in links */
    const i64 *pkt_end;
    i64 *pkt_holding;
    const i64 *links;
    /* input-FIFO state (buffer ids: sub-channels, then host queues) */
    i64 *buf_head;
    i64 *buf_tail;
    i64 *next_buf;
    i64 *read_free;
    uint8_t *head_pending;
    i64 occupancy;
    /* calendar queue */
    i64 *node_ev;
    i64 *node_next;
    i64 n_nodes;
    i64 cap;
    i64 free_head;
    int full;
    i64 *bucket_head;
    i64 *bucket_tail;
    /* config */
    int input_fifo;
    i64 n_vcs;
    i64 pf;
    i64 wire_pf;
    i64 wire_rd;
    i64 cbits;
    /* counters */
    i64 credit_stalls;
} Ctx;

static void push(Ctx *x, i64 tt, i64 ev)
{
    i64 i = x->free_head;
    if (i >= 0) {
        x->free_head = x->node_next[i];
    } else if (x->n_nodes < x->cap) {
        i = x->n_nodes++;
    } else {
        x->full = 1; /* the caller aborts after this event */
        return;
    }
    x->node_ev[i] = ev;
    x->node_next[i] = -1;
    if (x->bucket_tail[tt] < 0)
        x->bucket_head[tt] = i;
    else
        x->node_next[x->bucket_tail[tt]] = i;
    x->bucket_tail[tt] = i;
}

static void enqueue(i64 *head, i64 *tail, i64 *next, i64 q, i64 item)
{
    next[item] = -1;
    if (tail[q] < 0)
        head[q] = item;
    else
        next[tail[q]] = item;
    tail[q] = item;
}

static i64 dequeue(i64 *head, i64 *tail, const i64 *next, i64 q)
{
    i64 item = head[q];
    head[q] = next[item];
    if (head[q] < 0)
        tail[q] = -1;
    return item;
}

/* A VC of output `c` holding a downstream credit, or -1 (lane order is
 * the shared deterministic tie-break, as in engine.free_vc). */
static i64 free_vc(const Ctx *x, i64 c)
{
    i64 v, base = c * x->n_vcs;
    for (v = 0; v < x->n_vcs; v++) {
        if (x->credits[base + v] > 0)
            return base + v;
    }
    return -1;
}

/* Packet `p` wins output `c` on sub-channel `sub` at cycle `t`. */
static void transmit(Ctx *x, i64 p, i64 c, i64 sub, i64 t)
{
    x->credits[sub]--;
    x->busy_until[c] = t + x->pf;
    push(x, t + x->pf,
         EV_PORTCREDIT | ((c | (x->pkt_holding[p] + 1) << x->cbits) << 3));
    x->pkt_holding[p] = sub;
    if (x->pkt_link[p] == x->pkt_end[p] - 1)
        push(x, t + x->wire_pf, EV_DELIVER | p << 3);
    else
        push(x, t + x->wire_rd, EV_HEADER | p << 3);
}

/* One arbitration attempt at output `c`: the oldest request wins if the
 * port is idle and any VC of `c` holds a downstream credit.  Output-
 * queued requests are packets; input-FIFO requests are buffers whose
 * head packet is bound for `c`. */
static void serve(Ctx *x, i64 c, i64 t)
{
    i64 sub, b, p;
    if (x->busy_until[c] > t || x->q_head[c] < 0)
        return;
    sub = free_vc(x, c);
    if (sub < 0) {
        x->credit_stalls++;
        return;
    }
    if (!x->input_fifo) {
        p = dequeue(x->q_head, x->q_tail, x->next_pkt, c);
    } else {
        b = dequeue(x->q_head, x->q_tail, x->next_buf, c);
        p = dequeue(x->buf_head, x->buf_tail, x->next_pkt, b);
        x->occupancy--;
        x->head_pending[b] = 0;
        x->read_free[b] = t + x->pf;
        if (x->buf_head[b] >= 0)
            push(x, t + x->pf, EV_HEAD_READY | b << 3);
    }
    transmit(x, p, c, sub, t);
}

/* Input-FIFO: register the head of buffer `b` with its output once the
 * buffer's read port is free (retry then if it is still streaming). */
static void request_head(Ctx *x, i64 b, i64 t)
{
    i64 c;
    if (x->head_pending[b] || x->buf_head[b] < 0)
        return;
    if (x->read_free[b] > t) {
        push(x, x->read_free[b], EV_HEAD_READY | b << 3);
        return;
    }
    x->head_pending[b] = 1;
    c = x->links[x->pkt_link[x->buf_head[b]]];
    enqueue(x->q_head, x->q_tail, x->next_buf, c, b);
    serve(x, c, t);
}

/* Hand packet `p` to its next forwarding stage: buffer `b` (input-FIFO)
 * or the request queue of its next output (output-queued). */
static void forward(Ctx *x, i64 p, i64 b, i64 t)
{
    i64 c;
    if (x->input_fifo) {
        enqueue(x->buf_head, x->buf_tail, x->next_pkt, b, p);
        x->occupancy++;
        request_head(x, b, t);
    } else {
        c = x->links[x->pkt_link[p]];
        enqueue(x->q_head, x->q_tail, x->next_pkt, c, p);
        serve(x, c, t);
    }
}

static i64 *alloc_fill(i64 n, i64 value)
{
    i64 i, *a = malloc((n ? n : 1) * sizeof(i64));
    if (a)
        for (i = 0; i < n; i++)
            a[i] = value;
    return a;
}

/* Event-node arena size: the push bound derived above, one push per
 * plan event plus 2 per route hop output-queued or 4 input-FIFO. */
static i64 arena_capacity(const Plan *pl, int input_fifo)
{
    return pl->ev_cycle.n + (input_fifo ? 4 : 2) * pl->hop.n + 8;
}

static long simulate(Plan *pl, const i64 *params, i64 *credits,
                     i64 *delays, i64 *telemetry, i64 *out)
{
    const i64 *ev_cycle = pl->ev_cycle.at;
    const i64 *ev_msg = pl->ev_msg.at;
    const i64 *ev_child = pl->ev_child.at;
    const i64 *msg_src = pl->msg_src.at;
    const i64 *msg_created = pl->msg_created.at;
    const i64 *msg_measured = pl->msg_measured.at;
    const i64 n_msgs = pl->msg_src.n;
    const i64 ppm = params[P_PPM];
    const i64 n_channels = params[P_N_CHANNELS];
    const i64 warmup = params[P_WARMUP];
    const i64 window_end = params[P_WINDOW_END];
    const i64 horizon = params[P_HORIZON];
    const i64 cbits = params[P_CBITS];
    const i64 cmask = ((i64)1 << cbits) - 1;
    const i64 n_pkts = n_msgs * ppm;
    const i64 n_buckets = horizon + params[P_SLACK] + 1;
    const i64 n_sub = n_channels * params[P_N_VCS];
    const i64 n_buffers = params[P_INPUT_FIFO] ? n_sub + params[P_N_PROCS] : 0;
    const i64 pf = params[P_PF];
    const i64 message_flits = params[P_MESSAGE_FLITS];
    const i64 obs_interval = params[P_OBS_INTERVAL];

    i64 *msg_remaining;
    i64 *row;
    i64 t, e, p, m, i, nxt, ev, kind, payload, h1, last_t, events, overflow;
    i64 n_delays, n_rows, messages_completed, flits_delivered;
    i64 next_mark, interval_injected, interval_delivered, last_stalls;
    long rc = RC_NO_MEMORY;
    Ctx x = {0};

    x.input_fifo = params[P_INPUT_FIFO] != 0;
    x.n_vcs = params[P_N_VCS];
    x.pf = pf;
    x.wire_pf = params[P_WIRE_PF];
    x.wire_rd = params[P_WIRE_RD];
    x.cbits = cbits;
    x.cap = arena_capacity(pl, x.input_fifo);
    x.free_head = -1;
    x.pkt_link = pl->pkt_link.at;
    x.pkt_end = pl->pkt_end.at;
    x.links = pl->hop.at;
    x.credits = credits;
    out[O_CAPACITY] = x.cap;

    x.busy_until = alloc_fill(n_channels, 0);
    x.q_head = alloc_fill(n_channels, -1);
    x.q_tail = alloc_fill(n_channels, -1);
    x.next_pkt = alloc_fill(n_pkts, -1);
    x.pkt_holding = alloc_fill(n_pkts, -1);
    x.buf_head = alloc_fill(n_buffers, -1);
    x.buf_tail = alloc_fill(n_buffers, -1);
    x.next_buf = alloc_fill(n_buffers, -1);
    x.read_free = alloc_fill(n_buffers, 0);
    x.head_pending = calloc(n_buffers ? n_buffers : 1, 1);
    msg_remaining = alloc_fill(n_msgs, ppm);
    x.node_ev = malloc((x.cap ? x.cap : 1) * sizeof(i64));
    x.node_next = malloc((x.cap ? x.cap : 1) * sizeof(i64));
    x.bucket_head = alloc_fill(n_buckets, -1);
    x.bucket_tail = alloc_fill(n_buckets, -1);
    if (!x.busy_until || !x.q_head || !x.q_tail || !x.next_pkt ||
        !x.pkt_holding || !x.buf_head || !x.buf_tail || !x.next_buf ||
        !x.read_free || !x.head_pending || !msg_remaining || !x.node_ev ||
        !x.node_next || !x.bucket_head || !x.bucket_tail)
        goto done;
    rc = RC_ARENA_FULL;

    /* Initial inject events in plan (= reference push) order; initial
     * arrival cycles are the only unbounded times, hence the guard. */
    for (e = 0; e < pl->n_initial; e++) {
        if (ev_cycle[e] <= horizon)
            push(&x, ev_cycle[e], EV_INJECT | e << 3);
    }
    if (x.full)
        goto done;

    last_t = 0;
    events = 0;
    n_delays = 0;
    n_rows = 0;
    messages_completed = 0;
    flits_delivered = 0;
    overflow = pl->overflow;
    next_mark = obs_interval ? obs_interval : horizon + 1;
    interval_injected = 0;
    interval_delivered = 0;
    last_stalls = 0;

    for (t = 0; t <= horizon; t++) {
        i = x.bucket_head[t];
        if (i < 0)
            continue;
        last_t = t;
        while (t >= next_mark) { /* flush observation intervals */
            row = telemetry + ROW * n_rows++;
            row[0] = next_mark;
            row[1] = interval_injected;
            row[2] = interval_delivered;
            row[3] = x.credit_stalls - last_stalls;
            row[4] = x.occupancy; /* output-queued: input buffers unused */
            interval_injected = 0;
            interval_delivered = 0;
            last_stalls = x.credit_stalls;
            next_mark += obs_interval;
        }
        /* Follow next-links; same-cycle pushes extend the tail and are
         * picked up naturally, matching the heap's behavior.  A drained
         * node is never the tail while pushes can still reach its
         * bucket, so recycling it cannot break the list. */
        while (i >= 0) {
            ev = x.node_ev[i];
            events++;
            kind = ev & 7;
            if (kind == EV_PORTCREDIT) {
                payload = ev >> 3;
                serve(&x, payload & cmask, t);
                h1 = payload >> cbits;
                if (h1) {
                    events++; /* the fused credit half */
                    x.credits[h1 - 1]++;
                    serve(&x, (h1 - 1) / x.n_vcs, t);
                }
            } else if (kind == EV_HEADER) {
                p = ev >> 3;
                x.pkt_link[p]++;
                /* input-FIFO: the input buffer of the channel crossed */
                forward(&x, p, x.pkt_holding[p], t);
            } else if (kind == EV_DELIVER) {
                p = ev >> 3;
                x.credits[x.pkt_holding[p]]++; /* host drains at link rate */
                serve(&x, x.pkt_holding[p] / x.n_vcs, t);
                m = p / ppm;
                interval_delivered += pf;
                if (warmup <= t && t < window_end)
                    flits_delivered += pf;
                if (--msg_remaining[m] == 0 && msg_measured[m]) {
                    messages_completed++;
                    delays[n_delays++] = t - msg_created[m];
                }
            } else if (kind == EV_INJECT) {
                e = ev >> 3;
                m = ev_msg[e];
                if (m >= 0) {
                    interval_injected += message_flits;
                    for (p = m * ppm; p < m * ppm + ppm; p++)
                        forward(&x, p, n_sub + msg_src[m], t);
                }
                if (ev_child[e] >= 0)
                    push(&x, ev_cycle[ev_child[e]],
                         EV_INJECT | ev_child[e] << 3);
            } else { /* EV_HEAD_READY */
                request_head(&x, ev >> 3, t);
            }
            if (x.full)
                goto done;
            /* Read the link only now (same-cycle pushes may have just
             * set it), then recycle the drained node. */
            nxt = x.node_next[i];
            x.node_next[i] = x.free_head;
            x.free_head = i;
            i = nxt;
        }
    }

    for (t = horizon + 1; t < n_buckets; t++) {
        if (x.bucket_head[t] >= 0) {
            overflow = 1; /* pushed past the horizon, never popped */
            break;
        }
    }

    out[O_MESSAGES_COMPLETED] = messages_completed;
    out[O_FLITS_DELIVERED] = flits_delivered;
    out[O_CREDIT_STALLS] = x.credit_stalls;
    out[O_EVENTS] = events;
    out[O_LAST_T] = last_t;
    out[O_OVERFLOW] = overflow;
    out[O_N_DELAYS] = n_delays;
    out[O_N_ROWS] = n_rows;
    rc = RC_OK;

done:
    free(x.busy_until);
    free(x.q_head);
    free(x.q_tail);
    free(x.next_pkt);
    free(x.pkt_holding);
    free(x.buf_head);
    free(x.buf_tail);
    free(x.next_buf);
    free(x.read_free);
    free(x.head_pending);
    free(msg_remaining);
    free(x.node_ev);
    free(x.node_next);
    free(x.bucket_head);
    free(x.bucket_tail);
    return rc;
}

/* One batched run.  `mt` is random.Random.getstate()'s internal state
 * (624 words, then the index); `rate` is each host's arrival rate;
 * `level`, `row` and `blocks` are the route table (indexed by pair key,
 * pair key, and block); `model` holds the permutation or the trace
 * columns.  On RC_OK, *delays holds out[O_N_DELAYS] message delays; the
 * caller frees it with release(). */
long run_batched(const i64 *params, double rate, const uint32_t *mt,
                 const int8_t *level, const i64 *row, const Block *blocks,
                 const i64 *model, i64 *credits, i64 *telemetry, i64 *out,
                 i64 **delays)
{
    Plan pl = {0};
    long rc = RC_NO_MEMORY;
    int i;

    *delays = NULL;
    for (i = 0; i < MT_N; i++)
        pl.rng.mt[i] = mt[i];
    pl.rng.index = (int)mt[MT_N];
    pl.level = level;
    pl.row = row;
    pl.blocks = blocks;
    pl.n_procs = params[P_N_PROCS];
    pl.n_keys = params[P_N_KEYS];
    pl.ppm = params[P_PPM];
    pl.warmup = params[P_WARMUP];
    pl.window_end = params[P_WINDOW_END];
    pl.horizon = params[P_HORIZON];
    pl.selection = (int)params[P_SELECTION];
    pl.model = (int)params[P_MODEL];
    pl.data = model;
    pl.n_data = params[P_MODEL_LEN];
    pl.rate = rate;
    if (pl.selection == SEL_ROUND_ROBIN) {
        pl.rr = calloc(pl.n_keys ? pl.n_keys : 1, sizeof(i64));
        if (!pl.rr)
            goto done;
    }

    rc = pl.model == MODEL_TRACE ? plan_trace(&pl) : plan_arrivals(&pl);
    if (rc == RC_NO_ROUTE)
        out[O_KEY] = pl.bad_key;
    if (rc != RC_OK)
        goto done;

    out[O_MESSAGES_MEASURED] = pl.n_measured;
    *delays = malloc((pl.n_measured ? pl.n_measured : 1) * sizeof(i64));
    rc = *delays ? simulate(&pl, params, credits, *delays, telemetry, out)
                 : RC_NO_MEMORY;
done:
    plan_free(&pl);
    return rc;
}

void release(i64 *delays)
{
    free(delays);
}
