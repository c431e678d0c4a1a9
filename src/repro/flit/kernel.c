/* Native phase-B kernel for the batched flit engine.
 *
 * Compiled on demand by repro.flit.native and loaded through ctypes;
 * when it cannot be built the batched engine runs the reference engine
 * (repro.flit.engine.FlitSimulator) instead.  Phase A
 * (repro.flit.batched.BatchedFlitSimulator._injection_plan) has already
 * drawn every random number, so the work here is pure integer event
 * processing that mirrors the reference event for event, for both
 * switch models: same (time, seq) order, same counters, same telemetry.
 * The differential suite tests/flit/test_batched_parity.py pins it to
 * the reference bit for bit.
 *
 * Data layout notes:
 *  - Queues are intrusive singly-linked lists over dense id spaces, so
 *    enqueue/dequeue are index writes with no allocation.  A packet sits
 *    in at most one queue at a time (an output's request queue in the
 *    output-queued model, an input buffer in the input-FIFO model), and
 *    an input buffer sits in at most one request queue (head_pending
 *    guards it), so one next-link array per id space suffices.
 *  - Calendar buckets are intrusive lists over an event-node arena whose
 *    capacity the caller passes in (see arena_capacity in native.py);
 *    every push is checked against it, and drained nodes are recycled
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
#include <stdint.h>
#include <stdlib.h>

typedef int64_t i64;

enum {
    EV_HEADER = 0,     /* payload: packet id */
    EV_PORTCREDIT = 1, /* payload: channel | (holding+1) << cbits */
    EV_DELIVER = 2,    /* payload: packet id */
    EV_INJECT = 3,     /* payload: injection-plan event id */
    EV_HEAD_READY = 4  /* payload: buffer id (input-FIFO only) */
};

enum {
    P_N_PLAN = 0,
    P_N_INITIAL = 1,
    P_N_MSGS = 2,
    P_PPM = 3,
    P_N_CHANNELS = 4,
    P_N_VCS = 5,
    P_PF = 6,
    P_WIRE_PF = 7,
    P_WIRE_RD = 8,
    P_WARMUP = 9,
    P_WINDOW_END = 10,
    P_HORIZON = 11,
    P_SLACK = 12,
    P_CBITS = 13,
    P_OVERFLOW_IN = 14,
    P_N_PROCS = 15,
    P_INPUT_FIFO = 16,
    P_MESSAGE_FLITS = 17,
    P_OBS_INTERVAL = 18, /* 0: telemetry off */
    P_ARENA_CAP = 19,
    P_COUNT = 20
};

enum {
    O_MESSAGES_COMPLETED = 0,
    O_FLITS_DELIVERED = 1,
    O_CREDIT_STALLS = 2,
    O_EVENTS = 3,
    O_LAST_T = 4,
    O_OVERFLOW = 5,
    O_N_DELAYS = 6,
    O_N_ROWS = 7,
    O_COUNT = 8
};

enum { RC_OK = 0, RC_NO_MEMORY = 1, RC_ARENA_FULL = 2 };

/* Telemetry row layout: t, injected, delivered, credit_stalls, occupancy. */
#define ROW 5

typedef struct {
    /* network + packet state */
    i64 *busy_until;
    i64 *credits;
    i64 *q_head; /* per output: request queue of packets or buffers */
    i64 *q_tail;
    i64 *next_pkt;
    i64 *pkt_hop;
    i64 *pkt_holding;
    const i64 *pkt_off;
    const i64 *pkt_path;
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
    if (x->pkt_hop[p] == x->pkt_off[p + 1] - x->pkt_off[p] - 1)
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
    i64 p, c;
    if (x->head_pending[b] || x->buf_head[b] < 0)
        return;
    if (x->read_free[b] > t) {
        push(x, x->read_free[b], EV_HEAD_READY | b << 3);
        return;
    }
    x->head_pending[b] = 1;
    p = x->buf_head[b];
    c = x->pkt_path[x->pkt_off[p] + x->pkt_hop[p]];
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
        c = x->pkt_path[x->pkt_off[p] + x->pkt_hop[p]];
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

long run_kernel(const i64 *params,
                const i64 *ev_cycle, const i64 *ev_msg, const i64 *ev_child,
                const i64 *msg_src, const i64 *msg_created,
                const uint8_t *msg_measured,
                const i64 *pkt_off, const i64 *pkt_path,
                i64 *credits, i64 *delays, i64 *telemetry, i64 *out)
{
    const i64 n_initial = params[P_N_INITIAL];
    const i64 n_msgs = params[P_N_MSGS];
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
    x.cap = params[P_ARENA_CAP];
    x.free_head = -1;
    x.pkt_off = pkt_off;
    x.pkt_path = pkt_path;
    x.credits = credits;

    x.busy_until = alloc_fill(n_channels, 0);
    x.q_head = alloc_fill(n_channels, -1);
    x.q_tail = alloc_fill(n_channels, -1);
    x.next_pkt = alloc_fill(n_pkts, -1);
    x.pkt_hop = alloc_fill(n_pkts, 0);
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
        !x.pkt_hop || !x.pkt_holding || !x.buf_head || !x.buf_tail ||
        !x.next_buf || !x.read_free || !x.head_pending || !msg_remaining ||
        !x.node_ev || !x.node_next || !x.bucket_head || !x.bucket_tail)
        goto done;
    rc = RC_ARENA_FULL;

    /* Initial inject events in plan (= reference push) order; initial
     * arrival cycles are the only unbounded times, hence the guard. */
    for (e = 0; e < n_initial; e++) {
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
    overflow = params[P_OVERFLOW_IN];
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
                x.pkt_hop[p]++;
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
    free(x.pkt_hop);
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
