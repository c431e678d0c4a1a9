/* Native path selection: the random heuristic's
 * (repro.routing.heuristics.RandomMultipath) and the fault-aware
 * re-route rule (repro.faults.scheme.DegradedScheme).
 *
 * Compiled with flit/kernel.c and flow/loads.c into one shared library
 * by repro.native and loaded through ctypes.  Each call is one level
 * query.
 *
 * select_paths, for each pair, derives the pair key, hashes every one
 * of the level's x paths to a score and keeps the p lowest-scoring
 * paths, or orders all x.  When the library cannot be built,
 * RandomMultipath builds the (n, x) float64 score matrix with numpy's
 * splitmix64 and selects with argpartition and argsort instead; the two
 * paths agree bit for bit (tests/routing/test_select_kernel.py).
 *
 * select_surviving walks each pair's preference order over the level's
 * x paths, tests each path against the fabric's per-node liveness
 * tables and keeps the first p live ones.  Without the library
 * DegradedScheme gathers an (n, x) alive matrix and selects from it with
 * numpy; the two agree bit for bit (tests/faults/test_surviving_kernel.py).
 *
 * select_paths in detail:
 *
 * Scores are repro.util.hashing's:
 *   pair key  = hash_combine(seed, s * n_procs + d)
 *   score(j)  = hash_uniform(pair key, j) = (bits >> 11) * 2^-53,
 * where bits >> 11 fits in 53 bits, so the float is exact and the
 * integer bits >> 11 orders paths exactly like it.  Paths order by
 * (score, index): equal scores go to the lower index first.  (numpy's
 * argsort and argpartition leave such a tie in no fixed order; a tie
 * takes two equal 53-bit hashes in one pair's row.)
 *
 * Selection is built on buckets, not on a comparison sort.  Each score
 * goes into one of about x buckets by its top bits, so a bucket holds
 * one score on average and every score in a bucket is below every score
 * in the next:
 *   - the p lowest: count the buckets, walk them to the one that holds
 *     the p-th lowest score, sort just that bucket to find the exact
 *     threshold (score, index), then one branch-free pass emits every
 *     index at or below it, in index order;
 *   - a full order: the same counts place every index in its bucket (a
 *     counting sort), then an insertion sort orders within buckets,
 *     moving each index past the few scores of its own bucket.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef uint64_t u64;

/* Return codes, as the _RC_* constants in repro/routing/heuristics.py
 * and repro/faults/scheme.py. */
enum { SELECT_OK = 0, SELECT_BAD_PATH = 1, SELECT_BAD_SHAPE = 2,
       SELECT_NO_MEMORY = 3, SELECT_BAD_NODE = 4, SELECT_DISCONNECTED = 5 };

/* hash_combine's initial accumulator (digits of pi). */
#define HASH_INIT 0x243F6A8885A308D3ULL
/* At most 2^16 buckets: wider levels just put more scores per bucket. */
#define MAX_BUCKET_BITS 16

static inline u64 splitmix64(u64 z)
{
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* Insertion sort of idx[0..m) by key[idx[.]]; stable, so indices that
 * arrive in ascending order leave in (score, index) order. */
static void sort_by_key(i64 *idx, i64 m, const u64 *key)
{
    for (i64 a = 1; a < m; a++) {
        i64 v = idx[a];
        u64 kv = key[v];
        i64 b = a;
        for (; b > 0 && key[idx[b - 1]] > kv; b--)
            idx[b] = idx[b - 1];
        idx[b] = v;
    }
}

/* One level query of n pairs (s[i], d[i]) with x paths each, under
 * routing seed `seed` on a tree of n_procs processing nodes.
 *   p < x:  out is (n, p): row i holds the p lowest-scoring path
 *           indices of pair i, in ascending index order;
 *   p == x: out is (n, x): row i holds all x indices in ascending
 *           (score, index) order; if first is not NULL, first[i] is
 *           moved to the front of row i and the rest keep their order.
 * A first[i] outside [0, x) stops the call before it is used. */
long select_paths(u64 seed, i64 n_procs, i64 n, const i64 *s, const i64 *d,
                  i64 x, i64 p, const i64 *first, i64 *out)
{
    if (n < 0 || x < 1 || p < 1 || p > x)
        return SELECT_BAD_SHAPE;
    if (first)
        for (i64 i = 0; i < n; i++)
            if (first[i] < 0 || first[i] >= x)
                return SELECT_BAD_PATH;
    if (n == 0)
        return SELECT_OK;
    int bits = 0;
    while (bits < MAX_BUCKET_BITS && ((i64)1 << bits) < x)
        bits++;
    i64 n_buckets = (i64)1 << bits;
    int shift = 53 - bits;
    u64 *key = malloc(x * sizeof *key);
    i64 *count = malloc(n_buckets * sizeof *count);
    i64 *last = malloc(n_buckets * sizeof *last);
    i64 *scratch = malloc(x * sizeof *scratch);
    if (!key || !count || !last || !scratch) {
        free(key), free(count), free(last), free(scratch);
        return SELECT_NO_MEMORY;
    }
    u64 seed_acc = splitmix64(seed ^ HASH_INIT);
    for (i64 i = 0; i < n; i++) {
        u64 pair = (u64)s[i] * (u64)n_procs + (u64)d[i];
        u64 acc = splitmix64(splitmix64(pair ^ seed_acc) ^ HASH_INIT);
        memset(count, 0, n_buckets * sizeof *count);
        for (i64 j = 0; j < x; j++) {
            u64 k = splitmix64((u64)j ^ acc) >> 11;
            key[j] = k;
            count[k >> shift]++;
            last[k >> shift] = j;
        }
        if (p < x) {
            /* the bucket b holding the p-th lowest score, and its rank
             * r (from 1) within b */
            i64 before = 0, b = 0;
            while (before + count[b] < p)
                before += count[b++];
            i64 r = p - before, cut = last[b];
            if (count[b] > 1) {
                i64 m = 0;
                for (i64 j = 0; j < x; j++) {
                    scratch[m] = j;
                    m += (i64)(key[j] >> shift) == b;
                }
                sort_by_key(scratch, m, key);
                cut = scratch[r - 1];
            }
            /* exactly p indices have (score, index) <= (key[cut], cut);
             * c <= j at every write, so each lands inside scratch */
            u64 t = key[cut];
            i64 c = 0;
            for (i64 j = 0; j < x; j++) {
                scratch[c] = j;
                c += (key[j] < t) | ((key[j] == t) & (j <= cut));
            }
            memcpy(out + i * p, scratch, p * sizeof *out);
        } else {
            i64 *row = out + i * x, start = 0;
            for (i64 b = 0; b < n_buckets; b++) {
                i64 c = count[b];
                count[b] = start;
                start += c;
            }
            for (i64 j = 0; j < x; j++)
                row[count[key[j] >> shift]++] = j;
            sort_by_key(row, x, key);
            if (first) {
                i64 f = first[i], at = 0;
                while (row[at] != f)
                    at++;
                memmove(row + 1, row, at * sizeof *row);
                row[0] = f;
            }
        }
    }
    free(key), free(count), free(last), free(scratch);
    return SELECT_OK;
}


/* One fault-aware level query of n pairs (s[i], d[i]) with x paths each
 * on a tree of n_procs processing nodes.  Row i of the (n, x) order is
 * pair i's preference over its paths; path t survives iff
 * up_ok[s[i] * x + t] and down_ok[d[i] * x + t] (the fabric's
 * (n_procs, x) level liveness tables, one byte per entry).  Row i of
 * the (n, p) idx and weights gets the first min(p, alive) surviving
 * paths in order at weight 1.0 / min(p, alive), then copies of its
 * first surviving path at weight 0: the rule of
 * repro.faults.scheme.select_surviving.  The walk stops at the p-th
 * surviving path.  Checked in this order, each before it is relied on:
 * every order entry is in [0, x) (else *bad is the first outside it, in
 * row-major order), every node id in [0, n_procs) (else *bad is the
 * first outside it) and every row has a surviving path (else *bad is
 * the first row without one). */
long select_surviving(i64 n_procs, i64 n, const i64 *s, const i64 *d,
                      i64 x, i64 p, const i64 *order,
                      const uint8_t *up_ok, const uint8_t *down_ok,
                      i64 *idx, double *weights, i64 *bad)
{
    if (n < 0 || x < 1 || p < 1 || p > x)
        return SELECT_BAD_SHAPE;
    for (i64 j = 0; j < n * x; j++)
        if (order[j] < 0 || order[j] >= x) {
            *bad = order[j];
            return SELECT_BAD_PATH;
        }
    for (i64 i = 0; i < n; i++) {
        i64 src = s[i], dst = d[i];
        if (src < 0 || src >= n_procs || dst < 0 || dst >= n_procs) {
            *bad = (src < 0 || src >= n_procs) ? src : dst;
            return SELECT_BAD_NODE;
        }
    }
    for (i64 i = 0; i < n; i++) {
        const i64 *row = order + i * x;
        const uint8_t *up = up_ok + s[i] * x, *down = down_ok + d[i] * x;
        i64 *out = idx + i * p;
        double *w = weights + i * p;
        /* live counts the surviving paths so far; out[live] takes each
         * path in turn and keeps it only if it survives */
        i64 live = 0;
        for (i64 j = 0; j < x && live < p; j++) {
            i64 t = row[j];
            out[live] = t;
            live += (up[t] != 0) & (down[t] != 0);
        }
        if (live == 0) {
            *bad = i;
            return SELECT_DISCONNECTED;
        }
        double share = 1.0 / (double)live;
        for (i64 j = 0; j < live; j++)
            w[j] = share;
        for (i64 j = live; j < p; j++) {
            out[j] = out[0];
            w[j] = 0.0;
        }
    }
    return SELECT_OK;
}
