/* Native scatter-add for the flow evaluator (repro.flow.loads).
 *
 * Compiled with flit/kernel.c into one shared library by repro.native
 * and loaded through ctypes.  When it cannot be built, repro.flow.loads
 * stages the same sums as one weighted np.bincount over an (n, P, 2k)
 * link-id tensor instead.  Both paths add the same floats to each link
 * in the same order, so they agree bit for bit; tests/flow runs every
 * parity case on both (repro.native builds with -ffp-contract=off, so
 * amount * fraction is rounded before the add, as in numpy).
 */
#include <stdint.h>

typedef int64_t i64;

/* Return codes, as the _RC_* constants in repro/flow/loads.py. */
enum {
    SCATTER_OK = 0, SCATTER_BAD_PATH = 1, SCATTER_BAD_LINK = 2,
    SCATTER_BAD_NODE = 3
};

/* One NCA-level group of n pairs with n_paths level-k paths each: adds
 * w = amount[i] * frac[i * frac_stride + j] (frac_stride 0: one vector
 * shared by every pair) to each of the 2k links of path idx[i][j] from
 * s[i] to d[i], in (i, j, c) order, which is the order np.bincount reads
 * the flattened (n, n_paths, 2k) id tensor.  Link c's id is offset[i] +
 * table[idx[i][j]][c] plus the pair part: up[s[i]][c] for c < k, then
 * down[d[i]][c - k] (the (n_procs, k) tables of pair_part_tables).  A
 * node id outside [0, n_procs), a path index outside [0, n_table) or a
 * link id outside [0, n_loads) stops the call before it is used: the
 * return code says which, and *bad holds the value. */
long scatter_loads(i64 n, i64 n_paths, i64 k, const i64 *s, const i64 *d,
                   const i64 *offset, const i64 *up, const i64 *down,
                   i64 n_procs, const i64 *table, i64 n_table,
                   const i64 *idx, const double *amount, const double *frac,
                   i64 frac_stride, double *loads, i64 n_loads, i64 *bad)
{
    for (i64 i = 0; i < n; i++) {
        i64 src = s[i], dst = d[i];
        if (src < 0 || src >= n_procs || dst < 0 || dst >= n_procs) {
            *bad = (src < 0 || src >= n_procs) ? src : dst;
            return SCATTER_BAD_NODE;
        }
        const i64 *pair_up = up + src * k, *pair_down = down + dst * k;
        for (i64 j = 0; j < n_paths; j++) {
            i64 t = idx[i * n_paths + j];
            if (t < 0 || t >= n_table) {
                *bad = t;
                return SCATTER_BAD_PATH;
            }
            const i64 *path = table + t * 2 * k;
            double w = amount[i] * frac[i * frac_stride + j];
            for (i64 c = 0; c < 2 * k; c++) {
                i64 link = offset[i] + path[c]
                           + (c < k ? pair_up[c] : pair_down[c - k]);
                if (link < 0 || link >= n_loads) {
                    *bad = link;
                    return SCATTER_BAD_LINK;
                }
                loads[link] += w;
            }
        }
    }
    return SCATTER_OK;
}
