/* Native scatter-add for the flow evaluator (repro.flow.loads).
 *
 * Compiled with flit/kernel.c into one shared library by repro.native
 * and loaded through ctypes.  When it cannot be built, repro.flow.loads
 * stages the same sums as one weighted np.bincount over an (n, P, 2k)
 * link-id tensor instead.  Both paths add the same floats to each link
 * in the same order, so they agree bit for bit; tests/flow runs every
 * parity case on both.
 */
#include <stdint.h>

typedef int64_t i64;

/* Return codes, as the _RC_* constants in repro/flow/loads.py. */
enum { SCATTER_OK = 0, SCATTER_BAD_PATH = 1, SCATTER_BAD_LINK = 2 };

/* One NCA-level group of n pairs with n_paths paths of width links each:
 * adds weight[i][j] to loads[pair[i][c] + table[idx[i][j]][c]] for
 * i < n, j < n_paths, c < width, in that (i, j, c) order, which is the
 * order np.bincount reads the flattened (n, n_paths, width) id tensor.
 * pair is the (n, width) per-pair part of the link ids, table the
 * (n_table, width) per-path part.  A path index outside [0, n_table) or
 * a link id outside [0, n_loads) stops the call before it is used: the
 * return code says which, and *bad holds the value. */
long scatter_loads(i64 n, i64 n_paths, i64 width, const i64 *pair,
                   const i64 *table, i64 n_table, const i64 *idx,
                   const double *weight, double *loads, i64 n_loads,
                   i64 *bad)
{
    for (i64 i = 0; i < n; i++) {
        const i64 *base = pair + i * width;
        for (i64 j = 0; j < n_paths; j++) {
            i64 t = idx[i * n_paths + j];
            if (t < 0 || t >= n_table) {
                *bad = t;
                return SCATTER_BAD_PATH;
            }
            const i64 *path = table + t * width;
            double w = weight[i * n_paths + j];
            for (i64 c = 0; c < width; c++) {
                i64 link = base[c] + path[c];
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
