/* Sequential first fit over a padded stencil grid (Section V.A).
 *
 * ``starts`` and ``weights`` are per-cell arrays of the padded grid
 * (repro.kernels.substrate.StencilLayout): the one-cell border holds
 * UNCOLORED starts and zero weights, so the neighbours of padded id ``p``
 * are ``p + deltas[k]`` with no bounds check.  Cells are placed in the
 * order of ``cells``; each gets the lowest start whose interval misses the
 * intervals of its colored, non-empty neighbours, found by sorting them by
 * lower end and scanning once, exactly as greedy_engine.first_fit_start
 * does.  A zero-weight cell lands at 0.  Everything is int64.
 */
#include <stdint.h>

#define UNCOLORED (-1)
#define MAX_DEGREE 26

void ivc_first_fit(int64_t *starts, const int64_t *weights,
                   const int64_t *cells, int64_t n,
                   const int64_t *deltas, int64_t d)
{
    int64_t lo[MAX_DEGREE], hi[MAX_DEGREE];
    for (int64_t i = 0; i < n; i++) {
        const int64_t p = cells[i];
        const int64_t w = weights[p];
        int64_t cur = 0;
        if (w > 0) {
            int m = 0;
            for (int64_t k = 0; k < d; k++) {
                const int64_t q = p + deltas[k];
                const int64_t s = starts[q], wq = weights[q];
                if (s == UNCOLORED || wq <= 0)
                    continue;
                int j = m++;  /* insertion sort by lower end */
                while (j > 0 && lo[j - 1] > s) {
                    lo[j] = lo[j - 1];
                    hi[j] = hi[j - 1];
                    j--;
                }
                lo[j] = s;
                hi[j] = s + wq;
            }
            for (int j = 0; j < m && lo[j] - cur < w; j++)
                if (hi[j] > cur)
                    cur = hi[j];
        }
        starts[p] = cur;
    }
}
