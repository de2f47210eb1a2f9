/* Sequential first fit over a padded stencil grid (Section V.A).
 *
 * ``starts`` and ``weights`` are per-cell arrays of the padded grid
 * (repro.kernels.substrate.StencilLayout): the one-cell border holds
 * UNCOLORED starts and zero weights, so the neighbours of padded id ``p``
 * are ``p + deltas[k]`` with no bounds check.  Cells are placed in the
 * order of ``cells``; each gets the lowest start ``cur`` whose interval
 * ``[cur, cur + w)`` misses the intervals of its colored, non-empty
 * neighbours, which is greedy_engine.first_fit_start's answer.  A
 * zero-weight cell lands at 0.  Everything is int64.
 *
 * No sort: sweep the neighbour intervals from ``cur = 0``, the gather
 * being the first sweep.  An interval with ``hi <= cur`` is dropped; one
 * that overlaps ``[cur, cur + w)`` blocks every start in ``[cur, hi)``, so
 * ``cur = hi`` and it is dropped too; any other is kept for the next
 * sweep.  Repeat until a sweep moves nothing.  ``cur`` only rises and
 * skips only blocked starts, so the fixed point is the lowest feasible
 * start; a sweep that moves drops an interval, so there are at most
 * ``m + 1`` sweeps.  ``lo - cur < w`` cannot overflow (``0 <= lo, cur``).
 *
 * The visit order may jump around the grid (largest first, BDP blocks),
 * so the loop prefetches the stencil rows of the cell ``AHEAD`` places on.
 */
#include <stdint.h>

#define UNCOLORED (-1)
#define MAX_DEGREE 26
#define AHEAD 16

/* The stencil rows of ``deltas``: its runs of ascending offsets spanning
 * at most 2, three in 2D and nine in 3D.  Writes the first and last offset
 * of each run to ``first`` and ``last`` and returns the number of runs. */
static int64_t stencil_rows(const int64_t *deltas, int64_t d,
                            int64_t *first, int64_t *last)
{
    int64_t r = 0;
    for (int64_t k = 0; k < d; k++) {
        if (r == 0 || deltas[k] <= last[r - 1] || deltas[k] - first[r - 1] > 2)
            first[r++] = deltas[k];
        last[r - 1] = deltas[k];
    }
    return r;
}

void ivc_first_fit(int64_t *starts, const int64_t *weights,
                   const int64_t *cells, int64_t n,
                   const int64_t *deltas, int64_t d)
{
    int64_t lo[MAX_DEGREE], hi[MAX_DEGREE], first[MAX_DEGREE], last[MAX_DEGREE];
    const int64_t rows = stencil_rows(deltas, d, first, last);
    for (int64_t i = 0; i < n; i++) {
        if (i + AHEAD < n) {
            const int64_t a = cells[i + AHEAD];
            for (int64_t r = 0; r < rows; r++) {
                __builtin_prefetch(starts + a + first[r]);
                __builtin_prefetch(weights + a + first[r]);
                __builtin_prefetch(starts + a + last[r]);
                __builtin_prefetch(weights + a + last[r]);
            }
        }
        const int64_t p = cells[i];
        const int64_t w = weights[p];
        int64_t cur = 0;
        if (w > 0) {
            int m = 0, moved = 0;
            for (int64_t k = 0; k < d; k++) {
                const int64_t q = p + deltas[k];
                const int64_t s = starts[q], wq = weights[q];
                if (s == UNCOLORED || wq <= 0 || s + wq <= cur)
                    continue;
                if (s - cur < w) {
                    cur = s + wq;
                    moved = 1;
                    continue;
                }
                lo[m] = s;
                hi[m] = s + wq;
                m++;
            }
            while (moved) {
                int kept = 0;
                moved = 0;
                for (int j = 0; j < m; j++) {
                    if (hi[j] <= cur)
                        continue;
                    if (lo[j] - cur < w) {
                        cur = hi[j];
                        moved = 1;
                        continue;
                    }
                    lo[kept] = lo[j];
                    hi[kept] = hi[j];
                    kept++;
                }
                m = kept;
            }
        }
        starts[p] = cur;
    }
}
