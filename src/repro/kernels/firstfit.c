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
 * No sort: gather the live neighbour intervals, then sweep them from
 * ``cur = 0`` with a compare-and-move and no data-dependent branch
 * (place), moving ``cur`` to ``hi`` past every interval that overlaps
 * ``[cur, cur + w)`` (it blocks every start in ``[cur, hi)``), and repeat
 * until a sweep leaves ``cur`` where it was.  ``cur`` only rises and
 * skips only blocked starts, and a sweep that moves nothing proves ``cur``
 * feasible, so the fixed point is the lowest feasible start.  An interval
 * once passed has ``hi <= cur`` for good, and a sweep that moves passes
 * one, so there are at most ``m + 1`` sweeps.  ``lo - cur < w`` cannot
 * overflow (``0 <= lo, cur``).
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

/* The lowest start ``cur >= 0`` whose ``[cur, cur + w)`` misses every
 * ``[lo[j], hi[j])``, for ``w > 0`` and ``0 <= lo[j] < hi[j]``. */
static inline int64_t place(const int64_t *lo, const int64_t *hi, int m, int64_t w)
{
    int64_t cur = 0, prev;
    do {
        prev = cur;
        for (int j = 0; j < m; j++)
            cur = ((hi[j] > cur) & (lo[j] - cur < w)) ? hi[j] : cur;
    } while (cur != prev);
    return cur;
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
            int m = 0;
            for (int64_t k = 0; k < d; k++) {
                const int64_t q = p + deltas[k];
                const int64_t s = starts[q], wq = weights[q];
                if (s == UNCOLORED || wq <= 0)
                    continue;
                lo[m] = s;
                hi[m] = s + wq;
                m++;
            }
            cur = place(lo, hi, m, w);
        }
        starts[p] = cur;
    }
}

/* The recolor walk: first fit again over only the cells a weight delta
 * can reach, in the order of the coloring being patched.
 *
 * ``starts`` is a first-fit coloring made before the delta, ``weights``
 * the new weights.  Cell ``p`` precedes ``q`` when ``(key(p), p) <
 * (key(q), q)``: a static order (GLL, GZO) passes ``rank`` (every padded
 * id's position) and ``cells`` (the padded id at every position), and
 * ``key(p) = rank[p]``; with no ``rank`` the order is GLF's, heaviest
 * first: ``key(p) = -weights[p]``.
 *
 * The walk queues the ``dirty`` cells (for GLF also their 1-ring, whose
 * predecessors a dirty cell may have joined or left), then takes the
 * smallest queued cell, first-fits it against its predecessors and, if
 * its start changed or its weight is dirty, queues its successors.  Every
 * cell queued lies after the one being placed, so cells are placed in
 * order, each once and after all its predecessors are final: the result
 * equals a full pass.  A static order queues on ``bits`` (zeroed, one bit
 * per position, scanned forward), GLF on the binary heap ``heap`` (two
 * words per padded cell).  ``mark`` holds ``BORDER`` on the border and 0
 * elsewhere.  Returns 1 once more than ``budget`` cells were placed; else
 * 0, with ``stats`` = cells placed, starts changed, distinct keys placed,
 * the last key placed. */
#define BORDER 1
#define QUEUED 2
#define DIRTY 4

typedef struct {
    int64_t key, id;
} entry;

typedef struct {
    const int64_t *rank, *cells, *weights;
    uint8_t *mark;
    uint64_t *bits; /* static order: queued positions */
    int64_t word, words;
    entry *heap; /* GLF */
    int64_t size;
} queue;

static int before(entry a, entry b)
{
    return a.key < b.key || (a.key == b.key && a.id < b.id);
}

static entry entry_of(const queue *q, int64_t p)
{
    const entry e = {q->rank ? q->rank[p] : -q->weights[p], p};
    return e;
}

/* Queue grid cell ``p`` unless it is queued or placed already. */
static void push(queue *q, int64_t p)
{
    if (q->rank) {
        const int64_t r = q->rank[p];
        q->bits[r >> 6] |= (uint64_t)1 << (r & 63);
        if (r >> 6 < q->word)
            q->word = r >> 6;
        return;
    }
    if (q->mark[p] & QUEUED)
        return;
    q->mark[p] |= QUEUED;
    const entry e = entry_of(q, p);
    int64_t i = q->size++;
    while (i > 0 && before(e, q->heap[(i - 1) / 2])) {
        q->heap[i] = q->heap[(i - 1) / 2];
        i = (i - 1) / 2;
    }
    q->heap[i] = e;
}

/* The smallest queued cell, removed; 0 when the queue is empty. */
static int pop(queue *q, entry *out)
{
    if (q->rank) {
        while (q->word < q->words && !q->bits[q->word])
            q->word++;
        if (q->word == q->words)
            return 0;
        uint64_t *w = q->bits + q->word;
        const int64_t r = (q->word << 6) + __builtin_ctzll(*w);
        *w &= *w - 1;
        out->key = r;
        out->id = q->cells[r];
        return 1;
    }
    if (q->size == 0)
        return 0;
    *out = q->heap[0];
    const entry e = q->heap[--q->size];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= q->size)
            break;
        if (c + 1 < q->size && before(q->heap[c + 1], q->heap[c]))
            c++;
        if (!before(q->heap[c], e))
            break;
        q->heap[i] = q->heap[c];
        i = c;
    }
    q->heap[i] = e;
    return 1;
}

int ivc_cone_walk(int64_t *starts, const int64_t *weights,
                  const int64_t *rank, const int64_t *cells, uint8_t *mark,
                  uint64_t *bits, int64_t words, int64_t *heap,
                  const int64_t *dirty, int64_t ndirty,
                  const int64_t *deltas, int64_t d,
                  int64_t budget, int64_t *stats)
{
    queue q = {rank, cells, weights, mark, bits, words, words, (entry *)heap, 0};
    int64_t placed = 0, changed = 0, keys = 0, last = 0;
    int64_t lo[MAX_DEGREE], hi[MAX_DEGREE];
    entry e = {0, 0};
    for (int64_t i = 0; i < ndirty; i++)
        mark[dirty[i]] |= DIRTY;
    /* A static order's predecessor sets never change: no ring. */
    for (int64_t i = 0; i < ndirty; i++)
        for (int64_t k = -1; k < (rank ? 0 : d); k++) {
            const int64_t p = dirty[i] + (k < 0 ? 0 : deltas[k]);
            if (!(mark[p] & BORDER))
                push(&q, p);
        }
    while (pop(&q, &e)) {
        if (++placed > budget)
            return 1;
        keys += placed == 1 || e.key != last;
        last = e.key;
        const int64_t p = e.id, w = weights[p];
        int64_t cur = 0;
        if (w > 0) {
            int m = 0;
            for (int64_t k = 0; k < d; k++) {
                const int64_t n = p + deltas[k];
                const int64_t s = starts[n], wn = weights[n];
                if (s == UNCOLORED || wn <= 0)
                    continue;
                if (!before(entry_of(&q, n), e))
                    continue; /* a successor: its start is not final */
                lo[m] = s;
                hi[m] = s + wn;
                m++;
            }
            cur = place(lo, hi, m, w);
        }
        const int shifted = cur != starts[p];
        changed += shifted;
        starts[p] = cur;
        if (shifted || (mark[p] & DIRTY))
            for (int64_t k = 0; k < d; k++) {
                const int64_t n = p + deltas[k];
                if (!(mark[n] & BORDER) && before(e, entry_of(&q, n)))
                    push(&q, n);
            }
    }
    stats[0] = placed;
    stats[1] = changed;
    stats[2] = keys;
    stats[3] = last;
    return 0;
}
