/* Adaptive Search lanes, compiled: whole walks between two Python events.
 *
 * repro/vector/native.py builds this file once per machine and loads it with
 * ctypes; repro/vector/engine.py advances a batch with one call, lanes_run,
 * which runs lock-step rounds until a lane solves or the span it was given
 * ends (a restart falls due, the budget ends, someone observes each round).
 * A lane's draws are made here, by that lane's own NumPy bit generator,
 * through the bitgen_t NumPy publishes for the purpose, at the scalar
 * loop's call sites and in its order.  What that welds to NumPy is one
 * algorithm, the bounded-integer map of Generator.integers (draw_below);
 * native.py checks it draw for draw before the library is used at all.
 * Everything works through raw pointers on NumPy arrays described by one
 * lane_block (mirrored field for field by native.LaneBlock), allocates
 * nothing and keeps nothing between calls; every quantity is an exact
 * 64-bit integer, so no instance size overflows or needs a mask.
 *
 * A lane's derived state is a pure function of its configuration row and
 * follows every swap incrementally; a row rewritten here (partial reset) is
 * rebuilt on the spot, one rewritten from Python (restart, a new batch
 * width) is flagged in dirty[] and rebuilt before it is next read:
 *
 *   magic square   the 2s + 2 line sums, less the magic constant
 *   all-interval   counts[v]: adjacent differences of absolute value v
 *   costas         counts[d][v + n - 1]: pairs at distance d differing by v
 *   linear         per row r of a declarative model whose every
 *                  constraint is a linear row with coefficients +-1 and
 *                  an integer right-hand side: its left-hand side, its
 *                  error, and a scratch for the selected variable's
 *                  coefficient on it
 *
 * An iteration prices the swap of the selected variable i with every
 * partner j, and every kind does i's side of that once, not once per j:
 *
 *   magic square   each partner in O(1) from i's row, column and diagonals
 *   all-interval   i's two differences leave their buckets once; per j
 *                  further than a neighbour, j's leave, the four new ones
 *                  arrive and all but i's departures are undone (a
 *                  neighbour shares a difference with i: moved pairwise)
 *   costas         every pair through i leaves once, its bucket kept per
 *                  third position p; per j, three moves a p and the flipped
 *                  pair (i, j), then all but i's departures are undone
 *   linear         row by row: on each of i's rows one branch-free pass
 *                  over every partner, then on every row its members'
 *                  corrections, the row's relation tested once
 *
 * A count table's cost is the sum over buckets of max(count - 1, 0); one
 * item leaving or arriving changes it by an exact -1 / 0 / +1 given the
 * counts of the moment, so the changes of any sequence of moves sum to the
 * final less the initial cost, whatever their order, and a probe is that
 * sum.  The linear kind reads a constant table shared by every lane of an
 * engine (per row its rhs and relation, per variable its rows and
 * coefficients, per row its variables and coefficients); a variable's
 * error is the sum of its rows' errors, and a swap of i and j moves each
 * row that touches them by (c_ri - c_rj)(v[j] - v[i]).
 *
 * Plain C99, one translation unit, no Python.h, built at -O3 (native.FLAGS).
 * Where the compiler is GCC 11.3 or later on x86-64 glibc (the #if before
 * lanes_run; earlier GCC 11 releases find no dispatcher for an x86-64-vN
 * clone), lanes_run carries flatten and target_clones: GCC inlines the
 * whole iteration into it and compiles that twice, for x86-64-v4 (AVX-512)
 * and for baseline, and the dynamic loader binds the v4 clone where the CPU
 * runs it and baseline elsewhere, once, at dlopen (an ifunc).  Without
 * flatten the callees would be compiled once, for baseline, and the clone
 * would gain nothing.  Every other compiler or platform builds the one
 * plain function.  What the wider clone changes is how many variables one
 * instruction covers in the O(n) passes (errors, deltas, the selection
 * maxima), never a result: every quantity is an exact integer, no pass
 * reassociates a floating-point sum, and nothing is built with
 * -ffast-math or -march=native (the cache is keyed by source and flags, so
 * a library built for this CPU could be loaded on an older one).
 */
#include <stdint.h>
#include <string.h>

enum { MAGIC_SQUARE = 0, ALL_INTERVAL = 1, COSTAS = 2, LINEAR = 3 };

/* rows of the engine's (7, m) counter array (engine._STAT_FIELDS) */
enum { SWAPS, PLATEAU, ACCEPTED, LOCAL_MIN, FROZEN, RESETS };

/* numpy/random/bitgen.h: what a BitGenerator's capsule points at */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *state);
    uint32_t (*next_uint32)(void *state);
    double (*next_double)(void *state);
    uint64_t (*next_raw)(void *state);
} bitgen_t;

typedef struct {
    /* shape: m lanes of n variables; order is the side of a magic square */
    int64_t kind, m, n, order, state_size;
    /* solver configuration, constant for an engine */
    int64_t plateau_is_local_min, freeze_swap, freeze_loc_min, reset_limit;
    int64_t reset_swaps;
    double prob_select_loc_min, target_cost;
    /* the engine's own arrays */
    int64_t *configs, *marks, *best_configs; /* (m, n) */
    int64_t *stats;                          /* (7, m) */
    double *cost, *best_cost;                /* (m,) */
    /* derived state, and which lanes must rebuild theirs */
    int64_t *state; /* (m, state_size) */
    int64_t *dirty; /* (m,) */
    /* constant for an engine: the LINEAR kind's table (see linear_view) */
    const int64_t *table;
    /* scratch (cand also holds costas' per-position buckets while a
     * lane's deltas are priced) */
    int64_t *err, *deltas, *cand; /* (m, n) */
    /* the last round, as an observer of it is told: swap partners tied for
     * the least delta (in cand) and the one drawn, at a local minimum?,
     * accepted?, the variable picked (-1: none, all frozen), the least
     * delta, took a partial reset? */
    int64_t *count, *local_min, *draw, *accept; /* (m,) */
    int64_t *i_sel, *delta, *resets;            /* (m,) */
    int64_t *bitgen; /* (m,): address of each lane's bitgen_t */
} lane_block;

int64_t lanes_block_size(void) { return (int64_t)sizeof(lane_block); }

static inline int64_t iabs(int64_t x) { return x < 0 ? -x : x; }

static inline void exchange(int64_t *v, int64_t i, int64_t j)
{
    const int64_t held = v[i];
    v[i] = v[j];
    v[j] = held;
}

/* ------------------------------------------------------------------ */
/* magic square                                                        */
/* ------------------------------------------------------------------ */
static void magic_rebuild(const int64_t *v, int64_t s, int64_t *line)
{
    const int64_t magic = s * (s * s + 1) / 2;
    for (int64_t t = 0; t < 2 * s + 2; t++)
        line[t] = -magic;
    for (int64_t r = 0; r < s; r++)
        for (int64_t c = 0; c < s; c++) {
            const int64_t x = v[r * s + c];
            line[r] += x;
            line[s + c] += x;
            if (r == c)
                line[2 * s] += x;
            if (r + c == s - 1)
                line[2 * s + 1] += x;
        }
}

static int64_t magic_cost(const int64_t *line, int64_t s)
{
    int64_t cost = 0;
    for (int64_t t = 0; t < 2 * s + 2; t++)
        cost += iabs(line[t]);
    return cost;
}

static void magic_errors(const int64_t *line, int64_t s, int64_t *err)
{
    const int64_t diag = iabs(line[2 * s]), anti = iabs(line[2 * s + 1]);
    for (int64_t r = 0; r < s; r++) {
        const int64_t row = iabs(line[r]);
        for (int64_t c = 0; c < s; c++)
            err[r * s + c] = row + iabs(line[s + c]);
        err[r * s + r] += diag;
        err[r * s + s - 1 - r] += anti;
    }
}

/* Swapping i and j moves dv = v[j] - v[i] into i's lines and out of j's; a
 * line through both keeps its sum.  Rows and columns first, without a
 * branch; then the two diagonals, which only change when exactly one of
 * the two cells is on them. */
static void magic_diagonal(const int64_t *v, int64_t sum, int64_t i_on,
                           int64_t first, int64_t step, int64_t s, int64_t vi,
                           int64_t *out)
{
    const int64_t was = iabs(sum);
    if (i_on) { /* every j off the line hands it dv */
        for (int64_t j = 0; j < s * s; j++)
            out[j] += iabs(sum + v[j] - vi) - was;
        for (int64_t t = 0, j = first; t < s; t++, j += step)
            out[j] -= iabs(sum + v[j] - vi) - was;
    } else { /* every j on the line takes dv out of it */
        for (int64_t t = 0, j = first; t < s; t++, j += step)
            out[j] += iabs(sum - v[j] + vi) - was;
    }
}

static void magic_deltas(const int64_t *v, const int64_t *line, int64_t s,
                         int64_t i, int64_t *out)
{
    const int64_t ri = i / s, ci = i % s, vi = v[i];
    const int64_t row_i = line[ri], col_i = line[s + ci];
    const int64_t *col = line + s;
    for (int64_t rj = 0; rj < s; rj++) {
        const int64_t row_j = line[rj], other_row = rj != ri;
        const int64_t rows_were = iabs(row_i) + iabs(row_j);
        const int64_t *vr = v + rj * s;
        int64_t *o = out + rj * s;
        for (int64_t cj = 0; cj < s; cj++) {
            const int64_t dv = vr[cj] - vi;
            o[cj] = other_row
                        * (iabs(row_i + dv) + iabs(row_j - dv) - rows_were)
                    + (cj != ci)
                          * (iabs(col_i + dv) + iabs(col[cj] - dv)
                             - iabs(col_i) - iabs(col[cj]));
        }
    }
    magic_diagonal(v, line[2 * s], ri == ci, 0, s + 1, s, vi, out);
    magic_diagonal(v, line[2 * s + 1], ri + ci == s - 1, s - 1, s - 1, s, vi,
                   out);
}

static void magic_swap(const int64_t *v, int64_t *line, int64_t s, int64_t i,
                       int64_t j)
{
    const int64_t ri = i / s, ci = i % s, rj = j / s, cj = j % s;
    const int64_t dv = v[j] - v[i];
    line[ri] += dv;
    line[rj] -= dv;
    line[s + ci] += dv;
    line[s + cj] -= dv;
    line[2 * s] += dv * ((ri == ci) - (rj == cj));
    line[2 * s + 1] += dv * ((ri + ci == s - 1) - (rj + cj == s - 1));
}

/* ------------------------------------------------------------------ */
/* count tables: cost = sum over buckets of max(count - 1, 0)           */
/* ------------------------------------------------------------------ */
static int64_t table_cost(const int64_t *counts, int64_t size)
{
    int64_t cost = 0;
    for (int64_t b = 0; b < size; b++)
        if (counts[b] > 1)
            cost += counts[b] - 1;
    return cost;
}

/* one item leaves bucket b, or arrives in it: the cost change, exact on
 * the counts of the moment, so that the changes of any sequence of moves
 * sum to the cost after it less the cost before it */
static inline int64_t table_leave(int64_t *counts, int64_t b)
{
    const int64_t change = -(counts[b] > 1);
    counts[b] -= 1;
    return change;
}

static inline int64_t table_arrive(int64_t *counts, int64_t b)
{
    const int64_t change = counts[b] >= 1;
    counts[b] += 1;
    return change;
}

/* one item leaves bucket `from` for bucket `to`: the cost change */
static inline int64_t table_move(int64_t *counts, int64_t from, int64_t to)
{
    const int64_t change = table_leave(counts, from);
    return change + table_arrive(counts, to);
}

/* ------------------------------------------------------------------ */
/* all-interval                                                        */
/* ------------------------------------------------------------------ */
static void interval_rebuild(const int64_t *v, int64_t n, int64_t *counts)
{
    memset(counts, 0, (size_t)n * sizeof(int64_t));
    for (int64_t d = 0; d + 1 < n; d++)
        counts[iabs(v[d + 1] - v[d])] += 1;
}

/* a position is in error once per adjacent difference that is duplicated */
static void interval_errors(const int64_t *v, const int64_t *counts, int64_t n,
                            int64_t *err)
{
    int64_t left = 0;
    for (int64_t d = 0; d + 1 < n; d++) {
        const int64_t dup = counts[iabs(v[d + 1] - v[d])] > 1;
        err[d] = left + dup;
        left = dup;
    }
    err[n - 1] = left;
}

/* Move the (at most four) differences next to i and j to the buckets they
 * fall in once v[i] and v[j] are swapped (v itself is not touched), or,
 * with undo set, back again.  Returns the cost change of the forward move. */
static int64_t interval_shift(const int64_t *v, int64_t *counts, int64_t n,
                              int64_t i, int64_t j, int undo)
{
    const int64_t slots[4] = {i - 1, i, j - 1, j};
    const int64_t vi = v[i], vj = v[j];
    int64_t change = 0;
    for (int t = 0; t < 4; t++) {
        const int64_t d = slots[t];
        if (d < 0 || d + 1 >= n || (t == 2 && d == slots[1])
            || (t == 3 && d == slots[0]))
            continue; /* off the series, or the slot between neighbours */
        const int64_t lo = d == i ? vj : d == j ? vi : v[d];
        const int64_t hi = d + 1 == i ? vj : d + 1 == j ? vi : v[d + 1];
        const int64_t before = iabs(v[d + 1] - v[d]), after = iabs(hi - lo);
        if (before == after)
            continue;
        change += undo ? table_move(counts, after, before)
                       : table_move(counts, before, after);
    }
    return change;
}

/* Deltas of swapping i with every j.  A neighbour of i shares a difference
 * with it: interval_shift prices it on the untouched counts.  Then i's
 * differences leave their buckets, once; per partner j further away, j's
 * differences leave, the four new ones arrive (v[j] beside i's neighbours,
 * v[i] beside j's) and all but i's departures are undone.  Entry i is 0. */
static void interval_deltas(const int64_t *v, int64_t *counts, int64_t n,
                            int64_t i, int64_t *out)
{
    const int64_t vi = v[i], has_l = i > 0, has_r = i + 1 < n;
    const int64_t vl = has_l ? v[i - 1] : 0, vr = has_r ? v[i + 1] : 0;
    int64_t gone = 0;
    out[i] = 0;
    for (int64_t j = i - 1; j <= i + 1; j += 2)
        if (j >= 0 && j < n) {
            out[j] = interval_shift(v, counts, n, i, j, 0);
            interval_shift(v, counts, n, i, j, 1);
        }
    if (has_l)
        gone += table_leave(counts, iabs(vi - vl));
    if (has_r)
        gone += table_leave(counts, iabs(vr - vi));
    for (int64_t j = 0; j < n; j++) {
        if (j >= i - 1 && j <= i + 1)
            continue;
        const int64_t vj = v[j], has_jl = j > 0, has_jr = j + 1 < n;
        const int64_t jl = has_jl ? v[j - 1] : 0, jr = has_jr ? v[j + 1] : 0;
        int64_t delta = gone;
        if (has_jl)
            delta += table_leave(counts, iabs(vj - jl));
        if (has_jr)
            delta += table_leave(counts, iabs(jr - vj));
        if (has_l)
            delta += table_arrive(counts, iabs(vj - vl));
        if (has_r)
            delta += table_arrive(counts, iabs(vr - vj));
        if (has_jl)
            delta += table_arrive(counts, iabs(vi - jl));
        if (has_jr)
            delta += table_arrive(counts, iabs(jr - vi));
        out[j] = delta;
        if (has_jl) {
            counts[iabs(vj - jl)] += 1;
            counts[iabs(vi - jl)] -= 1;
        }
        if (has_jr) {
            counts[iabs(jr - vj)] += 1;
            counts[iabs(jr - vi)] -= 1;
        }
        if (has_l)
            counts[iabs(vj - vl)] -= 1;
        if (has_r)
            counts[iabs(vr - vj)] -= 1;
    }
    if (has_l)
        counts[iabs(vi - vl)] += 1;
    if (has_r)
        counts[iabs(vr - vi)] += 1;
}

/* ------------------------------------------------------------------ */
/* costas                                                              */
/* ------------------------------------------------------------------ */
static void costas_rebuild(const int64_t *v, int64_t n, int64_t *counts)
{
    const int64_t width = 2 * n - 1, off = n - 1;
    memset(counts, 0, (size_t)(n * width) * sizeof(int64_t));
    for (int64_t d = 1; d < n; d++)
        for (int64_t a = 0; a + d < n; a++)
            counts[d * width + off + v[a + d] - v[a]] += 1;
}

static void costas_errors(const int64_t *v, const int64_t *counts, int64_t n,
                          int64_t *err)
{
    const int64_t width = 2 * n - 1, off = n - 1;
    memset(err, 0, (size_t)n * sizeof(int64_t));
    for (int64_t d = 1; d < n; d++)
        for (int64_t a = 0; a + d < n; a++)
            if (counts[d * width + off + v[a + d] - v[a]] > 1) {
                err[a] += 1;
                err[a + d] += 1;
            }
}

/* Move every difference that involves position i or j to the bucket it
 * falls in once v[i] and v[j] are swapped (v itself is not touched): the
 * 2(n - 2) pairs with a third position p, then the pair (i, j) itself,
 * whose difference changes sign. */
static void costas_shift(const int64_t *v, int64_t *counts, int64_t n,
                         int64_t i, int64_t j)
{
    const int64_t width = 2 * n - 1, off = n - 1;
    const int64_t vi = v[i], vj = v[j];
    const int64_t lo = i < j ? i : j, hi = i < j ? j : i;
#define MOVE(distance, before, after)                                        \
    table_move(counts + (distance) * width + off, (before), (after))
    for (int64_t p = 0; p < n; p++) {
        if (p == i || p == j)
            continue;
        const int64_t vp = v[p];
        if (p > i)
            MOVE(p - i, vp - vi, vp - vj);
        else
            MOVE(i - p, vi - vp, vj - vp);
        if (p > j)
            MOVE(p - j, vp - vj, vp - vi);
        else
            MOVE(j - p, vj - vp, vi - vp);
    }
    MOVE(hi - lo, v[hi] - v[lo], v[lo] - v[hi]);
#undef MOVE
}

/* The pairs (p, i) and (p, j) for p in [from, to), on one side of i (si:
 * +1 above it, -1 below) and of j (sj): the bucket of (p, i) when i holds
 * x is at[p] - si x, that of (p, j) when j holds y is row - sj y.  Forward,
 * (p, j) leaves and the moved (p, i) and (p, j) arrive, returning the cost
 * change; with undo set, the three are undone. */
static inline int64_t costas_span(const int64_t *v, int64_t *counts,
                                  const int64_t *at, int64_t from, int64_t to,
                                  int64_t si, int64_t sj, int64_t j,
                                  int64_t vi, int64_t vj, int64_t width,
                                  int64_t off, int undo)
{
    const int64_t i_gets = si * vj, j_had = sj * vj, j_gets = sj * vi;
    int64_t change = 0;
    for (int64_t p = from; p < to; p++) {
        const int64_t row = off + sj * ((p - j) * width + v[p]);
        if (undo) {
            counts[row - j_had] += 1;
            counts[at[p] - i_gets] -= 1;
            counts[row - j_gets] -= 1;
        } else {
            change += table_leave(counts, row - j_had);
            change += table_arrive(counts, at[p] - i_gets);
            change += table_arrive(counts, row - j_gets);
        }
    }
    return change;
}

/* Deltas of swapping i with every j.  Every pair (p, i) leaves its bucket
 * once, and at[p] keeps that bucket's row, offset by p's value and signed
 * as the pair's difference (at[] is the lane's candidate scratch, free
 * while pricing runs).  Per partner j: for every third p, three moves
 * (costas_span), then the flipped (i, j) arrives, and everything but i's
 * departures is undone.  Entry i is 0. */
static void costas_deltas(const int64_t *v, int64_t *counts, int64_t n,
                          int64_t i, int64_t *at, int64_t *out)
{
    const int64_t width = 2 * n - 1, off = n - 1, vi = v[i];
    int64_t gone = 0;
    for (int64_t p = 0; p < i; p++) {
        at[p] = (i - p) * width + off - v[p];
        gone += table_leave(counts, at[p] + vi);
    }
    for (int64_t p = i + 1; p < n; p++) {
        at[p] = (p - i) * width + off + v[p];
        gone += table_leave(counts, at[p] - vi);
    }
    out[i] = 0;
    for (int64_t j = 0; j < n; j++) {
        if (j == i)
            continue;
        const int64_t vj = v[j], lo = i < j ? i : j, hi = i < j ? j : i;
        const int64_t s = j > i ? 1 : -1; /* j's side of i */
        const int64_t flip = at[j] + s * (vi - 2 * vj);
        int64_t delta = gone;
        delta += costas_span(v, counts, at, 0, lo, -1, -1, j, vi, vj, width,
                             off, 0);
        delta += costas_span(v, counts, at, lo + 1, hi, s, -s, j, vi, vj,
                             width, off, 0);
        delta += costas_span(v, counts, at, hi + 1, n, 1, 1, j, vi, vj, width,
                             off, 0);
        delta += table_arrive(counts, flip);
        out[j] = delta;
        costas_span(v, counts, at, 0, lo, -1, -1, j, vi, vj, width, off, 1);
        costas_span(v, counts, at, lo + 1, hi, s, -s, j, vi, vj, width, off,
                    1);
        costas_span(v, counts, at, hi + 1, n, 1, 1, j, vi, vj, width, off, 1);
        counts[flip] -= 1;
    }
    for (int64_t p = 0; p < i; p++)
        counts[at[p] + vi] += 1;
    for (int64_t p = i + 1; p < n; p++)
        counts[at[p] - vi] += 1;
}

/* ------------------------------------------------------------------ */
/* linear rows: a declarative model of +-1 rows                        */
/* ------------------------------------------------------------------ */

/* relations, in csp.constraints.Relation's order */
enum { EQ, NE, LE, LT, GE, GT };

/* The table, one int64 array (csp.model.Model.unit_linear_table):
 * [rows, rhs[rows], relation[rows], start[n + 1], row[nnz], coef[nnz],
 *  rstart[rows + 1], var[nnz], rcoef[nnz]];
 * variable x is in rows row[start[x] .. start[x + 1]), with coefficients
 * coef[...] of +-1, and row r holds variables var[rstart[r] ..
 * rstart[r + 1]), with coefficients rcoef[...]: the same entries, by
 * variable and by row. */
typedef struct {
    const int64_t *rhs, *relation, *start, *row, *coef;
    const int64_t *rstart, *var, *rcoef;
    int64_t rows;
} linear_table;

static linear_table linear_view(const int64_t *table, int64_t n)
{
    linear_table t;
    t.rows = table[0];
    t.rhs = table + 1;
    t.relation = t.rhs + t.rows;
    t.start = t.relation + t.rows;
    t.row = t.start + n + 1;
    t.coef = t.row + t.start[n];
    t.rstart = t.coef + t.start[n];
    t.var = t.rstart + t.rows + 1;
    t.rcoef = t.var + t.start[n];
    return t;
}

/* csp.error_functions, for a left-hand side d above the right-hand side.
 * Equality, the relation of every row of a magic square, is tested before
 * the switch: a predictable branch where the switch is an indirect jump
 * (and, for a constant relation, the whole body folds to one case). */
static inline int64_t relation_error(int64_t relation, int64_t d)
{
    if (relation == EQ)
        return iabs(d);
    switch (relation) {
    case NE: return d == 0;
    case LE: return d > 0 ? d : 0;
    case LT: return d >= 0 ? d + 1 : 0;
    case GE: return d < 0 ? -d : 0;
    default: return d <= 0 ? 1 - d : 0; /* GT */
    }
}

static inline int64_t row_error(const linear_table *t, int64_t r, int64_t lhs)
{
    return relation_error(t->relation[r], lhs - t->rhs[r]);
}

/* A lane's state is three rows-long vectors: lhs, the rows' errors, and a
 * scratch that holds the selected variable's coefficient per row while its
 * deltas are priced (zero otherwise). */
static void linear_rebuild(const int64_t *v, const linear_table *t, int64_t n,
                           int64_t *lhs)
{
    int64_t *err = lhs + t->rows;
    memset(lhs, 0, (size_t)(3 * t->rows) * sizeof(int64_t));
    for (int64_t x = 0; x < n; x++)
        for (int64_t k = t->start[x]; k < t->start[x + 1]; k++)
            lhs[t->row[k]] += t->coef[k] * v[x];
    for (int64_t r = 0; r < t->rows; r++)
        err[r] = row_error(t, r, lhs[r]);
}

static int64_t linear_cost(const int64_t *lhs, const linear_table *t)
{
    const int64_t *err = lhs + t->rows;
    int64_t cost = 0;
    for (int64_t r = 0; r < t->rows; r++)
        cost += err[r];
    return cost;
}

static void linear_errors(const int64_t *lhs, const linear_table *t,
                          int64_t n, int64_t *out)
{
    const int64_t *err = lhs + t->rows;
    for (int64_t x = 0; x < n; x++) {
        int64_t e = 0;
        for (int64_t k = t->start[x]; k < t->start[x + 1]; k++)
            e += err[t->row[k]];
        out[x] = e;
    }
}

/* Row r's share of every delta, for one relation (a constant where it is
 * called, so each copy is one case).  Swapping i and j moves r by
 * (c - c_rj) dv_j, with c = c_ri and dv_j = v[j] - v[i] (a coefficient is
 * 0 off the row).  On a row of i, every partner is first priced as if it
 * were off r, in one branch-free pass; then each member x of r replaces
 * that guess (no change where c = 0) with its own coefficient. */
static inline void linear_row_deltas(int64_t relation, const int64_t *v,
                                     const linear_table *t, int64_t r,
                                     int64_t d, int64_t c, int64_t n,
                                     int64_t vi, int64_t *out)
{
    if (c) {
        const int64_t was = relation_error(relation, d);
        for (int64_t j = 0; j < n; j++)
            out[j] += relation_error(relation, d + c * (v[j] - vi)) - was;
    }
    for (int64_t k = t->rstart[r]; k < t->rstart[r + 1]; k++) {
        const int64_t x = t->var[k], dv = v[x] - vi;
        out[x] += relation_error(relation, d + (c - t->rcoef[k]) * dv)
                  - relation_error(relation, d + c * dv);
    }
}

/* Deltas of swapping i with every j, row by row, the relation tested once
 * a row.  Entry i comes out 0 (dv = 0). */
static void linear_deltas(const int64_t *v, int64_t *lhs,
                          const linear_table *t, int64_t n, int64_t i,
                          int64_t *out)
{
    const int64_t i_first = t->start[i], i_end = t->start[i + 1], vi = v[i];
    int64_t *ci = lhs + 2 * t->rows;
    memset(out, 0, (size_t)n * sizeof(int64_t));
    for (int64_t a = i_first; a < i_end; a++)
        ci[t->row[a]] = t->coef[a];
    for (int64_t r = 0; r < t->rows; r++) {
        const int64_t d = lhs[r] - t->rhs[r], c = ci[r];
        switch (t->relation[r]) {
        case EQ: linear_row_deltas(EQ, v, t, r, d, c, n, vi, out); break;
        case NE: linear_row_deltas(NE, v, t, r, d, c, n, vi, out); break;
        case LE: linear_row_deltas(LE, v, t, r, d, c, n, vi, out); break;
        case LT: linear_row_deltas(LT, v, t, r, d, c, n, vi, out); break;
        case GE: linear_row_deltas(GE, v, t, r, d, c, n, vi, out); break;
        default: linear_row_deltas(GT, v, t, r, d, c, n, vi, out); break;
        }
    }
    for (int64_t a = i_first; a < i_end; a++)
        ci[t->row[a]] = 0;
}

static void linear_swap(const int64_t *v, int64_t *lhs, const linear_table *t,
                        int64_t i, int64_t j)
{
    const int64_t dv = v[j] - v[i];
    int64_t *err = lhs + t->rows;
    for (int64_t k = t->start[i]; k < t->start[i + 1]; k++)
        lhs[t->row[k]] += t->coef[k] * dv;
    for (int64_t k = t->start[j]; k < t->start[j + 1]; k++)
        lhs[t->row[k]] -= t->coef[k] * dv;
    for (int64_t k = t->start[i]; k < t->start[i + 1]; k++)
        err[t->row[k]] = row_error(t, t->row[k], lhs[t->row[k]]);
    for (int64_t k = t->start[j]; k < t->start[j + 1]; k++)
        err[t->row[k]] = row_error(t, t->row[k], lhs[t->row[k]]);
}

/* ------------------------------------------------------------------ */
/* one lane, whatever the family                                       */
/* ------------------------------------------------------------------ */
static void lane_rebuild(const lane_block *b, int64_t l)
{
    const int64_t *v = b->configs + l * b->n;
    int64_t *state = b->state + l * b->state_size;
    switch (b->kind) {
    case MAGIC_SQUARE: magic_rebuild(v, b->order, state); break;
    case ALL_INTERVAL: interval_rebuild(v, b->n, state); break;
    case LINEAR: {
        const linear_table t = linear_view(b->table, b->n);
        linear_rebuild(v, &t, b->n, state);
        break;
    }
    default: costas_rebuild(v, b->n, state); break;
    }
    b->dirty[l] = 0;
}

/* rebuild a lane's state from its configuration row and write its cost */
static void lane_recost(const lane_block *b, int64_t l)
{
    const int64_t *state = b->state + l * b->state_size;
    int64_t cost;
    lane_rebuild(b, l);
    switch (b->kind) {
    case MAGIC_SQUARE: cost = magic_cost(state, b->order); break;
    case LINEAR: {
        const linear_table t = linear_view(b->table, b->n);
        cost = linear_cost(state, &t);
        break;
    }
    default: cost = table_cost(state, b->state_size); break;
    }
    b->cost[l] = (double)cost;
}

static void lane_errors(const lane_block *b, int64_t l)
{
    const int64_t *v = b->configs + l * b->n;
    const int64_t *state = b->state + l * b->state_size;
    int64_t *err = b->err + l * b->n;
    if (b->dirty[l])
        lane_rebuild(b, l);
    switch (b->kind) {
    case MAGIC_SQUARE: magic_errors(state, b->order, err); break;
    case ALL_INTERVAL: interval_errors(v, state, b->n, err); break;
    case LINEAR: {
        const linear_table t = linear_view(b->table, b->n);
        linear_errors(state, &t, b->n, err);
        break;
    }
    default: costas_errors(v, state, b->n, err); break;
    }
}

/* deltas of swapping i with every j; entry i comes out 0 */
static void lane_deltas(const lane_block *b, int64_t l, int64_t i)
{
    const int64_t n = b->n;
    const int64_t *v = b->configs + l * n;
    int64_t *state = b->state + l * b->state_size;
    int64_t *out = b->deltas + l * n;
    switch (b->kind) {
    case MAGIC_SQUARE: magic_deltas(v, state, b->order, i, out); break;
    case ALL_INTERVAL: interval_deltas(v, state, n, i, out); break;
    case LINEAR: {
        const linear_table t = linear_view(b->table, n);
        linear_deltas(v, state, &t, n, i, out);
        break;
    }
    default: costas_deltas(v, state, n, i, b->cand + l * n, out); break;
    }
}

/* swap v[i] and v[j], the state following */
static void lane_swap(const lane_block *b, int64_t l, int64_t i, int64_t j)
{
    int64_t *v = b->configs + l * b->n;
    int64_t *state = b->state + l * b->state_size;
    switch (b->kind) {
    case MAGIC_SQUARE: magic_swap(v, state, b->order, i, j); break;
    case ALL_INTERVAL: interval_shift(v, state, b->n, i, j, 0); break;
    case LINEAR: {
        const linear_table t = linear_view(b->table, b->n);
        linear_swap(v, state, &t, i, j);
        break;
    }
    default: costas_shift(v, state, b->n, i, j); break;
    }
    exchange(v, i, j);
}

/* ------------------------------------------------------------------ */
/* the kernels one at a time (CompiledLanes.errors / deltas, tests)    */
/* ------------------------------------------------------------------ */

void lanes_costs(const lane_block *b)
{
    for (int64_t l = 0; l < b->m; l++)
        lane_recost(b, l);
}

void lanes_errors(const lane_block *b)
{
    for (int64_t l = 0; l < b->m; l++)
        lane_errors(b, l);
}

void lanes_deltas(const lane_block *b)
{
    for (int64_t l = 0; l < b->m; l++) {
        if (b->dirty[l])
            lane_rebuild(b, l);
        lane_deltas(b, l, b->i_sel[l]);
    }
}

/* ------------------------------------------------------------------ */
/* the draws                                                           */
/* ------------------------------------------------------------------ */

/* Generator.integers(0, count), 1 <= count < 2^32, draw for draw: NumPy's
 * buffered_bounded_lemire_uint32 over the generator's own next_uint32
 * (Lemire's multiply-and-reject); a range of one draws nothing. */
static inline int64_t draw_below(const bitgen_t *g, int64_t count)
{
    const uint32_t range = (uint32_t)count;
    if (count <= 1)
        return 0;
    uint64_t scaled = (uint64_t)g->next_uint32(g->state) * range;
    if ((uint32_t)scaled < range) {
        const uint32_t threshold = (UINT32_MAX - (range - 1)) % range;
        while ((uint32_t)scaled < threshold)
            scaled = (uint64_t)g->next_uint32(g->state) * range;
    }
    return (int64_t)(scaled >> 32);
}

/* The map on its own (native.py's handshake, tests): per entry of counts,
 * integers(0, count), or random() where count is 0. */
void lanes_draws(const bitgen_t *g, const int64_t *counts, double *out,
                 int64_t n)
{
    for (int64_t k = 0; k < n; k++)
        out[k] = counts[k] ? (double)draw_below(g, counts[k])
                           : g->next_double(g->state);
}

/* ------------------------------------------------------------------ */
/* the walk                                                            */
/* ------------------------------------------------------------------ */

/* The scalar partial reset: reset_swaps random transpositions, two bounded
 * draws each (csp.permutation.random_partial_reset), then the counter,
 * cleared marks, and the state and the cost of the new row. */
static void lane_reset(const lane_block *b, int64_t l, const bitgen_t *g)
{
    const int64_t n = b->n;
    int64_t *v = b->configs + l * n;
    for (int64_t s = 0; s < b->reset_swaps; s++) {
        const int64_t i = draw_below(g, n);
        exchange(v, i, draw_below(g, n));
    }
    b->stats[RESETS * b->m + l] += 1;
    memset(b->marks + l * n, 0, (size_t)n * sizeof(int64_t));
    lane_recost(b, l);
    b->resets[l] = 1;
}

/* Iteration `it` of lane l, in the scalar loop's order. */
static void lane_iterate(const lane_block *b, int64_t l, int64_t it)
{
    const int64_t n = b->n, m = b->m;
    const bitgen_t *g = (const bitgen_t *)(intptr_t)b->bitgen[l];
    const int64_t *err = b->err + l * n, *deltas = b->deltas + l * n;
    int64_t *marks = b->marks + l * n, *cand = b->cand + l * n;
    int64_t *stats = b->stats + l;
    int64_t worst = -1, best = INT64_MAX, c = 0;

    /* the worst variable that is not frozen, a tie broken by one draw: the
     * masked max, branch-free so that it vectorises, then the variables
     * that reach it, in index order (the candidates and their order of a
     * one-pass scan, so the draw picks the same one) */
    b->resets[l] = b->accept[l] = b->local_min[l] = 0;
    lane_errors(b, l);
    for (int64_t x = 0; x < n; x++) {
        const int64_t e = marks[x] < it ? err[x] : -1;
        worst = e > worst ? e : worst;
    }
    for (int64_t x = 0; x < n; x++) {
        cand[c] = x;
        c += (marks[x] < it) & (err[x] == worst);
    }
    if (c == 0) { /* frozen solid: a reset, and no best-tracking */
        b->i_sel[l] = -1;
        lane_reset(b, l, g);
        return;
    }
    const int64_t i = b->i_sel[l] = cand[draw_below(g, c)];

    /* its best swap (never with itself), likewise: the least delta before
     * i and after it, then the partners that reach it */
    lane_deltas(b, l, i);
    for (int64_t j = 0; j < i; j++)
        best = deltas[j] < best ? deltas[j] : best;
    for (int64_t j = i + 1; j < n; j++)
        best = deltas[j] < best ? deltas[j] : best;
    c = 0;
    for (int64_t j = 0; j < n; j++) {
        cand[c] = j;
        c += (j != i) & (deltas[j] == best);
    }
    b->count[l] = c;
    b->delta[l] = best;
    const int64_t j = cand[b->draw[l] = draw_below(g, c)];

    /* freeze marks and counters; at a local minimum the acceptance draw,
     * and a refused one with too many variables frozen resets */
    int moved = b->plateau_is_local_min ? best < 0 : best <= 0;
    if (moved && b->freeze_swap > 0)
        marks[i] = it + b->freeze_swap;
    if (!moved) {
        b->local_min[l] = 1;
        stats[LOCAL_MIN * m] += 1;
        stats[FROZEN * m] += 1;
        marks[i] = it + b->freeze_loc_min;
        if (g->next_double(g->state) < b->prob_select_loc_min) {
            b->accept[l] = moved = 1;
            stats[ACCEPTED * m] += 1;
        } else {
            int64_t frozen = 0;
            for (int64_t x = 0; x < n; x++)
                frozen += marks[x] > it;
            if (frozen > b->reset_limit)
                lane_reset(b, l, g);
        }
    }
    if (moved) {
        stats[SWAPS * m] += 1;
        stats[PLATEAU * m] += best == 0;
        if (b->freeze_swap > 0)
            marks[j] = it + b->freeze_swap;
        lane_swap(b, l, i, j);
        b->cost[l] += (double)best;
    }
    if (b->cost[l] < b->best_cost[l]) {
        b->best_cost[l] = b->cost[l];
        memcpy(b->best_configs + l * n, b->configs + l * n,
               (size_t)n * sizeof(int64_t));
    }
}

/* Lock-step rounds from iteration `it` on: every lane runs one iteration a
 * round, until the round in which a lane reaches target_cost or for
 * `rounds` rounds.  Returns how many were run.  A v4 clone and a baseline
 * one (see the header); __GLIBC__ comes from the headers included above. */
#if defined(__GNUC__) && !defined(__clang__) \
    && (__GNUC__ > 11 || (__GNUC__ == 11 && __GNUC_MINOR__ >= 3)) \
    && defined(__x86_64__) && defined(__GLIBC__)
__attribute__((flatten, target_clones("arch=x86-64-v4", "default")))
#endif
int64_t lanes_run(const lane_block *b, int64_t it, int64_t rounds)
{
    int64_t done = 0;
    for (int solved = 0; done < rounds && !solved; done++)
        for (int64_t l = 0; l < b->m; l++) {
            lane_iterate(b, l, it + done);
            solved |= b->cost[l] <= b->target_cost;
        }
    return done;
}
