/* One lock-step round of Adaptive Search lanes, compiled.
 *
 * repro/vector/native.py builds this file once per machine and loads it with
 * ctypes; repro/vector/engine.py runs a round as three calls into it
 * (lanes_worst, lanes_best_swap, lanes_apply) and makes every random draw
 * itself, between the calls, on the lane's own NumPy generator: this file
 * draws nothing.  It works through raw pointers on NumPy arrays described by
 * one lane_block (mirrored field for field by native.LaneBlock), allocates
 * nothing and keeps nothing between calls; every quantity is an exact 64-bit
 * integer, so no instance size overflows or needs a mask.
 *
 * A lane's derived state is a pure function of its configuration row and
 * follows every swap incrementally (lanes_apply); a row rewritten behind the
 * kernels' back (partial reset, restart, a new batch width) is flagged in
 * dirty[] and rebuilt before it is next read:
 *
 *   magic square   the 2s + 2 line sums, less the magic constant
 *   all-interval   counts[v]: adjacent differences of absolute value v
 *   costas         counts[d][v + n - 1]: pairs at distance d differing by v
 *
 * The two count-table families price a swap by moving the differences it
 * changes between buckets (each single move changes the cost by an exact
 * -1 / 0 / +1) and, for a probe, moving them back.
 *
 * Plain C99, one translation unit, no Python.h.
 */
#include <stdint.h>
#include <string.h>

enum { MAGIC_SQUARE = 0, ALL_INTERVAL = 1, COSTAS = 2 };

/* rows of the engine's (7, m) counter array (engine._STAT_FIELDS) */
enum { SWAPS, PLATEAU, ACCEPTED, LOCAL_MIN, FROZEN };

/* why lanes_apply hands a lane back for a partial reset */
enum { NO_RESET = 0, ALL_FROZEN = 1, REJECTED = 2 };

typedef struct {
    /* shape: m lanes of n variables; order is the side of a magic square */
    int64_t kind, m, n, order, state_size;
    /* solver configuration, constant for an engine */
    int64_t plateau_is_local_min, freeze_swap, freeze_loc_min, reset_limit;
    /* the engine's own arrays */
    int64_t *configs, *marks, *best_configs; /* (m, n) */
    int64_t *stats;                          /* (7, m) */
    double *cost, *best_cost;                /* (m,) */
    /* derived state, and which lanes must rebuild theirs */
    int64_t *state; /* (m, state_size) */
    int64_t *dirty; /* (m,) */
    /* scratch */
    int64_t *err, *deltas, *cand; /* (m, n) */
    /* out: candidates tied for the extremum; local-minimum flag */
    int64_t *count, *local_min; /* (m,) */
    /* in: the tied lanes' draws; the local-minimum lanes' acceptance */
    int64_t *draw, *accept; /* (m,) */
    int64_t *i_sel, *delta, *resets; /* (m,) */
} lane_block;

int64_t lanes_block_size(void) { return (int64_t)sizeof(lane_block); }

static inline int64_t iabs(int64_t x) { return x < 0 ? -x : x; }

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

/* one item leaves bucket `from` for bucket `to`: the cost change */
static inline int64_t table_move(int64_t *counts, int64_t from, int64_t to)
{
    int64_t change = -(counts[from] > 1);
    counts[from] -= 1;
    change += counts[to] >= 1;
    counts[to] += 1;
    return change;
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
 * falls in once v[i] and v[j] are swapped (v itself is not touched), or,
 * with undo set, back again: the 2(n - 2) pairs with a third position p,
 * then the pair (i, j) itself, whose difference changes sign.  Returns the
 * cost change of the forward move. */
static int64_t costas_shift(const int64_t *v, int64_t *counts, int64_t n,
                            int64_t i, int64_t j, int undo)
{
    const int64_t width = 2 * n - 1, off = n - 1;
    const int64_t vi = v[i], vj = v[j];
    const int64_t lo = i < j ? i : j, hi = i < j ? j : i;
    int64_t change = 0;
#define MOVE(distance, before, after)                                        \
    do {                                                                     \
        int64_t *row = counts + (distance) * width + off;                    \
        change += undo ? table_move(row, (after), (before))                  \
                       : table_move(row, (before), (after));                 \
    } while (0)
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
    return change;
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
    default: costas_rebuild(v, b->n, state); break;
    }
    b->dirty[l] = 0;
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
    if (b->kind == MAGIC_SQUARE) {
        magic_deltas(v, state, b->order, i, out);
        return;
    }
    for (int64_t j = 0; j < n; j++) {
        if (j == i) {
            out[j] = 0;
        } else if (b->kind == ALL_INTERVAL) {
            out[j] = interval_shift(v, state, n, i, j, 0);
            interval_shift(v, state, n, i, j, 1);
        } else {
            out[j] = costas_shift(v, state, n, i, j, 0);
            costas_shift(v, state, n, i, j, 1);
        }
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
    default: costas_shift(v, state, b->n, i, j, 0); break;
    }
    const int64_t held = v[i];
    v[i] = v[j];
    v[j] = held;
}

/* ------------------------------------------------------------------ */
/* the kernels one at a time (VectorProblem protocol, tests)           */
/* ------------------------------------------------------------------ */

/* rebuild every lane's state and write its cost */
void lanes_costs(const lane_block *b)
{
    for (int64_t l = 0; l < b->m; l++) {
        const int64_t *state = b->state + l * b->state_size;
        lane_rebuild(b, l);
        b->cost[l] = (double)(b->kind == MAGIC_SQUARE
                                  ? magic_cost(state, b->order)
                                  : table_cost(state, b->state_size));
    }
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
/* the round                                                           */
/* ------------------------------------------------------------------ */

/* Call 1: errors, then the variables tied for the worst error among those
 * not frozen at iteration `it`, ascending, in cand[l]; count[l] of them
 * (0: every variable of the lane is frozen).  Python draws
 * integers(0, count) for a lane with count > 1 into draw[l]. */
void lanes_worst(const lane_block *b, int64_t it)
{
    const int64_t n = b->n;
    for (int64_t l = 0; l < b->m; l++) {
        const int64_t *err = b->err + l * n, *marks = b->marks + l * n;
        int64_t *cand = b->cand + l * n;
        int64_t worst = -1, c = 0;
        lane_errors(b, l);
        for (int64_t x = 0; x < n; x++) {
            if (marks[x] >= it)
                continue;
            if (err[x] > worst) {
                worst = err[x];
                c = 0;
            }
            if (err[x] == worst)
                cand[c++] = x;
        }
        b->count[l] = c;
    }
}

/* Call 2: settle the worst variable i (i_sel[l]; -1 for a lane with every
 * variable frozen, which selects nothing), then its deltas, the swap
 * partners tied for the least, ascending, in cand[l], count[l] of them,
 * the least delta in delta[l] and whether it makes the lane a local
 * minimum.  Python draws integers(0, count) for a lane with count > 1 into
 * draw[l], then random() for a local-minimum lane into accept[l]. */
void lanes_best_swap(const lane_block *b)
{
    const int64_t n = b->n;
    for (int64_t l = 0; l < b->m; l++) {
        const int64_t *deltas = b->deltas + l * n;
        int64_t *cand = b->cand + l * n;
        int64_t c = b->count[l], best = INT64_MAX;
        if (c == 0) {
            b->i_sel[l] = -1;
            b->local_min[l] = 0;
            continue;
        }
        const int64_t i = cand[c > 1 ? b->draw[l] : 0];
        b->i_sel[l] = i;
        lane_deltas(b, l, i);
        c = 0;
        for (int64_t j = 0; j < n; j++) {
            if (j == i)
                continue;
            if (deltas[j] < best) {
                best = deltas[j];
                c = 0;
            }
            if (deltas[j] == best)
                cand[c++] = j;
        }
        b->count[l] = c;
        b->delta[l] = best;
        b->local_min[l] = b->plateau_is_local_min ? best >= 0 : best > 0;
    }
}

/* Call 3: the rest of iteration `it`, in the scalar loop's order — freeze
 * marks, counters, the executed swaps (improving, or a local minimum Python
 * accepted) with the state and the cost following, best-so-far.  A lane
 * that must take a partial reset is named in resets[l] (ALL_FROZEN, or
 * REJECTED: a refused local minimum with more than reset_limit variables
 * frozen) and left to Python, which draws for it; its best-so-far waits for
 * the reset.  Returns how many there are. */
int64_t lanes_apply(const lane_block *b, int64_t it)
{
    const int64_t n = b->n, m = b->m;
    int64_t n_resets = 0;
    for (int64_t l = 0; l < m; l++) {
        const int64_t i = b->i_sel[l], delta = b->delta[l];
        int64_t *marks = b->marks + l * n, *stats = b->stats + l;
        int moved = !b->local_min[l];
        b->resets[l] = NO_RESET;
        if (i < 0) {
            b->resets[l] = ALL_FROZEN;
            n_resets++;
            continue;
        }
        if (moved && b->freeze_swap > 0)
            marks[i] = it + b->freeze_swap;
        if (!moved) {
            stats[LOCAL_MIN * m] += 1;
            stats[FROZEN * m] += 1;
            marks[i] = it + b->freeze_loc_min;
            if (b->accept[l]) {
                moved = 1;
                stats[ACCEPTED * m] += 1;
            } else {
                int64_t frozen = 0;
                for (int64_t x = 0; x < n; x++)
                    frozen += marks[x] > it;
                if (frozen > b->reset_limit) {
                    b->resets[l] = REJECTED;
                    n_resets++;
                    continue;
                }
            }
        }
        if (moved) {
            const int64_t j =
                b->cand[l * n + (b->count[l] > 1 ? b->draw[l] : 0)];
            stats[SWAPS * m] += 1;
            stats[PLATEAU * m] += delta == 0;
            if (b->freeze_swap > 0)
                marks[j] = it + b->freeze_swap;
            lane_swap(b, l, i, j);
            b->cost[l] += (double)delta;
        }
        if (b->cost[l] < b->best_cost[l]) {
            b->best_cost[l] = b->cost[l];
            memcpy(b->best_configs + l * n, b->configs + l * n,
                   (size_t)n * sizeof(int64_t));
        }
    }
    return n_resets;
}
