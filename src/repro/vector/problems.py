"""Batched problem kernels for the vector-walk engine.

A :class:`VectorProblem` adapter evaluates ``k`` independent walks of one
problem instance simultaneously: the configurations live in a ``(k, n)``
int64 matrix (one lane per row) and every protocol call is a NumPy-batched
kernel over all lanes at once.  The adapters are *exact*: for every lane the
returned errors and swap deltas are bit-identical to the scalar
:class:`~repro.problems.base.Problem` protocol on that lane's configuration,
which is what makes the vector engine's trajectories reproducible against
the scalar engine (see ``tests/vector``).

Design rule (what is kept between rounds): a NumPy adapter may carry derived
state across rounds only where one swap changes O(1) of it and the update
batches across lanes.  ``VectorMagicSquare`` does — a narrow copy of the
configuration matrix and the ``2n + 2`` line sums per lane follow every swap
through ``notify_swaps`` (four scatter statements whatever the width), and a
reset or restarted lane is re-summed alone through ``notify_rows``.  The
count-table families (``costas`` / ``all_interval``) do not: a swap moves up
to ``2(n - 1)`` differences between buckets, and rebuilding their tables
from the configuration matrix is two or three full-width NumPy passes — so
their ``begin_round`` rebuilds everything, once per lock-step round.  No
adapter outlives a change of width: when a lane retires the engine builds a
fresh adapter for the lanes that remain.

Compiled kernels
----------------
:class:`CompiledLanes` is the same protocol over ``lanes.c``
(:mod:`repro.vector.native`): where that library is loaded, a
default-constructed engine runs magic-square, all-interval and Costas lanes
on it — every family keeps its state incrementally there (a count table
costs nothing to follow one swap at a time in C), in 64-bit integers, so
there is no ``MAX_N`` — and so does a declarative model that is nothing but
``+-1`` linear rows with integer right-hand sides (an exact
:class:`~repro.problems.base.ModelProblem`; its ``LINEAR`` kind reads
:attr:`~repro.csp.model.Model.unit_linear_table`).  Such a model has no
NumPy adapter: without the library its lanes are the per-lane fallback, and
``solve`` steps the session.  The NumPy adapters below stay as they were:
they are the lane path wherever the library is not loaded, and the
reference it is tested against.  :func:`lane_kernel` says which a problem
gets.

Batched swap-delta kernels (NumPy)
----------------------------------
``magic_square``
    the four line families (rows, columns, diagonal, anti-diagonal) stacked
    on one axis: a ``(4, k, A)`` block holds, per family, the sum of the
    line through every cell, so the per-cell error is one reduction over
    the family axis and the all-``j`` delta vector is one ``|s_j - dv|``,
    one ``|s_i + dv|``, one same-line mask and one reduction over the block
    (narrow integer arithmetic; all quantities are small integers).
``costas`` / ``all_interval``
    both costs are count-table costs ``sum_b max(c_b - 1, 0)`` over buckets
    holding ``N`` items, which equals ``N - distinct``.  Distinct values fit
    a machine-word bitmask (differences span < 64 values), so the cost of a
    candidate configuration is ``N`` minus the popcount of an OR-reduction —
    no scatter, no sort, no per-bucket collision handling.  The kernel
    materializes the *post-swap* difference tensor for every candidate ``j``
    in one shot via indicator tables: ``new = old + (T[i] - T[j]) * dv``,
    then OR-reduces bit masks and popcounts.  Padding slots carry a
    dedicated sentinel bit that inflates every lane and candidate equally
    and cancels in the delta.
"""

from __future__ import annotations

import ctypes
import math
from functools import lru_cache
from typing import Any, Callable, Optional, Sequence, Type

import numpy as np

from repro.problems.all_interval import AllIntervalProblem
from repro.problems.base import ModelProblem, Problem
from repro.problems.costas import CostasProblem
from repro.problems.magic_square import MagicSquareProblem
from repro.vector import native

__all__ = [
    "VectorProblem",
    "VectorMagicSquare",
    "VectorCostas",
    "VectorAllInterval",
    "ScalarLaneFallback",
    "CompiledLanes",
    "register_vector_adapter",
    "as_vector_problem",
    "lane_kernel",
    "has_batched_kernels",
]


class VectorProblem:
    """Protocol advancing ``k`` lanes of one problem in lock-step.

    Call order per round: ``begin_round(configs)`` once, then ``errors()``
    and ``deltas(i_sel)`` against the tables built from that snapshot.  The
    engine mutates ``configs`` only *after* ``deltas`` (swaps / resets), so
    staleness is never observable.  Every row of ``configs`` is a live
    lane; an adapter lives for one batch width (the engine builds a new one,
    ``type(adapter)(problem, m)``, when lanes retire and others go on).

    ``errors`` and ``deltas`` may return any numeric dtype (values must be
    exact), C-contiguous, and may reuse an internal buffer — the engine
    overwrites entries of both and consumes them before the next
    ``begin_round``.  ``delta_sentinel`` is the "never pick this" value the
    engine writes over the selected variable's own column before the
    batched argmin: ``inf`` for float kernels, the dtype maximum for
    integer kernels (whose real deltas are orders of magnitude smaller).
    """

    #: True for real batched kernels, False for the per-lane fallback
    batched = True

    #: largest ``problem.size`` the kernels handle (``None``: any)
    MAX_N: Optional[int] = None

    #: written over column ``i_sel`` before the argmin; see class docstring
    delta_sentinel: float = np.inf

    def __init__(self, problem: Problem, k: int) -> None:
        if k < 1:
            raise ValueError(f"lane count must be >= 1, got {k}")
        if not self.fits(problem):
            raise ValueError(f"kernels support n <= {self.MAX_N}")
        self.problem = problem
        self.k = int(k)
        self.n = problem.size

    @classmethod
    def fits(cls, problem: Problem) -> bool:
        """Whether the kernels handle ``problem`` — answered from the class,
        without building an adapter."""
        return cls.MAX_N is None or problem.size <= cls.MAX_N

    def begin_round(self, configs: np.ndarray) -> None:
        """Bring derived tables up to the ``(k, n)`` configuration matrix."""
        raise NotImplementedError

    def errors(self) -> np.ndarray:
        """Per-variable error projection, ``(k, n)``."""
        raise NotImplementedError

    def deltas(self, i_sel: np.ndarray) -> np.ndarray:
        """Swap deltas of lane ``l``'s variable ``i_sel[l]`` against every
        ``j``, as a ``(k, n)`` numeric matrix with entry
        ``[l, i_sel[l]] == 0``."""
        raise NotImplementedError

    # -- optional incremental hooks -----------------------------------
    # The engine reports every mutation it makes to the configuration
    # matrix between rounds.  Adapters that maintain derived state
    # incrementally (cheaper than a full rebuild when most lanes change by
    # one swap) override these; the defaults keep ``begin_round`` as a
    # from-scratch rebuild.

    def notify_swaps(
        self,
        lanes: np.ndarray,
        ii: np.ndarray,
        jj: np.ndarray,
        flat_i: np.ndarray,
        flat_j: np.ndarray,
        configs: np.ndarray,
    ) -> None:
        """Lanes ``lanes`` (each at most once) swapped cells ``ii``/``jj``
        (already applied); ``flat_i`` / ``flat_j`` are the same cells as
        ``lane * n + cell`` indices into ``configs.reshape(-1)``."""

    def notify_rows(self, lanes: "list[int]", configs: np.ndarray) -> None:
        """Whole rows rewritten (partial reset / restart)."""

    def lane_costs(self, configs: np.ndarray) -> np.ndarray:
        """Stateless cost of every lane, ``(k,)`` float64 (an adapter may
        answer in an array of its own)."""
        problem = self.problem
        return np.asarray(
            [problem.cost(configs[lane]) for lane in range(len(configs))],
            dtype=np.float64,
        )

    def lane_arrays(self, config: Any) -> tuple[np.ndarray, ...]:
        """The arrays a batch at this width walks in under ``config``,
        zeroed: the configurations, the marks and the best configurations
        ``(k, n)``, the ``(7, k)`` counters, the costs and the best costs
        ``(k,)``.  An adapter whose kernels read them in place hands out
        its own.

        Narrow marks halve (or quarter) the NumPy round's per-round
        tabu-mask traffic: a mark never exceeds the global iteration budget
        plus the longest freeze tenure, so int16 is exact whenever that
        bound fits; iteration counts beyond 2**31 are out of scope for any
        real run."""
        k, n = self.k, self.n
        marks = np.int32
        if math.isfinite(config.max_iterations):
            freeze_max = max(config.freeze_swap, config.freeze_loc_min, 0)
            if config.max_iterations + freeze_max < np.iinfo(np.int16).max:
                marks = np.int16
        return (
            np.zeros((k, n), dtype=np.int64),
            np.zeros((k, n), dtype=marks),
            np.zeros((k, n), dtype=np.int64),
            np.zeros((7, k), dtype=np.int64),
            np.zeros(k, dtype=np.float64),
            np.zeros(k, dtype=np.float64),
        )


# ----------------------------------------------------------------------
# magic square
# ----------------------------------------------------------------------
@lru_cache(maxsize=8)
def _magic_square_tables(n: int) -> tuple:
    """Dtype, sentinel and cell tables of an order-``n`` square: a pure
    function of the order, built for the first adapter of that order and
    shared read-only by every later one (each retirement builds one)."""
    A = n * n
    m = n * (A + 1) // 2
    # worst line sum = the n largest values in one line; a line term
    # |s -+ dv| stays within err + A
    worst_term = n * (2 * A - n + 1) // 2 - m + A
    cdt = np.int16 if 2 * worst_term < np.iinfo(np.int16).max else np.int32
    rows, cols = np.divmod(np.arange(A), n)
    on_diag, on_anti = rows == cols, rows + cols == n - 1
    always = np.ones(A, dtype=bool)
    # per family: does a line run through the cell, and which one
    member = np.stack([always, always, on_diag, on_anti]).astype(cdt)
    line = np.stack([rows, cols, on_diag - 1, on_anti - 1]).astype(cdt)
    # the same two tables by cell, gathered together for the selected i
    by_cell = np.ascontiguousarray(np.concatenate([member, line]).T)
    # slots of a cell's four lines in a lane's line-sum vector
    # [n rows | n columns | diagonal | anti-diagonal | 2 unused]: a cell
    # off a diagonal points at an unused slot, never read
    slots = np.stack(
        [
            rows,
            n + cols,
            np.where(on_diag, 2 * n, 2 * n + 2),
            np.where(on_anti, 2 * n + 1, 2 * n + 3),
        ],
        axis=1,
    )                                                           # (A, 4)
    tables = (member[:, None, :], line[:, None, :], by_cell, slots)
    for table in tables:
        table.flags.writeable = False
    return (cdt, int(np.iinfo(cdt).max), *tables)


class VectorMagicSquare(VectorProblem):
    """Batched magic-square kernels (order ``n``, ``A = n*n`` variables).

    The four line families — rows, columns, diagonal, anti-diagonal — are
    stacked on the leading axis of one ``(4, k, A)`` block: entry
    ``[f, l, c]`` is the sum (less the magic constant ``m``, so an error is
    a plain ``abs``) of lane ``l``'s family-``f`` line through cell ``c``,
    and 0 where no such line exists (a cell off the diagonal).  The block
    is refilled each round from the ``2n + 2`` line sums per lane, which
    follow the swaps incrementally.  Swapping ``i`` and ``j`` moves
    ``dv = v_j - v_i`` into ``i``'s lines and out of ``j``'s, so per family
    the delta is ``|s_j - dv| - |s_j| + |s_i + dv| - |s_i|``, a term
    dropping out where its line does not exist and both where ``i`` and
    ``j`` share the line.

    All arithmetic runs in the narrowest exact integer dtype: a line term
    is bounded by the worst line error plus ``A``, which fits int16 through
    order 31 (int32 beyond), and a delta by ``8 (A - 1)`` — each of the at
    most eight affected lines moves by ``|dv| < A``.  The kernels are
    bandwidth-bound at block width, so the narrow dtype turns directly
    into throughput.
    """

    def __init__(self, problem: MagicSquareProblem, k: int) -> None:
        super().__init__(problem, k)
        n = self.order = problem.order
        A = self.n
        self.m = problem.magic_constant
        (
            cdt, self.delta_sentinel,
            self._member, self._line, self._by_cell, self._slots,
        ) = _magic_square_tables(n)
        self._cdt = cdt
        self._lines = np.zeros((k, 2 * n + 4), dtype=cdt)
        self._base = np.arange(0, k * A, A)
        # [0] the line-sum-at-cell block, [1] its abs; the four views are
        # the cells each family's sums are broadcast into every round
        self._sums = np.zeros((2, 4, k, A), dtype=cdt)
        block = self._sums[0]
        self._fill = (
            (block[0].reshape(k, n, n), np.s_[:, :n, None]),
            (block[1].reshape(k, n, n), np.s_[:, None, n : 2 * n]),
            (block[2, :, :: n + 1], np.s_[:, 2 * n, None]),
            (block[3, :, n - 1 : A - 1 : n - 1], np.s_[:, 2 * n + 1, None]),
        )
        self._t, self._u = np.empty((2, 4, k, A), dtype=cdt)
        self._cfg, self._dv, self._acc = np.empty((3, k, A), dtype=cdt)
        self._apart = np.empty((4, k, A), dtype=bool)
        # a cell error sums four non-negative line terms: the unsigned
        # dtype of the same width holds it (4 * worst_term < 2**16 whenever
        # the terms fit int16), and the abs block is reinterpreted — a free
        # view, same bits — rather than cast
        edt = np.uint16 if cdt is np.int16 else np.uint32
        self._abs_unsigned = self._sums[1].view(edt)
        self._err = np.empty((k, A), dtype=edt)
        #: lanes whose line sums must be rebuilt from the configuration
        self._dirty: list[int] = list(range(k))

    def _resum(self, lanes: "list[int]", configs: np.ndarray) -> None:
        """Line sums of ``lanes`` from scratch."""
        n, A = self.order, self.n
        cfg = configs[lanes].astype(self._cdt)
        self._cfg[lanes] = cfg
        grid = cfg.reshape(-1, n, n)
        sums = self._lines[lanes]
        sums[:, :n] = grid.sum(axis=2)
        sums[:, n : 2 * n] = grid.sum(axis=1)
        sums[:, 2 * n] = cfg[:, :: n + 1].sum(axis=1)
        sums[:, 2 * n + 1] = cfg[:, n - 1 : A - 1 : n - 1].sum(axis=1)
        sums[:, : 2 * n + 2] -= self.m
        self._lines[lanes] = sums

    def notify_swaps(
        self,
        lanes: np.ndarray,
        ii: np.ndarray,
        jj: np.ndarray,
        flat_i: np.ndarray,
        flat_j: np.ndarray,
        configs: np.ndarray,
    ) -> None:
        flat_configs = configs.reshape(-1)
        new_i = flat_configs[flat_i]
        new_j = flat_configs[flat_j]
        cfg = self._cfg.reshape(-1)
        cfg[flat_i] = new_i
        cfg[flat_j] = new_j
        gain = (new_i - new_j).astype(self._cdt)[:, None]   # change at ii
        lines = self._lines.reshape(-1)
        slots, at = self._slots, (lanes * self._lines.shape[1])[:, None]
        # a lane's four slots are distinct within a statement; a line the
        # two cells share cancels across the two
        lines[at + slots[ii]] += gain
        lines[at + slots[jj]] -= gain

    def notify_rows(self, lanes: "list[int]", configs: np.ndarray) -> None:
        self._dirty.extend(lanes)

    def begin_round(self, configs: np.ndarray) -> None:
        if self._dirty:
            self._resum(self._dirty, configs)
            self._dirty = []
        lines = self._lines
        for cells, of_line in self._fill:
            cells[...] = lines[of_line]
        np.abs(self._sums[0], out=self._sums[1])

    def errors(self) -> np.ndarray:
        return np.add.reduce(self._abs_unsigned, axis=0, out=self._err)

    def deltas(self, i_sel: np.ndarray) -> np.ndarray:
        k = self.k
        cfg = self._cfg
        flat = self._base + i_sel
        dv = np.subtract(cfg, cfg.reshape(-1)[flat][:, None], out=self._dv)
        member_i, line_i = self._by_cell[i_sel].T.reshape(2, 4, k, 1)
        sums_i, errs_i = self._sums.reshape(8, -1)[:, flat].reshape(2, 4, k, 1)
        sums, errs = self._sums
        t, u = self._t, self._u
        # j's lines lose dv ...
        np.multiply(dv, self._member, out=t)
        np.subtract(sums, t, out=t)
        np.abs(t, out=t)
        t -= errs
        # ... and i's gain it
        np.multiply(dv, member_i, out=u)
        u += sums_i
        np.abs(u, out=u)
        u -= errs_i
        t += u
        # a line through both cells keeps its sum
        t *= np.not_equal(self._line, line_i, out=self._apart)
        return np.add.reduce(t, axis=0, out=self._acc)

    def lane_costs(self, configs: np.ndarray) -> np.ndarray:
        k, n = len(configs), self.order
        m = self.m
        grid = configs.reshape(k, n, n)
        diag_ix = np.arange(n)
        return (
            np.abs(grid.sum(axis=2) - m).sum(axis=1)
            + np.abs(grid.sum(axis=1) - m).sum(axis=1)
            + np.abs(grid[:, diag_ix, diag_ix].sum(axis=1) - m)
            + np.abs(grid[:, diag_ix, n - 1 - diag_ix].sum(axis=1) - m)
        ).astype(np.float64)


# ----------------------------------------------------------------------
# costas
# ----------------------------------------------------------------------
class VectorCostas(VectorProblem):
    """Batched Costas kernels via the bitmask-distinct identity.

    Cost over ``P = n(n-1)/2`` difference pairs equals
    ``sum_d (n - d - distinct_d)``: pairs at distance ``d`` minus the number
    of distinct difference values at that distance.  Differences span
    ``2n - 1 < 64`` values, so ``distinct_d`` is the popcount of an OR of
    single-bit masks — computable for every candidate swap at once from the
    post-swap difference tensor (see module docstring).  Works for
    ``n <= 32`` (uint64 masks); larger orders use the scalar fallback.
    """

    MAX_N = 32

    def __init__(self, problem: CostasProblem, k: int) -> None:
        super().__init__(problem, k)
        n = self.n
        self.delta_sentinel = int(np.iinfo(np.int32).max)
        self.off = n - 1
        self.W = 2 * n - 1
        nd = na = n - 1
        self.nd, self.na = nd, na
        P = self.P = n * (n - 1) // 2
        # pair tables (shared with the scalar problem's reference kernels)
        self._pa = problem._pair_a
        self._pb = problem._pair_b
        self._pd = problem._pair_d
        # incidence matrix: errors = dup_pairs @ inc
        inc = np.zeros((P, n), dtype=np.float64)
        inc[np.arange(P), self._pa] += 1.0
        inc[np.arange(P), self._pb] += 1.0
        self._inc = inc
        self._dup = np.empty((k, P), dtype=np.float64)
        self._err = np.empty((k, n), dtype=np.float64)
        # count-table slot of pair p's difference, less the difference
        self._base = np.arange(k) * n
        lane_col = np.arange(k)[:, None]
        self._key_base = (lane_col * nd + (self._pd - 1)) * self.W + self.off
        # rectangular (a, d) pair layout, a = left endpoint, d = distance;
        # transposed so the OR-reduction runs over the *leading* axis, where
        # NumPy reduces with contiguous full-width passes
        a_ix = np.arange(na)
        d_ix = np.arange(1, n)
        validT = (a_ix[:, None] + d_ix[None, :]) < n        # (na, nd)
        iaT = np.where(validT, a_ix[:, None], 0)
        ibT = np.where(validT, a_ix[:, None] + d_ix[None, :], 0)
        # each lane's shifted differences, plus one padding column holding
        # the sentinel bit (it inflates every lane and candidate equally and
        # cancels in the delta); _pair_of maps the rectangle onto it
        self._shifted = np.full((k, P + 1), self.W, dtype=np.int16)
        self._pair_of = np.full((na, nd), P)
        self._pair_of[self._pa, self._pd - 1] = np.arange(P)
        # indicator table: T4[pos, a, d] = [b == pos] - [a == pos]
        T4 = np.zeros((n, na, nd), dtype=np.int16)
        for pos in range(n):
            T4[pos] = np.where(
                validT,
                (ibT == pos).astype(np.int16) - (iaT == pos).astype(np.int16),
                0,
            )
        self._T4 = T4
        # big-tensor layout (na, nd, k, n_j): Tj broadcast over lanes
        self._Tj = np.ascontiguousarray(T4.transpose(1, 2, 0))[:, :, None, :]
        self._mask_dtype = np.uint32 if self.W < 32 else np.uint64
        self._D = np.empty((na, nd, k, n), dtype=np.int16)
        self._new = np.empty((na, nd, k, n), dtype=np.int16)
        self._mask = np.empty((na, nd, k, n), dtype=self._mask_dtype)
        self._one = self._mask_dtype(1)

    def begin_round(self, configs: np.ndarray) -> None:
        self._V = configs
        diffs = configs[:, self._pb] - configs[:, self._pa]         # (k, P)
        self._keys = self._key_base + diffs
        self._counts = np.bincount(
            self._keys.ravel(), minlength=self.k * self.nd * self.W
        )
        shifted = self._shifted
        np.add(diffs, self.off, out=shifted[:, :-1])
        self._oldT = shifted.T[self._pair_of][:, :, :, None]        # (na, nd, k, 1)

    def errors(self) -> np.ndarray:
        dup = np.greater(self._counts[self._keys], 1, out=self._dup)
        return np.matmul(dup, self._inc, out=self._err)

    def deltas(self, i_sel: np.ndarray) -> np.ndarray:
        V = self._V
        flat = self._base + i_sel
        dv = (V - V.reshape(-1)[flat][:, None]).astype(np.int16)    # (k, n)
        TiT = np.ascontiguousarray(
            self._T4[i_sel].transpose(1, 2, 0)
        )[:, :, :, None]                                            # (na, nd, k, 1)
        D, new, mask = self._D, self._new, self._mask
        np.subtract(TiT, self._Tj, out=D)
        np.multiply(D, dv, out=new)
        np.add(new, self._oldT, out=new)
        np.left_shift(
            self._one, new, out=mask, dtype=self._mask_dtype, casting="unsafe"
        )
        ors = np.bitwise_or.reduce(mask, axis=0)                    # (nd, k, n)
        sumd = np.bitwise_count(ors).sum(axis=0, dtype=np.int32)    # (k, n)
        # swapping i with itself changes nothing: column i_sel is the
        # lane's current distinct count, and its own delta comes out 0
        return np.subtract(sumd.reshape(-1)[flat][:, None], sumd)

    def lane_costs(self, configs: np.ndarray) -> np.ndarray:
        k = len(configs)
        off, W = self.off, self.W
        diffs = configs[:, self._pb] - configs[:, self._pa] + off
        lane_col = np.arange(k)[:, None]
        keys = (lane_col * self.nd + (self._pd[None, :] - 1)) * W + diffs
        counts = np.bincount(keys.ravel(), minlength=k * self.nd * W)
        counts = counts.reshape(k, self.nd * W)
        return np.maximum(counts - 1, 0).sum(axis=1).astype(np.float64)


# ----------------------------------------------------------------------
# all interval
# ----------------------------------------------------------------------
class VectorAllInterval(VectorProblem):
    """Batched All-Interval kernels (same bitmask-distinct identity).

    The ``n - 1`` adjacent absolute differences form one bucket family with
    values ``1 .. n-1``; cost = ``(n-1) - distinct``.  Works for ``n <= 62``
    (int64 masks, no sentinel needed: the full rectangle is valid).  The
    post-swap difference tensor is laid out ``(n-1, k, n)`` — difference
    slot first — so the OR-reduction runs over the leading axis.
    """

    MAX_N = 62

    def __init__(self, problem: AllIntervalProblem, k: int) -> None:
        super().__init__(problem, k)
        n = self.n
        self.delta_sentinel = int(np.iinfo(np.int16).max)
        # indicator: E[d, pos] = [d+1 == pos] - [d == pos] for diff slot d
        d_ix = np.arange(n - 1)[:, None]
        pos = np.arange(n)
        self._E = (d_ix + 1 == pos).astype(np.int16) - (d_ix == pos)
        self._base = np.arange(k) * n
        self._one = np.int64(1)
        # duplicated-difference flags between two zero columns: variable
        # v's error is the flag to its left plus the flag to its right
        self._dup = np.zeros((k, n + 1), dtype=np.uint8)
        self._err = np.empty((k, n), dtype=np.uint8)

    def begin_round(self, configs: np.ndarray) -> None:
        self._V = configs
        sd = configs[:, 1:] - configs[:, :-1]                 # (k, n-1) signed
        self._sd = np.ascontiguousarray(sd.T, dtype=np.int16)[:, :, None]
        self._keys = self._base[:, None] + np.abs(sd)
        self._counts = np.bincount(
            self._keys.ravel(), minlength=self.k * self.n
        )

    def errors(self) -> np.ndarray:
        dup = self._dup
        np.greater(self._counts[self._keys], 1, out=dup[:, 1:-1])
        return np.add(dup[:, :-1], dup[:, 1:], out=self._err)

    def deltas(self, i_sel: np.ndarray) -> np.ndarray:
        V = self._V
        flat = self._base + i_sel
        dv = (V - V.reshape(-1)[flat][:, None]).astype(np.int16)  # (k, n)
        E = self._E
        new = E[:, i_sel][:, :, None] - E[:, None, :]          # (n-1, k, n)
        new *= dv
        new += self._sd
        np.abs(new, out=new)
        mask = np.left_shift(self._one, new, dtype=np.int64)
        distinct = np.bitwise_count(np.bitwise_or.reduce(mask, axis=0))
        # swapping i with itself changes nothing: column i_sel is the
        # lane's current distinct count, and its own delta comes out 0
        old = distinct.reshape(-1)[flat]
        return np.subtract(old[:, None], distinct, dtype=np.int16)

    def lane_costs(self, configs: np.ndarray) -> np.ndarray:
        k, n = len(configs), self.n
        ad = np.abs(configs[:, 1:] - configs[:, :-1])
        keys = np.arange(k)[:, None] * n + ad
        counts = np.bincount(keys.ravel(), minlength=k * n).reshape(k, n)
        return np.maximum(counts - 1, 0).sum(axis=1).astype(np.float64)


# ----------------------------------------------------------------------
# generic fallback
# ----------------------------------------------------------------------
class ScalarLaneFallback(VectorProblem):
    """Correct-for-everything adapter looping the scalar protocol per lane.

    No speedup — it exists so ``executor="vector"`` accepts any problem and
    so oversized instances of the batched families degrade gracefully
    instead of failing.
    """

    batched = False

    def begin_round(self, configs: np.ndarray) -> None:
        problem = self.problem
        self._states = [problem.init_state(configs[lane]) for lane in range(self.k)]

    def errors(self) -> np.ndarray:
        problem = self.problem
        return np.stack(
            [problem.variable_errors(state) for state in self._states]
        ).astype(np.float64)

    def deltas(self, i_sel: np.ndarray) -> np.ndarray:
        problem = self.problem
        out = np.empty((self.k, self.n), dtype=np.float64)
        for lane, state in enumerate(self._states):
            out[lane] = problem.swap_deltas(state, int(i_sel[lane]))
        return out


# ----------------------------------------------------------------------
# compiled kernels
# ----------------------------------------------------------------------
#: the ``LINEAR`` kind of ``lanes.c``
_LINEAR = 3

#: problem type -> (kind, order, state_size) of ``lanes.c`` for an instance
_COMPILED: dict[Type[Problem], Callable[[Problem], tuple[int, int, int]]] = {
    MagicSquareProblem: lambda p: (0, p.order, 2 * p.order + 2),
    AllIntervalProblem: lambda p: (1, 0, p.size),
    CostasProblem: lambda p: (2, 0, p.size * (2 * p.size - 1)),
    # per row: its lhs, its error, the selected variable's coefficient
    ModelProblem: lambda p: (_LINEAR, 0, 3 * int(p.model.unit_linear_table[0])),
}


def _has_compiled_kind(problem: Problem) -> bool:
    """Whether ``lanes.c`` has a kind for ``problem``: every instance of the
    three families, and a declarative model (an exact ``ModelProblem``)
    that is nothing but ``+-1`` rows — one attribute read once its model
    has been asked (:attr:`~repro.csp.model.Model.unit_linear_table`)."""
    if type(problem) is ModelProblem:
        return problem.model.unit_linear_table is not None
    return type(problem) in _COMPILED


#: the per-lane vectors of a ``LaneBlock``, rows of one ``(9, k)`` array
_VECTORS = (
    "dirty", "count", "local_min", "draw", "accept", "i_sel", "delta",
    "resets", "bitgen",
)
(
    _DIRTY, _COUNT, _LOCAL_MIN, _DRAW, _ACCEPT, _I_SEL, _DELTA, _RESETS,
    _BITGEN,
) = range(len(_VECTORS))

#: what a buffer lays out behind its block, in this order: per ``LaneBlock``
#: pointer, the words one lane takes of the array it points at ("n": one
#: per variable, "state": the kind's state size).  The engine's arrays come
#: first, then the hand-off vectors, the ``(k, n)`` scratch and the state;
#: ``CompiledLanes`` carves its views in the same order
_ARRAYS = (
    ("configs", "n"), ("marks", "n"), ("best_configs", "n"),
    ("stats", 7), ("cost", 1), ("best_cost", 1),
    *((name, 1) for name in _VECTORS),
    ("err", "n"), ("deltas", "n"), ("cand", "n"),
    ("state", "state"),
)

#: the words of a ``LaneBlock`` (every field is eight bytes wide), which
#: open a buffer
_HEAD = ctypes.sizeof(native.LaneBlock) // 8


def _word(field: str) -> int:
    """Where ``field`` sits in a ``LaneBlock``, in words."""
    return getattr(native.LaneBlock, field).offset // 8


def _require(array: np.ndarray, dtype: type, shape: tuple) -> None:
    """What ``lanes.c`` assumes of an array it is handed a pointer into."""
    if (
        array.dtype != dtype
        or array.shape != shape
        or not array.flags.c_contiguous
    ):
        raise ValueError(
            f"compiled lanes need a C-contiguous {np.dtype(dtype)} array "
            f"of shape {shape}, got {array.dtype} {array.shape}"
        )


class _Layout:
    """What ``lanes.c`` needs of one problem, derived once per instance and
    held by it (``problem.derived[CompiledLanes]``): the ``LINEAR`` kind's
    table, the words one lane takes of a buffer, and the block's words.
    The block of ``k`` lanes in a buffer at ``base`` is ``head(config, k)
    + base * pointers``: ``pointers`` is 1 at every pointer into the
    buffer (all but ``table``), where ``head`` holds the offset."""

    __slots__ = (
        "n", "table", "lane_words", "per_lane", "pointers", "fixed", "_held",
    )

    def __init__(self, problem: Problem) -> None:
        kind, order, state_size = _COMPILED[type(problem)](problem)
        n = self.n = problem.size
        #: held: the block keeps only its address
        self.table = (
            problem.model.unit_linear_table if kind == _LINEAR else None
        )
        per_lane, fixed, pointers = np.zeros((3, _HEAD), dtype=np.int64)
        sizes = {"n": n, "state": state_size}
        words = 0
        for name, size in _ARRAYS:
            at = _word(name)
            pointers[at] = 1
            fixed[at] = 8 * _HEAD
            per_lane[at] = 8 * words
            words += sizes.get(size, size)
        self.lane_words = words
        per_lane[_word("m")] = 1
        for name, value in (
            ("kind", kind), ("n", n), ("order", order),
            ("state_size", state_size),
        ):
            fixed[_word(name)] = value
        if self.table is not None:
            fixed[_word("table")] = native.address(self.table)
        self.per_lane, self.fixed, self.pointers = per_lane, fixed, pointers
        self._held: Optional[tuple[Any, int, np.ndarray]] = None

    def head(self, config: Any, k: int) -> np.ndarray:
        """The block's words for ``k`` lanes and the solver parameters of
        ``config`` (``None``: zero, for the kernels one at a time), in a
        buffer at address 0 — built once per configuration object and
        width and held, one entry."""
        held = self._held
        if held is not None and held[0] is config and held[1] == k:
            return held[2]
        words = self.per_lane * k + self.fixed
        if config is not None:
            for name, value in (
                ("plateau_is_local_min", bool(config.plateau_is_local_min)),
                ("freeze_swap", config.freeze_swap),
                ("freeze_loc_min", config.freeze_loc_min),
                ("reset_limit", config.reset_limit),
                # csp.permutation.random_partial_reset's count, to the float
                (
                    "reset_swaps",
                    max(1, math.ceil(config.reset_fraction * self.n / 2.0)),
                ),
            ):
                words[_word(name)] = int(value)
            reals = words.view(np.float64)
            reals[_word("prob_select_loc_min")] = config.prob_select_loc_min
            reals[_word("target_cost")] = config.target_cost
        words.flags.writeable = False
        self._held = (config, k, words)
        return words


class CompiledLanes(VectorProblem):
    """The kernel set of ``lanes.c`` at one batch width.

    Everything the C side reads and writes for a batch lives in one int64
    buffer: the :class:`~repro.vector.native.LaneBlock` itself (a ctypes
    view of the buffer's first words), then the engine's arrays (the
    configurations, marks, best configurations, counters, costs and best
    costs that :meth:`lane_arrays` hands out), the hand-off vectors, the
    ``(k, n)`` scratch and every lane's derived state.  The block is complete
    when it is built — shape, solver parameters (``config``), pointers —
    from the problem's :class:`_Layout`, derived once per instance; only
    each lane's generator is left to :meth:`bind`.  The engine advances the
    batch with one call on that block (``lanes_run``: rounds of whole
    iterations) and the state follows every swap and reset inside it; a
    row rewritten from Python is reported through :meth:`notify_rows` and
    rebuilt before it is next read.

    The class also answers the :class:`VectorProblem` protocol, one kernel
    per call, on any configuration matrix :meth:`begin_round` points it at,
    which is how ``tests/vector/test_kernels.py`` holds the C kernels to
    the scalar protocol.  There is no mask, so no order limit: all
    arithmetic is 64-bit.
    """

    delta_sentinel = int(np.iinfo(np.int64).max)

    def __init__(self, problem: Problem, k: int, config: Any = None) -> None:
        super().__init__(problem, k)
        lib = native.LOADED.lib
        if lib is None:
            raise ValueError(
                f"no compiled lane kernels: {native.LOADED.error}"
            )
        layout = problem.derived.get(CompiledLanes)
        if layout is None:
            if not _has_compiled_kind(problem):
                raise ValueError(f"lanes.c has no kernels for {problem.name}")
            layout = problem.derived[CompiledLanes] = _Layout(problem)
        self.lib = lib
        self._layout = layout
        self._buffer = buffer = np.zeros(
            _HEAD + k * layout.lane_words, dtype=np.int64
        )
        self.block = native.LaneBlock.from_buffer(buffer)
        head = buffer[:_HEAD]
        np.multiply(layout.pointers, ctypes.addressof(self.block), out=head)
        head += layout.head(config, k)
        # what set-up and the walk touch, in _ARRAYS order; the scratch
        # and the state are views made when asked for
        at = _HEAD + 3 * k * self.n
        self._configs, marks, best_configs = buffer[_HEAD:at].reshape(3, k, -1)
        stats = buffer[at : at + 7 * k].reshape(7, k)
        at += 7 * k
        costs = buffer[at : at + 2 * k].view(np.float64).reshape(2, k)
        at += 2 * k
        self._arrays = (self._configs, marks, best_configs, stats, *costs)
        self._vectors = buffer[at : at + len(_VECTORS) * k].reshape(-1, k)
        self._vectors[_DIRTY] = 1
        #: where the scratch starts
        self._scratch_at = at + len(_VECTORS) * k
        self._rngs: Sequence[np.random.Generator] = ()

    @property
    def _dirty(self) -> np.ndarray:
        """Per lane: must its state be rebuilt before it is next read?"""
        return self._vectors[_DIRTY]

    @property
    def resets(self) -> np.ndarray:
        """Per lane: did it take a partial reset in the last round?"""
        return self._vectors[_RESETS]

    @property
    def _scratch(self) -> np.ndarray:
        """The ``(k, n)`` errors, deltas and tied candidates, stacked."""
        at, size = self._scratch_at, 3 * self.k * self.n
        return self._buffer[at : at + size].reshape(3, self.k, self.n)

    @property
    def _state(self) -> np.ndarray:
        """Every lane's derived state, ``(k, state_size)``."""
        at = self._scratch_at + 3 * self.k * self.n
        return self._buffer[at:].reshape(self.k, -1)

    def lane_arrays(self, config: Any = None) -> tuple[np.ndarray, ...]:
        """The engine's arrays, where the block points (int64 marks, the
        one width ``lanes.c`` reads)."""
        return self._arrays

    def bind(self, rngs: Sequence[np.random.Generator]) -> None:
        """Give the block each lane's generator (which the caller leaves
        alone while ``lanes_run`` runs)."""
        if len(rngs) != self.k:
            raise ValueError(f"got {len(rngs)} generators for {self.k} lanes")
        bitgen = self._vectors[_BITGEN]
        for lane, rng in enumerate(rngs):
            bitgen[lane] = native.bitgen_address(rng)
        self._rngs = rngs

    def moves(self) -> tuple[list[int], list[int], list[int]]:
        """What the last round of ``lanes_run`` did, per lane, as an
        observer of the iteration is told it: the variable selected (-1:
        every variable frozen, nothing selected), the partner it was
        swapped with (-1: no swap executed) and the selection's delta."""
        vectors = self._vectors.tolist()
        local_min, draw, accepted = vectors[_LOCAL_MIN : _ACCEPT + 1]
        partner = self._scratch[2].item
        executed = [
            partner(lane, draw[lane])
            if accepted[lane] or not local_min[lane]
            else -1
            for lane in range(self.k)
        ]
        return vectors[_I_SEL], executed, vectors[_DELTA]

    # -- the VectorProblem protocol, one kernel per call ---------------
    def begin_round(self, configs: np.ndarray) -> None:
        if configs is not self._configs:
            _require(configs, np.int64, (self.k, self.n))
            self._configs = configs
            self.block.configs = native.address(configs)

    def errors(self) -> np.ndarray:
        self.lib.lanes_errors(self.block)
        return self._scratch[0]

    def deltas(self, i_sel: np.ndarray) -> np.ndarray:
        if i_sel.min() < 0 or i_sel.max() >= self.n:
            raise ValueError("selected variable out of range")
        self._vectors[_I_SEL] = i_sel
        self.lib.lanes_deltas(self.block)
        return self._scratch[1]

    def notify_swaps(
        self,
        lanes: np.ndarray,
        ii: np.ndarray,
        jj: np.ndarray,
        flat_i: np.ndarray,
        flat_j: np.ndarray,
        configs: np.ndarray,
    ) -> None:
        # only lanes_run follows a swap incrementally
        self._dirty[lanes] = 1

    def notify_rows(self, lanes: "list[int]", configs: np.ndarray) -> None:
        self._dirty[lanes] = 1

    def lane_costs(self, configs: np.ndarray) -> np.ndarray:
        """The costs of ``configs``, which the block now points at
        (:meth:`begin_round`) and whose state it now holds, in the batch's
        own cost array (:meth:`lane_arrays`)."""
        self.begin_round(configs)
        self.lib.lanes_costs(self.block)
        return self._arrays[4]


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_ADAPTERS: dict[Type[Problem], Type[VectorProblem]] = {}


def register_vector_adapter(
    problem_type: Type[Problem],
) -> Callable[[Type[VectorProblem]], Type[VectorProblem]]:
    """Class decorator registering a batched adapter for a problem type."""

    def deco(adapter: Type[VectorProblem]) -> Type[VectorProblem]:
        _ADAPTERS[problem_type] = adapter
        return adapter

    return deco


register_vector_adapter(MagicSquareProblem)(VectorMagicSquare)
register_vector_adapter(CostasProblem)(VectorCostas)
register_vector_adapter(AllIntervalProblem)(VectorAllInterval)


def _batched_adapter(problem: Problem) -> Optional[Type[VectorProblem]]:
    """The registered adapter whose fast path ``problem`` fits, if any."""
    adapter = _ADAPTERS.get(type(problem))
    if adapter is not None and adapter.fits(problem):
        return adapter
    return None


def lane_kernel(problem: Problem) -> str:
    """What a lane batch of ``problem`` runs on in this process:
    ``"compiled"`` (``lanes.c`` is loaded and has the problem's kernels, at
    any order: the three families, and declarative models of ``+-1``
    linear rows), ``"numpy"`` (a registered adapter's fast path fits), else
    ``"scalar"`` (the per-lane fallback: lanes buy nothing)."""
    if native.LOADED.lib is not None and _has_compiled_kind(problem):
        return "compiled"
    if _batched_adapter(problem) is not None:
        return "numpy"
    return "scalar"


def has_batched_kernels(problem: Problem) -> bool:
    """True when a lane batch of ``problem`` runs on batched kernels,
    compiled or NumPy — answered without building anything."""
    return lane_kernel(problem) != "scalar"


def as_vector_problem(problem: Problem, k: int) -> VectorProblem:
    """Best NumPy adapter: a registered batched kernel set when the
    instance fits its fast path (e.g. small enough for machine-word
    masks), otherwise the scalar-lane fallback.  These run the engine's
    NumPy round — the only lane path where ``lanes.c`` is not loaded, and
    the reference the compiled kernels are tested against."""
    return (_batched_adapter(problem) or ScalarLaneFallback)(problem, k)
