"""Magic Square (CSPLib prob019).

Place ``1 .. n*n`` in an ``n x n`` grid so that every row, column and the two
main diagonals sum to the magic constant ``M = n(n^2+1)/2``.

Permutation model: the configuration is a permutation of ``1..n*n`` laid out
row-major.  Cost = sum of ``|line_sum - M|`` over the ``2n + 2`` lines — the
error function of the C ``magic-square.c`` benchmark.

Incremental state caches the ``2n + 2`` line sums; a swap touches at most two
rows, two columns and the diagonals, so a pointwise delta is O(1) integer
arithmetic and the all-``j`` delta vector is a handful of broadcasts over
the ``(n, n)`` view of the configuration.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.errors import ProblemError
from repro.problems.base import Problem, WalkState
from repro.problems.registry import register_problem

__all__ = ["MagicSquareProblem", "MagicSquareState"]


class MagicSquareState(WalkState):
    """Walk state with cached row/column/diagonal sums."""

    __slots__ = ("row_sums", "col_sums", "diag_sum", "anti_sum")

    def __init__(
        self,
        config: np.ndarray,
        cost: float,
        row_sums: np.ndarray,
        col_sums: np.ndarray,
        diag_sum: int,
        anti_sum: int,
    ) -> None:
        super().__init__(config, cost)
        self.row_sums = row_sums
        self.col_sums = col_sums
        self.diag_sum = diag_sum
        self.anti_sum = anti_sum


@register_problem("magic_square")
class MagicSquareProblem(Problem):
    """Magic square of order ``n`` (``n*n`` variables)."""

    family = "magic_square"
    value_base = 1

    def __init__(self, n: int = 10) -> None:
        if n < 3:
            raise ProblemError(f"magic_square needs n >= 3, got {n}")
        self._order = int(n)
        self._n_cells = n * n
        self.magic_constant = n * (n * n + 1) // 2
        cells = np.arange(self._n_cells)
        self._rows = cells // n  # row index of each cell
        self._cols = cells % n
        self._on_diag = self._rows == self._cols
        self._on_anti = (self._rows + self._cols) == n - 1

    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Side length ``n`` of the square."""
        return self._order

    @property
    def size(self) -> int:
        return self._n_cells

    @property
    def name(self) -> str:
        return f"{self.family}-{self._order}"

    def spec(self) -> Mapping[str, Any]:
        return {"family": self.family, "n": self._order}

    def default_solver_parameters(self) -> dict[str, Any]:
        # tuned on orders 5..10 (see benchmarks/bench_abl_tuning.py)
        n2 = self._n_cells
        return {
            "freeze_loc_min": 5,
            "reset_limit": max(5, n2 // 8),
            "reset_fraction": 0.25,
            "prob_select_loc_min": 0.5,
            "restart_limit": 10**9,
        }

    # ------------------------------------------------------------------
    # reference semantics
    # ------------------------------------------------------------------
    def _line_sums(self, config: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
        n = self._order
        grid = config.reshape(n, n)
        return (
            grid.sum(axis=1),
            grid.sum(axis=0),
            int(np.trace(grid)),
            int(np.trace(np.fliplr(grid))),
        )

    def cost(self, config: np.ndarray) -> float:
        config = np.asarray(config, dtype=np.int64)
        rows, cols, diag, anti = self._line_sums(config)
        m = self.magic_constant
        return float(
            np.abs(rows - m).sum()
            + np.abs(cols - m).sum()
            + abs(diag - m)
            + abs(anti - m)
        )

    # ------------------------------------------------------------------
    # incremental protocol
    # ------------------------------------------------------------------
    def init_state(self, config: np.ndarray) -> MagicSquareState:
        self.check_configuration(config)
        cfg = np.array(config, dtype=np.int64, copy=True)
        rows, cols, diag, anti = self._line_sums(cfg)
        m = self.magic_constant
        cost = float(
            np.abs(rows - m).sum()
            + np.abs(cols - m).sum()
            + abs(diag - m)
            + abs(anti - m)
        )
        return MagicSquareState(cfg, cost, rows, cols, diag, anti)

    def swap_deltas(self, state: MagicSquareState, i: int) -> np.ndarray:
        """Vectorized deltas of swapping cell ``i`` with every cell ``j``.

        Cell ``c`` sits in row ``c // n`` and column ``c % n``, so a row
        (column) term is one broadcast over the ``(n, n)`` view of the
        configuration, and the two diagonals are the strided views
        ``[::n + 1]`` and ``[n - 1:-1:n - 1]`` of the flat one.
        """
        n = self._order
        m = self.magic_constant
        cfg = state.config
        ri, ci = divmod(i, n)
        # value gained by the lines through i, lost by the lines through j
        dv_flat = cfg - cfg[i]
        dv = dv_flat.reshape(n, n)
        r = state.row_sums - m
        c = state.col_sums - m
        row_err = np.abs(r)
        col_err = np.abs(c)

        # |s_i + dv| - e_i + |s_j - dv| - e_j, zero when j shares the line
        out = np.abs(dv + r[ri])
        out += np.abs(r[:, None] - dv)
        out -= row_err[:, None] + row_err[ri]
        out[ri] = 0
        col_term = np.abs(dv + c[ci])
        col_term += np.abs(c - dv)
        col_term -= col_err + col_err[ci]
        col_term[:, ci] = 0
        out += col_term

        # a diagonal moves by ([i on it] - [j on it]) * dv: with i off it
        # only its n cells have a term, with i on it every other cell does
        flat = out.reshape(-1)
        for on_line, line, s in (
            (ri == ci, slice(None, None, n + 1), state.diag_sum - m),
            (ri + ci == n - 1, slice(n - 1, -1, n - 1), state.anti_sum - m),
        ):
            if on_line:
                term = np.abs(dv_flat + s)
                term -= abs(s)
                term[line] = 0
                flat += term
            else:
                flat[line] += np.abs(s - dv_flat[line]) - abs(s)

        deltas = flat.astype(np.float64)
        deltas[i] = 0.0
        return deltas

    def swap_delta(self, state: MagicSquareState, i: int, j: int) -> float:
        if i == j:
            return 0.0
        n = self._order
        m = self.magic_constant
        cfg = state.config
        dv = int(cfg[j]) - int(cfg[i])
        ri, ci = divmod(i, n)
        rj, cj = divmod(j, n)
        delta = 0
        if ri != rj:
            si, sj = int(state.row_sums[ri]) - m, int(state.row_sums[rj]) - m
            delta += abs(si + dv) - abs(si) + abs(sj - dv) - abs(sj)
        if ci != cj:
            si, sj = int(state.col_sums[ci]) - m, int(state.col_sums[cj]) - m
            delta += abs(si + dv) - abs(si) + abs(sj - dv) - abs(sj)
        for s, change in (
            (state.diag_sum - m, dv * ((ri == ci) - (rj == cj))),
            (state.anti_sum - m, dv * ((ri + ci == n - 1) - (rj + cj == n - 1))),
        ):
            delta += abs(s + change) - abs(s)
        return float(delta)

    def apply_swap(
        self,
        state: MagicSquareState,
        i: int,
        j: int,
        delta: float | None = None,
    ) -> None:
        if i == j:
            return
        if delta is None:
            delta = self.swap_delta(state, i, j)
        n = self._order
        cfg = state.config
        vi, vj = int(cfg[i]), int(cfg[j])
        dv = vj - vi
        ri, ci = divmod(i, n)
        rj, cj = divmod(j, n)
        if ri != rj:
            state.row_sums[ri] += dv
            state.row_sums[rj] -= dv
        if ci != cj:
            state.col_sums[ci] += dv
            state.col_sums[cj] -= dv
        state.diag_sum += dv * ((ri == ci) - (rj == cj))
        state.anti_sum += dv * ((ri + ci == n - 1) - (rj + cj == n - 1))
        cfg[i] = vj
        cfg[j] = vi
        state.cost += delta

    def variable_errors(self, state: MagicSquareState) -> np.ndarray:
        """Each cell inherits the absolute errors of the lines through it."""
        n = self._order
        m = self.magic_constant
        errors = np.add.outer(
            np.abs(state.row_sums - m), np.abs(state.col_sums - m)
        ).astype(np.float64)
        flat = errors.reshape(-1)
        flat[:: n + 1] += abs(state.diag_sum - m)
        flat[n - 1 : -1 : n - 1] += abs(state.anti_sum - m)
        return flat

    # ------------------------------------------------------------------
    def render(self, config: np.ndarray) -> str:
        n = self._order
        grid = np.asarray(config).reshape(n, n)
        width = len(str(n * n))
        return "\n".join(
            " ".join(str(v).rjust(width) for v in row) for row in grid.tolist()
        )
