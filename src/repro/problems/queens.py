"""N-Queens in the permutation model (from the C adaptive-search suite).

``p[i]`` is the row of the queen in column ``i``; rows/columns are conflict-
free by construction, so the cost counts diagonal attacks: for each
diagonal (``p[i] - i`` constant) and anti-diagonal (``p[i] + i`` constant)
holding ``c > 1`` queens, add ``c - 1``.

Not part of the paper's evaluation; used by tests and the baseline ablation
(the classic easy target for min-conflicts).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.errors import ProblemError
from repro.problems.base import Problem, WalkState
from repro.problems.registry import register_problem

__all__ = ["QueensProblem", "QueensState"]


class QueensState(WalkState):
    """Walk state caching queens-per-diagonal counts."""

    __slots__ = ("diag_counts", "anti_counts")

    def __init__(
        self,
        config: np.ndarray,
        cost: float,
        diag_counts: np.ndarray,
        anti_counts: np.ndarray,
    ) -> None:
        super().__init__(config, cost)
        #: ``diag_counts[p[i] - i + n - 1]`` — queens per "down" diagonal
        self.diag_counts = diag_counts
        #: ``anti_counts[p[i] + i]`` — queens per "up" diagonal
        self.anti_counts = anti_counts


@register_problem("queens")
class QueensProblem(Problem):
    """N-Queens of order ``n``."""

    family = "queens"

    def __init__(self, n: int = 50) -> None:
        if n < 4:
            raise ProblemError(f"queens needs n >= 4, got {n}")
        self._n = int(n)
        self._idx = np.arange(self._n, dtype=np.int64)

    @property
    def size(self) -> int:
        return self._n

    def spec(self) -> Mapping[str, Any]:
        return {"family": self.family, "n": self._n}

    def default_solver_parameters(self) -> dict[str, Any]:
        return {
            "freeze_loc_min": 2,
            "reset_limit": max(2, self._n // 10),
            "reset_fraction": 0.1,
            "prob_select_loc_min": 0.33,
            "restart_limit": 10**9,
        }

    # ------------------------------------------------------------------
    def _tables(self, config: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self._n
        diag = np.zeros(2 * n - 1, dtype=np.int64)
        anti = np.zeros(2 * n - 1, dtype=np.int64)
        np.add.at(diag, config - self._idx + n - 1, 1)
        np.add.at(anti, config + self._idx, 1)
        return diag, anti

    @staticmethod
    def _cost_from_tables(diag: np.ndarray, anti: np.ndarray) -> float:
        return float(
            np.maximum(diag - 1, 0).sum() + np.maximum(anti - 1, 0).sum()
        )

    def cost(self, config: np.ndarray) -> float:
        config = np.asarray(config, dtype=np.int64)
        return self._cost_from_tables(*self._tables(config))

    # ------------------------------------------------------------------
    def init_state(self, config: np.ndarray) -> QueensState:
        self.check_configuration(config)
        cfg = np.array(config, dtype=np.int64, copy=True)
        diag, anti = self._tables(cfg)
        return QueensState(cfg, self._cost_from_tables(diag, anti), diag, anti)

    def swap_delta(self, state: QueensState, i: int, j: int) -> float:
        if i == j:
            return 0.0
        cfg = state.config
        n = self._n
        diag, anti = state.diag_counts, state.anti_counts
        vi, vj = int(cfg[i]), int(cfg[j])
        removals = (
            (diag, vi - i + n - 1),
            (diag, vj - j + n - 1),
            (anti, vi + i),
            (anti, vj + j),
        )
        additions = (
            (diag, vj - i + n - 1),
            (diag, vi - j + n - 1),
            (anti, vj + i),
            (anti, vi + j),
        )
        delta = 0.0
        touched: list[tuple[np.ndarray, int, int]] = []
        for table, idx in removals:
            c = table[idx]
            if c > 1:
                delta -= 1.0
            table[idx] = c - 1
            touched.append((table, idx, -1))
        for table, idx in additions:
            c = table[idx]
            if c >= 1:
                delta += 1.0
            table[idx] = c + 1
            touched.append((table, idx, +1))
        for table, idx, change in reversed(touched):
            table[idx] -= change
        return delta

    def swap_deltas(self, state: QueensState, i: int) -> np.ndarray:
        deltas = np.zeros(self._n, dtype=np.float64)
        for j in range(self._n):
            if j != i:
                deltas[j] = self.swap_delta(state, i, j)
        return deltas

    def apply_swap(
        self, state: QueensState, i: int, j: int, delta: float | None = None
    ) -> None:
        if i == j:
            return
        if delta is None:
            delta = self.swap_delta(state, i, j)
        cfg = state.config
        n = self._n
        vi, vj = int(cfg[i]), int(cfg[j])
        state.diag_counts[vi - i + n - 1] -= 1
        state.diag_counts[vj - j + n - 1] -= 1
        state.diag_counts[vj - i + n - 1] += 1
        state.diag_counts[vi - j + n - 1] += 1
        state.anti_counts[vi + i] -= 1
        state.anti_counts[vj + j] -= 1
        state.anti_counts[vj + i] += 1
        state.anti_counts[vi + j] += 1
        cfg[i], cfg[j] = vj, vi
        state.cost += delta

    def variable_errors(self, state: QueensState) -> np.ndarray:
        n = self._n
        cfg = state.config
        diag_c = state.diag_counts[cfg - self._idx + n - 1]
        anti_c = state.anti_counts[cfg + self._idx]
        return (np.maximum(diag_c - 1, 0) + np.maximum(anti_c - 1, 0)).astype(
            np.float64
        )

    def attacked_pairs(self, config: np.ndarray) -> int:
        """Number of attacking queen pairs (an alternative metric)."""
        config = np.asarray(config, dtype=np.int64)
        diag, anti = self._tables(config)
        pairs = (diag * (diag - 1) // 2).sum() + (anti * (anti - 1) // 2).sum()
        return int(pairs)
