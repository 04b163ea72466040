"""Number Partitioning (CSPLib prob049), from the C adaptive-search suite.

Split ``1..N`` (``N`` a multiple of 4) into two halves of ``N/2`` numbers
with equal sums and equal sums of squares.  Permutation model: the first
``N/2`` positions form set A.

Cost (as in the C ``partit.c`` benchmark, up to scaling): ``|sum(A) -
sum(B)| + |sumsq(A) - sumsq(B)|``.  Only swaps across the half boundary
change anything; incremental state keeps set A's sum and sum of squares.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.errors import ProblemError
from repro.problems.base import Problem, WalkState
from repro.problems.registry import register_problem

__all__ = ["PartitionProblem", "PartitionState"]


class PartitionState(WalkState):
    """Walk state caching set A's sum and sum of squares."""

    __slots__ = ("sum_a", "sumsq_a")

    def __init__(
        self, config: np.ndarray, cost: float, sum_a: int, sumsq_a: int
    ) -> None:
        super().__init__(config, cost)
        self.sum_a = sum_a
        self.sumsq_a = sumsq_a


@register_problem("partition")
class PartitionProblem(Problem):
    """Balanced two-way partition of ``1..n`` with equal sums and square sums."""

    family = "partition"
    value_base = 1

    def __init__(self, n: int = 40) -> None:
        if n < 8 or n % 4 != 0:
            raise ProblemError(
                f"partition needs n >= 8 with n % 4 == 0 (else unsolvable), got {n}"
            )
        self._n = int(n)
        self.half = self._n // 2
        self.target_sum = self._n * (self._n + 1) // 4
        self.target_sumsq = self._n * (self._n + 1) * (2 * self._n + 1) // 12

    @property
    def size(self) -> int:
        return self._n

    def spec(self) -> Mapping[str, Any]:
        return {"family": self.family, "n": self._n}

    def default_solver_parameters(self) -> dict[str, Any]:
        # the end-game needs strong shakes: small reset_limit with a large
        # reset_fraction turns resets into the main escape mechanism.
        return {
            "freeze_loc_min": 12,
            "reset_limit": 3,
            "reset_fraction": 0.8,
            "prob_select_loc_min": 0.3,
            "restart_limit": 10**9,
        }

    # ------------------------------------------------------------------
    def _half_sums(self, config: np.ndarray) -> tuple[int, int]:
        a = config[: self.half]
        return int(a.sum()), int((a * a).sum())

    def _cost_from_sums(self, sum_a: int, sumsq_a: int) -> float:
        # |sumA - sumB| = |2*sumA - total|; same for squares
        d_sum = abs(2 * sum_a - 2 * self.target_sum)
        d_sq = abs(2 * sumsq_a - 2 * self.target_sumsq)
        return float(d_sum + d_sq)

    def cost(self, config: np.ndarray) -> float:
        config = np.asarray(config, dtype=np.int64)
        return self._cost_from_sums(*self._half_sums(config))

    # ------------------------------------------------------------------
    def init_state(self, config: np.ndarray) -> PartitionState:
        self.check_configuration(config)
        cfg = np.array(config, dtype=np.int64, copy=True)
        sum_a, sumsq_a = self._half_sums(cfg)
        return PartitionState(cfg, self._cost_from_sums(sum_a, sumsq_a), sum_a, sumsq_a)

    def swap_deltas(self, state: PartitionState, i: int) -> np.ndarray:
        """Vectorized deltas; swaps within one half are free (delta 0)."""
        cfg = state.config
        n = self._n
        in_a_i = i < self.half
        in_a = np.arange(n) < self.half
        cross = in_a != in_a_i
        vi = int(cfg[i])
        # value entering A minus value leaving A, per candidate j
        gain = np.where(in_a_i, cfg - vi, vi - cfg)
        gain_sq = np.where(in_a_i, cfg * cfg - vi * vi, vi * vi - cfg * cfg)
        new_sum = state.sum_a + np.where(cross, gain, 0)
        new_sq = state.sumsq_a + np.where(cross, gain_sq, 0)
        new_cost = np.abs(2 * new_sum - 2 * self.target_sum) + np.abs(
            2 * new_sq - 2 * self.target_sumsq
        )
        deltas = new_cost.astype(np.float64) - state.cost
        deltas[i] = 0.0
        return deltas

    def swap_delta(self, state: PartitionState, i: int, j: int) -> float:
        if i == j:
            return 0.0
        return float(self.swap_deltas(state, i)[j])

    def apply_swap(
        self, state: PartitionState, i: int, j: int, delta: float | None = None
    ) -> None:
        if i == j:
            return
        cfg = state.config
        in_a_i, in_a_j = i < self.half, j < self.half
        vi, vj = int(cfg[i]), int(cfg[j])
        if in_a_i != in_a_j:
            leaving, entering = (vi, vj) if in_a_i else (vj, vi)
            state.sum_a += entering - leaving
            state.sumsq_a += entering * entering - leaving * leaving
        cfg[i], cfg[j] = vj, vi
        state.cost = self._cost_from_sums(state.sum_a, state.sumsq_a)

    def variable_errors(self, state: PartitionState) -> np.ndarray:
        """Larger values on the too-heavy side look worse.

        When set A is too heavy, its large members are the natural culprits
        (and symmetrically for B); weight each position by its value so the
        solver attacks high-leverage numbers first.  All-zero iff solved.
        """
        if state.cost == 0:
            return np.zeros(self._n, dtype=np.float64)
        cfg = state.config.astype(np.float64)
        in_a = np.arange(self._n) < self.half
        imbalance = (state.sum_a - self.target_sum) + (
            state.sumsq_a - self.target_sumsq
        )
        heavy_a = imbalance >= 0
        heavy_side = in_a if heavy_a else ~in_a
        errors = np.where(heavy_side, cfg, np.max(cfg) - cfg + 1)
        return errors

    # ------------------------------------------------------------------
    def partition_sets(self, config: np.ndarray) -> tuple[list[int], list[int]]:
        """The two number sets (sorted) encoded by ``config``."""
        cfg = np.asarray(config, dtype=np.int64)
        return (
            sorted(cfg[: self.half].tolist()),
            sorted(cfg[self.half :].tolist()),
        )
