"""All Interval Series (CSPLib prob007).

Find a permutation ``p`` of ``0 .. n-1`` such that the absolute differences
between adjacent elements ``|p[i+1] - p[i]|`` are all distinct (hence a
permutation of ``1 .. n-1``).

Cost: for every difference value occurring ``c > 1`` times among the ``n-1``
adjacent differences, add ``c - 1``; zero iff the series is all-interval.
A swap of two positions only changes the (at most four) differences adjacent
to them, so a pointwise delta is O(1).

That cost is ``(n - 1) - distinct``, and the differences fit a machine word
as bits, so the all-``j`` delta vector needs no count table at all: the
post-swap differences of every candidate come out of one indicator-table
product, and ``distinct`` is the popcount of their OR-reduced bit masks (the
identity :mod:`repro.vector.problems` runs across lanes, here for one walk).
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Mapping

import numpy as np

from repro.errors import ProblemError
from repro.problems.base import Problem, WalkState
from repro.problems.registry import register_problem

__all__ = ["AllIntervalProblem", "AllIntervalState"]


class AllIntervalState(WalkState):
    """Walk state caching difference-value occurrence counts."""

    __slots__ = ("counts",)

    def __init__(self, config: np.ndarray, cost: float, counts: np.ndarray) -> None:
        super().__init__(config, cost)
        #: ``counts[v]`` = occurrences of absolute difference ``v`` (0 unused)
        self.counts = counts


@register_problem("all_interval")
class AllIntervalProblem(Problem):
    """All Interval Series of order ``n``."""

    family = "all_interval"

    #: widest series whose differences fit the int64 bit mask of
    #: :meth:`swap_deltas`; beyond it the base class's pointwise loop runs
    MASK_MAX_N = 62

    def __init__(self, n: int = 14) -> None:
        if n < 2:
            raise ProblemError(f"all_interval needs n >= 2, got {n}")
        self._n = int(n)

    @property
    def size(self) -> int:
        return self._n

    def spec(self) -> Mapping[str, Any]:
        return {"family": self.family, "n": self._n}

    def default_solver_parameters(self) -> dict[str, Any]:
        # tuned on n = 12..20 (see benchmarks/bench_abl_tuning.py); plateaus
        # dominate this landscape so half of local-min moves are accepted.
        n = self._n
        return {
            "freeze_loc_min": 5,
            "reset_limit": max(4, n // 2),
            "reset_fraction": 0.25,
            "prob_select_loc_min": 0.5,
            "restart_limit": 10**9,
        }

    @cached_property
    def _endpoint(self) -> np.ndarray:
        """``[pos, d] = [d + 1 == pos] - [d == pos]``: how difference slot
        ``d`` (between positions ``d`` and ``d + 1``) moves with the value
        at ``pos``."""
        slot = np.arange(self._n - 1)
        pos = np.arange(self._n)[:, None]
        return (slot + 1 == pos).astype(np.int64) - (slot == pos)

    # ------------------------------------------------------------------
    def _count_table(self, config: np.ndarray) -> np.ndarray:
        counts = np.zeros(self._n, dtype=np.int64)
        diffs = np.abs(np.diff(config))
        np.add.at(counts, diffs, 1)
        return counts

    @staticmethod
    def _cost_from_counts(counts: np.ndarray) -> float:
        return float(np.maximum(counts - 1, 0).sum())

    def cost(self, config: np.ndarray) -> float:
        config = np.asarray(config, dtype=np.int64)
        return self._cost_from_counts(self._count_table(config))

    # ------------------------------------------------------------------
    def init_state(self, config: np.ndarray) -> AllIntervalState:
        self.check_configuration(config)
        cfg = np.array(config, dtype=np.int64, copy=True)
        counts = self._count_table(cfg)
        return AllIntervalState(cfg, self._cost_from_counts(counts), counts)

    def _affected_diff_positions(self, i: int, j: int) -> list[int]:
        """Indices d such that diff d (between positions d and d+1) changes."""
        candidates = {i - 1, i, j - 1, j}
        return sorted(d for d in candidates if 0 <= d < self._n - 1)

    def swap_delta(self, state: AllIntervalState, i: int, j: int) -> float:
        if i == j:
            return 0.0
        cfg = state.config
        counts = state.counts
        positions = self._affected_diff_positions(i, j)

        def value_at(k: int, swapped: bool) -> int:
            if swapped:
                if k == i:
                    return int(cfg[j])
                if k == j:
                    return int(cfg[i])
            return int(cfg[k])

        delta = 0.0
        touched: list[tuple[int, int]] = []
        for d in positions:
            ov = abs(value_at(d + 1, False) - value_at(d, False))
            nv = abs(value_at(d + 1, True) - value_at(d, True))
            if ov == nv:
                continue
            c = counts[ov]
            if c > 1:
                delta -= 1.0
            counts[ov] = c - 1
            touched.append((ov, -1))
            c = counts[nv]
            if c >= 1:
                delta += 1.0
            counts[nv] = c + 1
            touched.append((nv, +1))
        for v, change in reversed(touched):
            counts[v] -= change
        return delta

    def swap_deltas(self, state: AllIntervalState, i: int) -> np.ndarray:
        n = self._n
        if n > self.MASK_MAX_N:
            return super().swap_deltas(state, i)  # pointwise, j by j
        cfg = state.config
        endpoint = self._endpoint
        # row j: the signed differences after swapping i <-> j
        diffs = (endpoint[i] - endpoint) * (cfg - cfg[i])[:, None]
        diffs += cfg[1:] - cfg[:-1]
        np.abs(diffs, out=diffs)
        seen = np.bitwise_or.reduce(np.left_shift(1, diffs), axis=1)
        # cost = (n - 1) - distinct, before and after
        deltas = (n - 1 - state.cost) - np.bitwise_count(seen)
        deltas[i] = 0.0
        return deltas

    def apply_swap(
        self,
        state: AllIntervalState,
        i: int,
        j: int,
        delta: float | None = None,
    ) -> None:
        if i == j:
            return
        cfg = state.config
        counts = state.counts
        positions = self._affected_diff_positions(i, j)
        old = [abs(int(cfg[d + 1]) - int(cfg[d])) for d in positions]
        cfg[i], cfg[j] = cfg[j], cfg[i]
        new = [abs(int(cfg[d + 1]) - int(cfg[d])) for d in positions]
        # moving the counts prices the swap on the way: ``delta`` is unused
        for ov, nv in zip(old, new):
            c = counts[ov]
            if c > 1:
                state.cost -= 1
            counts[ov] = c - 1
            c = counts[nv]
            if c >= 1:
                state.cost += 1
            counts[nv] = c + 1

    def variable_errors(self, state: AllIntervalState) -> np.ndarray:
        """A position is erroneous when an adjacent difference is duplicated."""
        cfg = state.config
        diffs = np.abs(np.diff(cfg))
        dup = (state.counts[diffs] > 1).astype(np.float64)
        errors = np.zeros(self._n, dtype=np.float64)
        errors[:-1] += dup
        errors[1:] += dup
        return errors

    # ------------------------------------------------------------------
    def series_differences(self, config: np.ndarray) -> np.ndarray:
        """The adjacent absolute differences of a configuration."""
        return np.abs(np.diff(np.asarray(config, dtype=np.int64)))
