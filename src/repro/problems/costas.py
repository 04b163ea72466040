"""The Costas Array Problem (CAP).

A Costas array of order ``n`` is an ``n x n`` grid with one mark per row and
column such that the ``n(n-1)/2`` displacement vectors between marks are all
distinct.  As in the paper we use the permutation model: configuration
``p[0..n-1]`` gives the row of the mark in each column, and the Costas
property requires, for every column distance ``d``, that the differences
``p[i+d] - p[i]`` are pairwise distinct.

Cost function (the one used by the C ``costas.c`` benchmark, up to constant
factors): for every distance ``d`` and difference value ``v`` occurring
``c > 1`` times, add ``c - 1``.  Zero iff the permutation is a Costas array.

Implementation note: this is the solver's hottest problem (the paper's CAP
runs dominate the evaluation).  One swap touches only O(n) difference
pairs, each a scalar bucket update — a regime where numpy's per-call
overhead on tiny arrays loses badly — so the incremental state and the
pointwise kernels (``swap_delta``, ``apply_swap``, ``variable_errors``) are
plain Python (nested count lists, precomputed pair tuples), with the numpy
``config`` vector kept in sync for the generic protocol.  The all-``j``
delta vector is the opposite regime, O(n^2) bucket updates per call, and is
closed-form instead: the cost is ``n(n-1)/2 - sum_d distinct_d``, the
differences at one distance fit a machine word as bits, so the post-swap
difference triangle of every candidate comes out of one indicator-table
product and ``distinct_d`` is a popcount of OR-reduced masks (the identity
:mod:`repro.vector.problems` runs across lanes, here for one walk).
``tests/problems`` asserts equivalence with the reference vectorized cost
and of the closed form with the pointwise kernel.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Mapping

import numpy as np

from repro.errors import ProblemError
from repro.problems.base import Problem, WalkState
from repro.problems.registry import register_problem

__all__ = ["CostasProblem", "CostasState"]


class CostasState(WalkState):
    """Walk state with the per-distance difference-count table.

    ``counts[d][v + n - 1]`` is the number of pairs at column distance ``d``
    whose difference equals ``v``; ``values`` mirrors ``config`` as a plain
    Python list for fast scalar access in the hot path.
    """

    __slots__ = ("counts", "values")

    def __init__(
        self,
        config: np.ndarray,
        cost: float,
        counts: list[list[int]],
        values: list[int],
    ) -> None:
        super().__init__(config, cost)
        self.counts = counts
        self.values = values


@register_problem("costas")
class CostasProblem(Problem):
    """Costas Array Problem of order ``n``."""

    family = "costas"

    #: largest order whose ``2n - 1`` difference values fit the int64 bit
    #: mask of :meth:`swap_deltas`; beyond it the base class's pointwise
    #: loop runs
    MASK_MAX_N = 32

    def __init__(self, n: int = 12) -> None:
        if n < 2:
            raise ProblemError(f"costas needs n >= 2, got {n}")
        self._n = int(n)
        # all ordered index pairs (a, b) with b > a, as plain tuples
        self._pairs: list[tuple[int, int, int]] = [
            (a, a + d, d) for d in range(1, n) for a in range(n - d)
        ]
        # pairs touching column k, excluding nothing
        self._touch: list[list[tuple[int, int, int]]] = [
            [p for p in self._pairs if p[0] == k or p[1] == k] for k in range(n)
        ]
        # vectorized pair tables for the reference cost / error projection
        self._pair_a = np.asarray([p[0] for p in self._pairs], dtype=np.int64)
        self._pair_b = np.asarray([p[1] for p in self._pairs], dtype=np.int64)
        self._pair_d = self._pair_b - self._pair_a

    @cached_property
    def _triangle(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The difference triangle as a full ``(n-1, n-1)`` rectangle.

        Returns ``(left, right, endpoint)``: slot ``[a, d-1]`` holds the
        pair ``(a, a + d)``; a slot past the triangle's edge repeats the
        pair ``(0, d)`` of its column, which an OR-reduction over the
        column cannot see.  ``endpoint[a, d-1, pos]`` is
        ``[right == pos] - [left == pos]``: how the slot's difference
        moves with the value at ``pos``.
        """
        n = self._n
        a = np.arange(n - 1)[:, None]
        d = np.arange(1, n)[None, :]
        left = np.where(a + d < n, a, 0)
        right = left + d
        pos = np.arange(n)
        endpoint = (right[:, :, None] == pos).astype(np.int64) - (
            left[:, :, None] == pos
        )
        return left, right, endpoint

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self._n

    def spec(self) -> Mapping[str, Any]:
        return {"family": self.family, "n": self._n}

    def default_solver_parameters(self) -> dict[str, Any]:
        # tuned on n = 9..14 (see benchmarks/bench_abl_tuning.py)
        n = self._n
        return {
            "freeze_loc_min": 3,
            "reset_limit": max(2, n // 4),
            "reset_fraction": 0.25,
            "prob_select_loc_min": 0.5,
            "restart_limit": 10**9,
        }

    # ------------------------------------------------------------------
    # reference semantics (vectorized, stateless)
    # ------------------------------------------------------------------
    def _count_table(self, config: np.ndarray) -> np.ndarray:
        n = self._n
        counts = np.zeros((n, 2 * n - 1), dtype=np.int64)
        diffs = config[self._pair_b] - config[self._pair_a] + n - 1
        np.add.at(counts, (self._pair_d, diffs), 1)
        return counts

    @staticmethod
    def _cost_from_counts(counts: np.ndarray) -> float:
        return float(np.maximum(counts - 1, 0).sum())

    def cost(self, config: np.ndarray) -> float:
        config = np.asarray(config, dtype=np.int64)
        return self._cost_from_counts(self._count_table(config))

    # ------------------------------------------------------------------
    # incremental protocol (pure-Python hot path)
    # ------------------------------------------------------------------
    def init_state(self, config: np.ndarray) -> CostasState:
        self.check_configuration(config)
        cfg = np.array(config, dtype=np.int64, copy=True)
        values = [int(v) for v in cfg]
        n = self._n
        off = n - 1
        counts = [[0] * (2 * n - 1) for _ in range(n)]
        cost = 0
        for a, b, d in self._pairs:
            v = values[b] - values[a] + off
            row = counts[d]
            if row[v]:
                cost += 1
            row[v] += 1
        return CostasState(cfg, float(cost), counts, values)

    def _swap_events(
        self, state: CostasState, i: int, j: int
    ) -> list[tuple[int, int, int]]:
        """(d, old_bucket, new_bucket) for every pair whose difference moves."""
        values = state.values
        off = self._n - 1
        vi = values[i]
        vj = values[j]
        dv = vj - vi
        events: list[tuple[int, int, int]] = []
        for a, b, d in self._touch[i]:
            if a == j or b == j:
                continue  # the (i, j) pair is handled below
            old = values[b] - values[a]
            new = old - dv if a == i else old + dv
            if old != new:
                events.append((d, old + off, new + off))
        for a, b, d in self._touch[j]:
            if a == i or b == i:
                continue
            old = values[b] - values[a]
            new = old + dv if a == j else old - dv
            if old != new:
                events.append((d, old + off, new + off))
        a, b = (i, j) if i < j else (j, i)
        old = values[b] - values[a]
        if old != -old:
            events.append((b - a, old + off, -old + off))
        return events

    def swap_delta(self, state: CostasState, i: int, j: int) -> float:
        if i == j:
            return 0.0
        counts = state.counts
        events = self._swap_events(state, i, j)
        delta = 0
        for d, ov, nv in events:
            row = counts[d]
            c = row[ov]
            if c > 1:
                delta -= 1
            row[ov] = c - 1
            c = row[nv]
            if c >= 1:
                delta += 1
            row[nv] = c + 1
        # roll back (this was only a probe)
        for d, ov, nv in events:
            row = counts[d]
            row[ov] += 1
            row[nv] -= 1
        return float(delta)

    def swap_deltas(self, state: CostasState, i: int) -> np.ndarray:
        n = self._n
        if n > self.MASK_MAX_N:
            return super().swap_deltas(state, i)  # pointwise, j by j
        cfg = state.config
        left, right, endpoint = self._triangle
        # [a, d-1, j]: the triangle after swapping i <-> j, shifted to >= 0
        diffs = (endpoint[:, :, i, None] - endpoint) * (cfg - cfg[i])
        diffs += (cfg[right] - cfg[left] + (n - 1))[:, :, None]
        seen = np.bitwise_or.reduce(np.left_shift(1, diffs), axis=0)
        # cost = n(n-1)/2 - sum_d distinct_d, before and after
        deltas = (n * (n - 1) // 2 - state.cost) - np.bitwise_count(seen).sum(
            axis=0
        )
        deltas[i] = 0.0
        return deltas

    def apply_swap(
        self, state: CostasState, i: int, j: int, delta: float | None = None
    ) -> None:
        if i == j:
            return
        counts = state.counts
        # moving the counts prices the swap on the way: ``delta`` is unused
        moved = 0
        for d, ov, nv in self._swap_events(state, i, j):
            row = counts[d]
            c = row[ov]
            if c > 1:
                moved -= 1
            row[ov] = c - 1
            c = row[nv]
            if c >= 1:
                moved += 1
            row[nv] = c + 1
        values = state.values
        values[i], values[j] = values[j], values[i]
        cfg = state.config
        cfg[i], cfg[j] = cfg[j], cfg[i]
        state.cost += moved

    def variable_errors(self, state: CostasState) -> np.ndarray:
        n = self._n
        off = n - 1
        values = state.values
        counts = state.counts
        errors = [0.0] * n
        for a, b, d in self._pairs:
            if counts[d][values[b] - values[a] + off] > 1:
                errors[a] += 1.0
                errors[b] += 1.0
        return np.asarray(errors)

    # ------------------------------------------------------------------
    def render(self, config: np.ndarray) -> str:
        """ASCII picture of the marks (rows printed top-down)."""
        n = self._n
        rows = []
        for r in range(n):
            rows.append(" ".join("X" if config[c] == r else "." for c in range(n)))
        return "\n".join(rows)
