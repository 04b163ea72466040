"""Min-Conflicts baseline (Minton et al. 1992), permutation variant.

Used by the ablation benches to justify Adaptive Search as the engine: the
paper's predecessor papers compare against simpler local search.  Each
iteration picks a *random conflicted* variable (any variable with non-zero
projected error) and executes the best swap for it; with probability
``noise`` a uniformly random swap is executed instead (random-walk escape,
as in WalkSAT).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.callbacks import CallbackList, IterationInfo
from repro.core.result import SolveResult, SolveStats
from repro.core.selection import argmin_random_tie
from repro.core.termination import Budget, TerminationReason
from repro.errors import SolverError
from repro.problems.base import Problem
from repro.util.rng import SeedLike, as_generator
from repro.util.timing import Stopwatch
from repro.util.validation import check_probability

__all__ = ["MinConflicts", "MinConflictsConfig"]


@dataclass(frozen=True)
class MinConflictsConfig:
    """Tuning knobs of the min-conflicts baseline."""

    target_cost: float = 0.0
    max_iterations: float = math.inf
    time_limit: float = math.inf
    restart_limit: float = math.inf
    max_restarts: int = 0
    noise: float = 0.1

    def __post_init__(self) -> None:
        if self.max_iterations <= 0:
            raise SolverError(f"max_iterations must be > 0, got {self.max_iterations}")
        if self.time_limit <= 0:
            raise SolverError(f"time_limit must be > 0, got {self.time_limit}")
        if self.restart_limit <= 0:
            raise SolverError(f"restart_limit must be > 0, got {self.restart_limit}")
        if self.max_restarts < 0:
            raise SolverError(f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.target_cost < 0:
            raise SolverError(f"target_cost must be >= 0, got {self.target_cost}")
        try:
            check_probability("noise", self.noise)
        except ValueError as err:
            raise SolverError(str(err)) from None


class MinConflicts:
    """Min-conflicts local search over the swap neighbourhood."""

    name = "min_conflicts"

    def __init__(self, config: MinConflictsConfig | None = None) -> None:
        self.config = config or MinConflictsConfig()

    def solve(
        self,
        problem: Problem,
        seed: SeedLike = None,
        *,
        callbacks: Optional[Sequence[object]] = None,
        initial_configuration: Optional[np.ndarray] = None,
    ) -> SolveResult:
        cfg = self.config
        rng = as_generator(seed)
        cbs = CallbackList(list(callbacks) if callbacks else [])
        stats = SolveStats()
        budget = Budget.from_limits(cfg.max_iterations, cfg.time_limit)
        stopwatch = Stopwatch().start()

        n = problem.size
        best_cost = math.inf
        best_config: np.ndarray | None = None
        reason: TerminationReason | None = None

        for restart_index in range(cfg.max_restarts + 1):
            if restart_index == 0 and initial_configuration is not None:
                start = np.array(initial_configuration, dtype=np.int64, copy=True)
            else:
                start = problem.random_configuration(rng)
            state = problem.init_state(start)
            if restart_index == 0:
                cbs.on_start(state.config, state.cost)
            else:
                stats.restarts += 1
                cbs.on_restart(restart_index, state.cost)
            if state.cost < best_cost:
                best_cost = state.cost
                best_config = state.copy_config()

            restart_iterations = 0
            while True:
                if state.cost <= cfg.target_cost:
                    reason = TerminationReason.SOLVED
                    break
                exhausted = budget.exhausted(stats.iterations)
                if exhausted is not None:
                    reason = exhausted
                    break
                if restart_iterations >= cfg.restart_limit:
                    break

                stats.iterations += 1
                restart_iterations += 1
                it = stats.iterations

                if rng.random() < cfg.noise:
                    # random-walk move: uniform swap
                    i = int(rng.integers(0, n))
                    j = int(rng.integers(0, n - 1))
                    if j >= i:
                        j += 1
                    delta = problem.swap_delta(state, i, j)
                    problem.apply_swap(state, i, j, delta)
                    stats.swaps += 1
                else:
                    errors = problem.variable_errors(state)
                    conflicted = np.flatnonzero(errors > 0)
                    if conflicted.size == 0:
                        # cost > target but no projected conflicts: the
                        # projection is too coarse here; fall back to uniform
                        conflicted = np.arange(n)
                    i = int(conflicted[rng.integers(0, conflicted.size)])
                    deltas = problem.swap_deltas(state, i)
                    deltas[i] = math.inf
                    j = argmin_random_tie(deltas, rng)
                    delta = float(deltas[j])
                    if delta > 0:
                        stats.local_minima += 1
                    problem.apply_swap(state, i, j, delta)
                    stats.swaps += 1
                    if delta == 0:
                        stats.plateau_moves += 1

                if state.cost < best_cost:
                    best_cost = state.cost
                    best_config = state.copy_config()
                keep_going = cbs.on_iteration(
                    IterationInfo(
                        iteration=it,
                        cost=state.cost,
                        best_cost=best_cost,
                        selected_variable=i,
                        selected_swap=j,
                        delta=delta,
                        restarts=stats.restarts,
                        resets=stats.resets,
                    )
                )
                if not keep_going:
                    reason = TerminationReason.CANCELLED
                    break

            if reason is not None:
                break

        if reason is None:
            reason = TerminationReason.RESTARTS_EXHAUSTED
        stats.wall_time = stopwatch.stop()
        assert best_config is not None
        solved = reason is TerminationReason.SOLVED
        cbs.on_finish(solved, best_cost)
        return SolveResult(
            solved=solved,
            config=best_config,
            cost=best_cost,
            reason=reason,
            stats=stats,
            problem_name=problem.name,
            solver_name=self.name,
        )
