"""Random-restart first-improvement hill climbing — the weakest baseline.

Each iteration samples random swaps until one does not worsen the cost (up
to ``max_probes`` attempts); if none is found the walk is considered stuck
and restarts.  Deliberately simple: it calibrates how much the adaptive
machinery (error projection, tabu marks, partial resets) buys on the paper's
benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.callbacks import CallbackList, IterationInfo
from repro.core.result import SolveResult, SolveStats
from repro.core.termination import Budget, TerminationReason
from repro.errors import SolverError
from repro.problems.base import Problem
from repro.util.rng import SeedLike, as_generator
from repro.util.timing import Stopwatch

__all__ = ["RandomRestartHillClimbing", "RandomRestartConfig"]


@dataclass(frozen=True)
class RandomRestartConfig:
    """Tuning knobs of the hill-climbing baseline."""

    target_cost: float = 0.0
    max_iterations: float = math.inf
    time_limit: float = math.inf
    max_restarts: int = 10**9
    max_probes: int = 0  # 0 = use 2 * n^... resolved per problem as 4n

    def __post_init__(self) -> None:
        if self.max_iterations <= 0:
            raise SolverError(f"max_iterations must be > 0, got {self.max_iterations}")
        if self.time_limit <= 0:
            raise SolverError(f"time_limit must be > 0, got {self.time_limit}")
        if self.max_restarts < 0:
            raise SolverError(f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.target_cost < 0:
            raise SolverError(f"target_cost must be >= 0, got {self.target_cost}")
        if self.max_probes < 0:
            raise SolverError(f"max_probes must be >= 0, got {self.max_probes}")


class RandomRestartHillClimbing:
    """First-improvement hill climbing with restarts on stagnation."""

    name = "random_restart_hc"

    def __init__(self, config: RandomRestartConfig | None = None) -> None:
        self.config = config or RandomRestartConfig()

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
        max_probes = cfg.max_probes or 4 * n
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

            stuck = False
            while not stuck:
                if state.cost <= cfg.target_cost:
                    reason = TerminationReason.SOLVED
                    break
                exhausted = budget.exhausted(stats.iterations)
                if exhausted is not None:
                    reason = exhausted
                    break

                stats.iterations += 1
                it = stats.iterations

                found = False
                i = j = -1
                delta = 0.0
                for _ in range(max_probes):
                    i = int(rng.integers(0, n))
                    j = int(rng.integers(0, n - 1))
                    if j >= i:
                        j += 1
                    delta = problem.swap_delta(state, i, j)
                    if delta < 0:
                        found = True
                        break
                if found:
                    problem.apply_swap(state, i, j, delta)
                    stats.swaps += 1
                else:
                    stats.local_minima += 1
                    stuck = True  # restart

                if state.cost < best_cost:
                    best_cost = state.cost
                    best_config = state.copy_config()
                keep_going = cbs.on_iteration(
                    IterationInfo(
                        iteration=it,
                        cost=state.cost,
                        best_cost=best_cost,
                        selected_variable=i,
                        selected_swap=j if found else -1,
                        delta=delta if found else 0.0,
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
