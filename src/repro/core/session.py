"""Resumable Adaptive Search walks.

:class:`AdaptiveSearchSession` is the stepwise form of the engine: one walk
whose iterations are driven externally in chunks.  It exists for three
consumers:

- :class:`repro.core.solver.AdaptiveSearch` — ``solve`` is :meth:`run` here
  wherever no compiled lane runs the walk, and its witness where one does;
- :mod:`repro.parallel.cooperative` — the paper's *future work*: dependent
  multi-walks that interleave many sessions and exchange elite
  configurations between chunks;
- checkpointing — a session can be snapshotted to a plain dict (config,
  marks, counters, RNG state) and resumed later, exactly.

Semantics are identical to the C solver loop: see
:mod:`repro.core.solver` for the algorithm description.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence

import numpy as np

from repro.core.callbacks import CallbackList, IterationInfo
from repro.core.config import AdaptiveSearchConfig
from repro.core.result import SolveResult, SolveStats
from repro.core.termination import Budget, TerminationReason
from repro.errors import SolverError
from repro.problems.base import Problem
from repro.util.rng import SeedLike, as_generator
from repro.util.timing import Stopwatch

__all__ = ["AdaptiveSearchSession"]


class AdaptiveSearchSession:
    """One resumable Adaptive Search walk.

    Parameters
    ----------
    problem:
        the instance to solve.
    config:
        a fully resolved configuration (no problem-default merging happens
        here; use :meth:`AdaptiveSearch.effective_config` when needed).
    seed:
        RNG for this walk.
    callbacks:
        optional observers (same protocol as the solver).
    initial_configuration:
        pins the first start; restarts re-randomize.

    The walk advances only inside :meth:`step`; ``stats.wall_time``
    accumulates the time actually spent stepping, so interleaved sessions
    measure their own compute correctly.
    """

    solver_name = "adaptive_search"

    #: iterations per step between budget checks in :meth:`run` (matches
    #: the default time-poll granularity of :class:`Budget`)
    _CHUNK = 64

    def __init__(
        self,
        problem: Problem,
        config: AdaptiveSearchConfig | None = None,
        seed: SeedLike = None,
        *,
        callbacks: Optional[Sequence[object]] = None,
        initial_configuration: Optional[np.ndarray] = None,
    ) -> None:
        self.problem = problem
        self.config = config or AdaptiveSearchConfig()
        self.rng = as_generator(seed)
        self.callbacks = CallbackList(list(callbacks) if callbacks else [])
        self.stats = SolveStats()
        self.reason: TerminationReason | None = None
        self.best_cost = math.inf
        self.best_config: np.ndarray | None = None
        self._restart_index = 0
        self._restart_iterations = 0
        self._stopwatch = Stopwatch()

        if initial_configuration is not None:
            start = np.array(initial_configuration, dtype=np.int64, copy=True)
        else:
            start = problem.random_configuration(self.rng)
        self.state = problem.init_state(start)
        self.marks = np.zeros(problem.size, dtype=np.int64)
        self.callbacks.on_start(self.state.config, self.state.cost)
        self._track_best()

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    @property
    def cost(self) -> float:
        """Cost of the walk's *current* configuration."""
        return self.state.cost

    @property
    def solved(self) -> bool:
        return self.reason is TerminationReason.SOLVED

    @property
    def finished(self) -> bool:
        return self.reason is not None

    def current_config(self) -> np.ndarray:
        return self.state.copy_config()

    @property
    def elapsed(self) -> float:
        """Wall time spent inside :meth:`step` so far."""
        return self._stopwatch.elapsed

    # ------------------------------------------------------------------
    def step(self, max_new_iterations: int) -> TerminationReason | None:
        """Advance up to ``max_new_iterations`` iterations.

        Returns a :class:`TerminationReason` when the walk ends (solved,
        cancelled by a callback, or restarts exhausted) and ``None`` when
        the iteration allowance ran out first.  Restarts and resets do not
        end a step.  Calling ``step`` on a finished session returns its
        reason without advancing.
        """
        if max_new_iterations < 0:
            raise SolverError(
                f"max_new_iterations must be >= 0, got {max_new_iterations}"
            )
        if self.reason is not None:
            return self.reason
        cfg = self.config
        problem = self.problem
        state = self.state
        rng = self.rng
        stats = self.stats
        marks = self.marks
        # an IterationInfo is built only for someone to read it
        observe = (
            self.callbacks.on_iteration
            if self.callbacks.observes_iterations
            else None
        )
        inf = math.inf
        consumed = 0

        with self._stopwatch:
            while True:
                if state.cost <= cfg.target_cost:
                    return self._finish(TerminationReason.SOLVED)
                if self._restart_iterations >= cfg.restart_limit:
                    if self._restart_index >= cfg.max_restarts:
                        return self._finish(TerminationReason.RESTARTS_EXHAUSTED)
                    self._begin_restart()
                    state = self.state
                    continue
                if consumed >= max_new_iterations:
                    return None
                consumed += 1

                stats.iterations += 1
                self._restart_iterations += 1
                it = stats.iterations

                # worst variable that is not frozen, then its best swap
                # (never with itself); each tie is broken by one draw and
                # a unique extremum draws nothing, as in
                # repro.core.selection
                errors = np.where(
                    marks < it, problem.variable_errors(state), -inf
                )
                worst = errors.max()
                if worst == -inf:  # every variable is frozen
                    self._partial_reset(it)
                    continue
                ties = (errors == worst).nonzero()[0]
                if len(ties) > 1:
                    i = int(ties[rng.integers(0, len(ties))])
                else:
                    i = int(ties[0])
                deltas = problem.swap_deltas(state, i)
                deltas[i] = inf
                best = deltas.min()
                ties = (deltas == best).nonzero()[0]
                if len(ties) > 1:
                    j = int(ties[rng.integers(0, len(ties))])
                else:
                    j = int(ties[0])
                delta = float(best)

                executed = -1
                if delta < 0 or (delta == 0 and not cfg.plateau_is_local_min):
                    problem.apply_swap(state, i, j, delta)
                    stats.swaps += 1
                    if delta == 0:
                        stats.plateau_moves += 1
                    executed = j
                    if cfg.freeze_swap > 0:
                        marks[i] = it + cfg.freeze_swap
                        marks[j] = it + cfg.freeze_swap
                else:
                    # local minimum w.r.t. the selected variable: frozen in
                    # *both* branches (as in the C solver — otherwise
                    # accepted degrading moves on the same hot variable turn
                    # the walk into a high-cost random walk)
                    stats.local_minima += 1
                    marks[i] = it + cfg.freeze_loc_min
                    stats.frozen_variables += 1
                    if delta < inf and rng.random() < cfg.prob_select_loc_min:
                        problem.apply_swap(state, i, j, delta)
                        stats.swaps += 1
                        stats.accepted_local_min_moves += 1
                        if delta == 0:
                            stats.plateau_moves += 1
                        executed = j
                        if cfg.freeze_swap > 0:
                            marks[j] = it + cfg.freeze_swap
                    elif np.count_nonzero(marks > it) > cfg.reset_limit:
                        self._partial_reset(it)

                if state.cost < self.best_cost:
                    self._track_best()
                if observe is not None and not observe(
                    IterationInfo(
                        iteration=it,
                        cost=state.cost,
                        best_cost=self.best_cost,
                        selected_variable=i,
                        selected_swap=executed,
                        delta=delta if executed >= 0 else 0.0,
                        restarts=stats.restarts,
                        resets=stats.resets,
                    )
                ):
                    return self._finish(TerminationReason.CANCELLED)

    def run(self) -> SolveResult:
        """Step until solved or the configuration's iteration / time budget
        is exhausted, and package the walk."""
        cfg = self.config
        stats = self.stats
        budget = Budget.from_limits(cfg.max_iterations, cfg.time_limit)
        reason: TerminationReason | None = None
        while reason is None:
            exhausted = budget.exhausted(stats.iterations)
            if exhausted is not None:
                # a solved/finished session takes precedence over budgets
                reason = self.step(0) or exhausted
                break
            remaining = cfg.max_iterations - stats.iterations
            chunk = self._CHUNK if math.isinf(remaining) else int(
                min(self._CHUNK, remaining)
            )
            reason = self.step(chunk)

        stats.wall_time = self.elapsed
        assert self.best_config is not None
        solved = reason is TerminationReason.SOLVED
        self.callbacks.on_finish(solved, self.best_cost)
        return SolveResult(
            solved=solved,
            config=self.best_config,
            cost=self.best_cost,
            reason=reason,
            stats=stats,
            problem_name=self.problem.name,
            solver_name=self.solver_name,
        )

    # ------------------------------------------------------------------
    def inject_configuration(
        self, config: np.ndarray, *, count_as_restart: bool = False
    ) -> None:
        """Adopt an external configuration (cooperative multi-walk jump).

        Clears tabu marks and the per-restart iteration counter — the walk
        effectively restarts from the injected point, which is the paper's
        "restart from recorded interesting crossroads".  Finished sessions
        cannot be injected into.
        """
        if self.reason is not None:
            raise SolverError("cannot inject into a finished session")
        self.problem.check_configuration(config)
        self.state = self.problem.init_state(
            np.array(config, dtype=np.int64, copy=True)
        )
        self.marks[:] = 0
        self._restart_iterations = 0
        if count_as_restart:
            self.stats.restarts += 1
            self.callbacks.on_restart(self._restart_index, self.state.cost)
        self._track_best()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Portable snapshot of the full walk state (plain dict).

        Restoring with :meth:`from_snapshot` resumes the walk *exactly*:
        configuration, tabu marks, counters, best-so-far and RNG state all
        round-trip.  The problem and configuration objects are not included;
        the caller supplies equal ones on restore.
        """
        import dataclasses

        return {
            "config_vector": self.state.config.tolist(),
            "marks": self.marks.tolist(),
            "stats": dataclasses.asdict(self.stats),
            "best_cost": self.best_cost,
            "best_config": (
                self.best_config.tolist() if self.best_config is not None else None
            ),
            "restart_index": self._restart_index,
            "restart_iterations": self._restart_iterations,
            "reason": self.reason.name if self.reason is not None else None,
            "rng_state": self.rng.bit_generator.state,
        }

    @classmethod
    def from_snapshot(
        cls,
        problem: Problem,
        config: AdaptiveSearchConfig,
        snapshot: dict[str, Any],
        *,
        callbacks: Optional[Sequence[object]] = None,
    ) -> "AdaptiveSearchSession":
        session = cls.__new__(cls)
        session.problem = problem
        session.config = config
        session.callbacks = CallbackList(list(callbacks) if callbacks else [])
        session.rng = np.random.default_rng()
        session.rng.bit_generator.state = snapshot["rng_state"]
        session.stats = SolveStats(**snapshot["stats"])
        session.reason = (
            TerminationReason[snapshot["reason"]]
            if snapshot["reason"] is not None
            else None
        )
        session.best_cost = snapshot["best_cost"]
        session.best_config = (
            np.asarray(snapshot["best_config"], dtype=np.int64)
            if snapshot["best_config"] is not None
            else None
        )
        session._restart_index = snapshot["restart_index"]
        session._restart_iterations = snapshot["restart_iterations"]
        session._stopwatch = Stopwatch()
        session.state = problem.init_state(
            np.asarray(snapshot["config_vector"], dtype=np.int64)
        )
        session.marks = np.asarray(snapshot["marks"], dtype=np.int64)
        return session

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _track_best(self) -> None:
        if self.state.cost < self.best_cost:
            self.best_cost = self.state.cost
            self.best_config = self.state.copy_config()

    def _finish(self, reason: TerminationReason) -> TerminationReason:
        self.reason = reason
        return reason

    def _begin_restart(self) -> None:
        self._restart_index += 1
        self.stats.restarts += 1
        start = self.problem.random_configuration(self.rng)
        self.state = self.problem.init_state(start)
        self.marks[:] = 0
        self._restart_iterations = 0
        self.callbacks.on_restart(self._restart_index, self.state.cost)
        self._track_best()

    def _partial_reset(self, iteration: int) -> None:
        self.problem.partial_reset(
            self.state, self.config.reset_fraction, self.rng
        )
        self.stats.resets += 1
        self.marks[:] = 0
        self.callbacks.on_reset(iteration, self.state.cost)
