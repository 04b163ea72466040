"""The vector-walk engine: ``k`` independent walks, lock-step in one process.

:class:`VectorWalkEngine` advances ``k`` Adaptive Search walks ("lanes")
in lock-step.  Each round every live lane executes exactly one iteration
of the scalar loop of :class:`repro.core.session.AdaptiveSearchSession` —
worst-variable selection, best-swap evaluation, tabu/plateau/local-minimum
bookkeeping, partial resets and restarts.  Where ``lanes.c`` is loaded and
has a kind for the problem (:func:`repro.vector.problems.lane_kernel`
answers ``"compiled"``) the rows are compiled lanes and one C call runs
rounds of all of them; everywhere else every row is a session of its own.

Equivalence contract
--------------------
Lane ``l`` seeded with ``seeds[l]`` produces the *bit-identical* trajectory
(configurations, costs, marks, counters, RNG stream) of an
``AdaptiveSearchSession`` walk with the same seed and configuration:

- all compiled quantities (errors, deltas, costs) are exact integers,
  computed by kernels verified equal to the scalar protocol;
- RNG draws happen per lane, on that lane's own generator, at exactly the
  scalar call sites (tie-breaks, local-minimum acceptance, reset swaps,
  restart shuffles) — lanes are independent streams, so batching never
  reorders draws *within* a lane;
- the scalar loop's order of checks is kept: solved, restart, budget,
  iterate.

The property tests in ``tests/vector`` pin this down across problem
families, widths and reset/restart-heavy regimes, on both kinds of row.

Every row is a live lane
------------------------
The rows of a batch are the lanes still running and nothing else.  A lane
that finishes is *retired* at the pre-phase after the round it finishes
in (a compiled lane that its observer cancels, at once): its result is
captured and its row leaves the batch.  A live lane's
iteration count *is* the round number.  ``iterations`` / ``cost`` /
``best_cost`` / ``active`` are assembled per *original* lane on demand.

One buffer
----------
A compiled batch lives in one int64 buffer, allocated by its
:class:`~repro.vector.problems.CompiledLanes`::

    [ LaneBlock | configs  marks  best_configs | stats | cost  best_cost |
      dirty ... bitgen | err  deltas  cand | state ]

The ``LaneBlock`` that ``lanes_run`` reads is a ctypes view of the first
words.  The engine's own arrays come next, each a view of the buffer
(:meth:`~repro.vector.problems.CompiledLanes.lane_arrays` hands them over):
the ``(m, n)`` configurations, marks and best configurations, the
``(7, m)`` counters, and the ``(m,)`` costs and best costs.  Then the
per-lane hand-off vectors, the ``(m, n)`` scratch and every lane's derived
state.  The block is complete when it is built.  Its constant words (kind,
shape, table address, solver parameters) come from a layout derived once
per problem and held by it (``problem.derived``, never pickled), and its
pointers are offsets into the buffer plus the buffer's address.  Only each
lane's generator address is written later, when the batch first runs.  A
retirement that leaves lanes behind moves their rows into a fresh buffer at
the new width; a batch that retires whole keeps its arrays as they are.

Two kinds of row, one lifecycle
-------------------------------
The lifecycle around a round — seeding, the pre-phase, retirement,
``first_wins``, callbacks, the time limit, results — is one body of code.
The iteration exists twice.  The compiled one is ``lanes_run`` of
``lanes.c``: per lane the whole scalar iteration, partial reset included,
with every draw made in C *through the lane's own generator* (NumPy's
``bitgen_t`` interface; the one NumPy algorithm C reproduces, the
bounded-integer map of ``Generator.integers``, is checked draw for draw
when the library loads).  Without it — no compiler, a failed handshake, a
problem with no kind — each row is an ``AdaptiveSearchSession`` on the
lane's generator, advanced by ``step(1)`` a round: the session *is* the
scalar walk, so there is nothing to hold equal.  It calls its own
``on_start`` / ``on_iteration`` / ``on_reset`` / ``on_restart``; the engine
calls ``on_finish``.  Its pre-phase is ``step(0)``, as in
``AdaptiveSearchSession.run``.  One difference shows between callbacks
only: a session restarts at the end of the round its iteration made the
restart due, a compiled lane at the pre-phase after it — the same walk,
one ``round_callback`` apart.  Which kind runs is observed, never chosen:
there is no argument, option or environment variable for it.

``run`` advances to the next event
----------------------------------
Nothing in Python happens inside a compiled walk except restarts,
retirement and whoever watches.  So after the pre-phase ``run`` asks C for
every round up to the next one of those — ``min(next restart due,
max_iterations) - rounds`` — and C returns early after the round in which a
lane reaches the target.  One call is capped at
:data:`_LANE_ITERATIONS_PER_CALL` lane-iterations (tens of milliseconds):
a ctypes call cannot be interrupted, so that is the grain at which
``time_limit`` is checked and a signal is delivered.  A batch with
observers or a ``round_callback`` runs one round per call and tells them
what a session tells them.  The call releases the GIL.  How rounds are
grouped into calls changes no walk (``tests/vector/test_call_grouping``).

One lane is ``AdaptiveSearch.solve``
-----------------------------------
:meth:`repro.core.solver.AdaptiveSearch.solve` runs a walk whose problem has
compiled kernels as a one-lane batch of this engine, whatever its caller
passed.  So a lane takes what a scalar walk takes and tells what it tells,
per lane and at any width: observers (``callbacks=``, the protocol of
:mod:`repro.core.callbacks` hook for hook, ``False`` from ``on_iteration``
retiring that lane ``CANCELLED`` at that iteration), a pinned first start
(``initial_configurations=``) and a caller's ready generator as the lane's
stream (``seeds=``).  An engine nobody observes tests for observers once a
call and does nothing else for them.

First-finisher semantics
------------------------
With ``first_wins=True`` (the multi-walk executor's mode) the batch stops
as soon as any lane solves; still-running lanes report ``CANCELLED`` with
their current iteration counts, mirroring the process executor's cancel
event.  With ``first_wins=False`` every lane runs to its own termination
(stragglers continue in an ever narrower batch), mirroring the inline
executor and ``collect_samples``.

Time limits are honoured between calls (every lane shares the engine's
clock); reproducible runs should bound ``max_iterations`` instead, exactly
as with the scalar engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import compress
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.callbacks import CallbackList, IterationInfo
from repro.core.config import AdaptiveSearchConfig
from repro.core.result import SolveResult, SolveStats
from repro.core.session import AdaptiveSearchSession
from repro.core.termination import TerminationReason
from repro.errors import SolverError
from repro.problems.base import Problem
from repro.util.rng import SeedLike, as_generator
from repro.util.timing import Stopwatch
from repro.vector.problems import CompiledLanes, lane_kernel

__all__ = ["VectorWalkEngine", "VectorRunOutcome", "solve_vector"]

#: the last two rows of a compiled batch's ``(7, m)`` counter array
#: (``_retire`` reads a lane's column in ``lanes.c``'s order: swaps, plateau
#: moves, accepted local-minimum moves, local minima, frozen variables,
#: resets, restarts)
_RESETS, _RESTARTS = 5, 6

#: lane-iterations one ``lanes_run`` call may span (see module docstring)
_LANE_ITERATIONS_PER_CALL = 1 << 14


@dataclass
class VectorRunOutcome:
    """What a vector run produced: one :class:`SolveResult` per lane."""

    walks: list[SolveResult]
    elapsed: float

    @property
    def solved(self) -> bool:
        return any(w.solved for w in self.walks)

    @property
    def winner_lane(self) -> Optional[int]:
        """Lane of the first solver (earliest finish; ties -> lowest lane)."""
        solved = [
            (w.stats.wall_time, lane)
            for lane, w in enumerate(self.walks)
            if w.solved
        ]
        return min(solved)[1] if solved else None


class VectorWalkEngine:
    """Lock-step batch of ``k`` Adaptive Search walks (see module docstring).

    A lane's generator belongs to the engine for the length of :meth:`run`:
    the compiled round draws from it without ``bit_generator.lock`` and
    without the GIL, so nothing else may draw from it meanwhile — and no
    two lanes may share one.

    Parameters
    ----------
    problem:
        the instance every lane solves.
    k:
        number of lanes.
    config:
        base solver configuration; per-problem defaults merge exactly as in
        the scalar engine unless ``use_problem_defaults=False``.
    seeds:
        explicit per-lane seeds (one per lane), each anything the scalar
        engine takes: an int or a seed sequence gives the lane the draws it
        gives a scalar walk, a ready :class:`numpy.random.Generator` *is*
        the lane's stream.  Pass the list from
        :func:`repro.parallel.seeding.walk_seeds` so lane ``i`` equals walk
        ``i`` of every other executor; when omitted, ``seed`` is expanded
        through ``walk_seeds(k, seed)`` — the *same* derivation path — so
        mixing scalar and vector executors in one campaign stays
        reproducible.
    first_wins:
        stop the whole batch at the first solving lane (multi-walk mode).
    round_callback:
        called as ``round_callback(engine)`` after every round; returning
        ``False`` cancels all live lanes (cooperative cancellation for pool
        and hybrid workers).
    callbacks:
        per lane, the observers of that lane's walk (``None``: nobody) —
        the scalar engine's protocol (:mod:`repro.core.callbacks`), hook
        for hook and in a lane's own order: ``on_start``, then per
        iteration ``on_reset`` before ``on_iteration``, ``on_restart``,
        ``on_finish``; ``False`` from ``on_iteration`` retires that lane
        ``CANCELLED`` at that iteration and no other.
    initial_configurations:
        per lane, a pinned first start (``None``: random, drawn from the
        lane's stream); restarts still re-randomize.
    solver_name:
        the provenance the lanes' results carry.
    """

    def __init__(
        self,
        problem: Problem,
        k: int,
        config: AdaptiveSearchConfig | None = None,
        *,
        seeds: Optional[Sequence[np.random.SeedSequence]] = None,
        seed: SeedLike = None,
        use_problem_defaults: bool = True,
        first_wins: bool = False,
        round_callback: Optional[Callable[["VectorWalkEngine"], Optional[bool]]] = None,
        callbacks: Optional[Sequence[Optional[Sequence[object]]]] = None,
        initial_configurations: Optional[Sequence[Optional[np.ndarray]]] = None,
        solver_name: str = "vector_adaptive_search",
    ) -> None:
        if k < 1:
            raise SolverError(f"lane count must be >= 1, got {k}")
        for name, per_lane in (
            ("seeds", seeds),
            ("callbacks", callbacks),
            ("initial_configurations", initial_configurations),
        ):
            if per_lane is not None and len(per_lane) != k:
                raise SolverError(
                    f"got {len(per_lane)} {name} for {k} lanes; pass one "
                    "per lane"
                )
        self.problem = problem
        self.k = int(k)
        self.n = problem.size
        base = config or AdaptiveSearchConfig()
        if use_problem_defaults:
            base = base.for_problem(problem)
        self.config = base
        self.first_wins = first_wins
        self.round_callback = round_callback
        self.solver_name = solver_name
        if seeds is None:
            from repro.parallel.seeding import walk_seeds

            seeds = walk_seeds(k, seed)
        self.seeds = list(seeds)
        #: per live row, its lane's stream; C holds their addresses, this
        #: list keeps them alive
        self.rngs = [as_generator(s) for s in self.seeds]
        if k > 1 and len({id(rng.bit_generator) for rng in self.rngs}) < k:
            streams = [id(rng.bit_generator) for rng in self.rngs]
            shared = [
                lane for lane, s in enumerate(streams) if streams.count(s) > 1
            ]
            raise SolverError(
                f"lanes {shared} share a bit generator; every lane draws "
                "from a stream of its own"
            )
        self._stopwatch = Stopwatch()
        self.rounds = 0
        #: round-running calls made so far (one per round on session rows)
        self.calls = 0
        #: original lane of every live row
        self._lanes = list(range(k))
        self._walks: list[Optional[SolveResult]] = [None] * k
        #: per original lane, where it finished (iterations, cost, best cost)
        self._done_iterations = [0] * k
        self._done_cost = [0.0] * k
        self._done_best_cost = [0.0] * k
        starts = initial_configurations or [None] * k
        for start in starts:
            if start is not None:
                problem.check_configuration(start)
        #: per live row, its lane's observers on compiled rows; ``None``
        #: when no lane has any (a session row holds its own)
        self._observers: Optional[list[CallbackList]] = None
        # observed, never chosen: compiled rows where ``lanes.c`` is loaded
        # and has a kind for the problem, a session per row everywhere else
        self._compiled = lane_kernel(problem) == "compiled"
        if not self._compiled:
            self.vp: Optional[CompiledLanes] = None
            #: per live row, the session that is its walk
            self._sessions = [
                AdaptiveSearchSession(
                    problem, base, rng,
                    callbacks=callbacks[lane] if callbacks else None,
                    initial_configuration=starts[lane],
                )
                for lane, rng in enumerate(self.rngs)
            ]
            return
        self.vp = CompiledLanes(problem, k, base)
        (
            self._configs, self._marks, self._best_configs, self._stats,
            self._cost, self._best_cost,
        ) = self.vp.lane_arrays()
        configs = self._configs
        for lane, start in enumerate(starts):
            if start is None:
                start = problem.random_configuration(self.rngs[lane])
            configs[lane] = start
        self._cost[:] = self.vp.lane_costs(configs)
        self._best_cost[:] = self._cost
        self._best_configs[:] = configs
        # the round a lane's next restart falls due; only a restart moves it
        self._restart_due = [base.restart_limit] * k
        self._next_restart = base.restart_limit
        #: the batch whose block holds the lanes' generators (see ``run``)
        self._bound: Optional[CompiledLanes] = None
        if callbacks is not None and any(callbacks):
            self._observers = [
                CallbackList(list(members or ())) for members in callbacks
            ]
            for row, observers in enumerate(self._observers):
                observers.on_start(configs[row], float(self._cost[row]))

    # ------------------------------------------------------------------
    # per-original-lane views, assembled on demand: finished lanes stay at
    # their final values, live lanes report the batch's current ones
    # ------------------------------------------------------------------
    def _per_lane(self, done: list, live, dtype: type) -> np.ndarray:
        out = np.array(done, dtype=dtype)
        if self.rngs:
            out[self._lanes] = live
        return out

    @property
    def iterations(self) -> np.ndarray:
        return self._per_lane(self._done_iterations, self.rounds, np.int64)

    @property
    def cost(self) -> np.ndarray:
        live = (
            self._cost if self._compiled
            else [session.cost for session in self._sessions]
        )
        return self._per_lane(self._done_cost, live, np.float64)

    @property
    def best_cost(self) -> np.ndarray:
        live = (
            self._best_cost if self._compiled
            else [session.best_cost for session in self._sessions]
        )
        return self._per_lane(self._done_best_cost, live, np.float64)

    @property
    def active(self) -> np.ndarray:
        return self._per_lane([False] * self.k, True, bool)

    @property
    def solved_lanes(self) -> list[int]:
        return [
            lane
            for lane, walk in enumerate(self._walks)
            if walk is not None and walk.solved
        ]

    # ------------------------------------------------------------------
    def run(self) -> VectorRunOutcome:
        """Run every lane to termination; see class docstring for modes."""
        sw = self._stopwatch
        callback = self.round_callback
        max_iterations = self.config.max_iterations
        time_limit = self.config.time_limit
        timed = math.isfinite(time_limit)
        # whoever watches is told round by round; an IterationInfo is built
        # only for someone to read it
        watched = callback is not None or self._observers is not None
        observed = self._observers is not None and any(
            observers.observes_iterations for observers in self._observers
        )
        with sw:
            while True:
                self._pre_phase()
                if not self.rngs:
                    break
                if not self._compiled:
                    for session in self._sessions:
                        session.step(1)
                    self.rounds += 1
                else:
                    if self._bound is not self.vp:
                        # a first round, or the first at a new width: a
                        # batch that ends in a pre-phase binds nothing
                        self.vp.bind(self.rngs)
                        self._bound = self.vp
                    span = 1 if watched else min(
                        min(self._next_restart, max_iterations) - self.rounds,
                        max(1, _LANE_ITERATIONS_PER_CALL // len(self.rngs)),
                    )
                    self.rounds += self.vp.lib.lanes_run(
                        self.vp.block, self.rounds + 1, math.ceil(span)
                    )
                    if self._observers is not None:
                        self._report_resets()
                self.calls += 1
                if observed and not self._report_iterations():
                    break
                if callback is not None and callback(self) is False:
                    self._retire_all(TerminationReason.CANCELLED)
                    break
                if timed and sw.elapsed >= time_limit:
                    # a lane that has just solved has solved: the budget
                    # comes second, as in the scalar loop
                    self._pre_phase()
                    self._retire_all(TerminationReason.TIME_LIMIT)
                    break
        return VectorRunOutcome(walks=list(self._walks), elapsed=sw.elapsed)

    # ------------------------------------------------------------------
    def _pre_phase(self) -> None:
        """Solved / restart / iteration-budget checks, in the scalar loop's
        order and precedence; lanes that end here are retired."""
        cfg = self.config
        rounds = self.rounds
        done = {}
        if not self._compiled:
            # a session runs the checks itself: step(0) is all but the
            # budget, as in AdaptiveSearchSession.run
            for row, session in enumerate(self._sessions):
                reason = session.step(0)
                if reason is not None:
                    done[row] = reason
        else:
            target = cfg.target_cost
            for row, cost in enumerate(self._cost.tolist()):
                if cost <= target:
                    done[row] = TerminationReason.SOLVED
            if rounds >= self._next_restart:
                due = [
                    row
                    for row, at in enumerate(self._restart_due)
                    if at <= rounds
                ]
                for row in due:
                    if row not in done:
                        reason = self._restart_row(row)
                        if reason is not None:
                            done[row] = reason
        if rounds >= cfg.max_iterations:
            for row in range(len(self.rngs)):
                done.setdefault(row, TerminationReason.MAX_ITERATIONS)
        if done:
            self._retire(done)
        if self._compiled and rounds >= self._next_restart and self.rngs:
            # the lanes that were due have restarted or left the batch
            self._next_restart = min(self._restart_due)

    def _restart_row(self, row: int) -> Optional[TerminationReason]:
        """Restart one compiled lane; the reason it ends instead, if it
        does."""
        cfg = self.config
        restarts = self._stats[_RESTARTS]
        if restarts[row] >= cfg.max_restarts:
            return TerminationReason.RESTARTS_EXHAUSTED
        restarts[row] += 1
        start = self.problem.random_configuration(self.rngs[row])
        self._configs[row] = start
        self._cost[row] = self.problem.cost(start)
        self.vp.notify_rows([row], self._configs)
        self._marks[row] = 0
        self._restart_due[row] = self.rounds + cfg.restart_limit
        if self._observers is not None:
            self._observers[row].on_restart(
                int(restarts[row]), float(self._cost[row])
            )
        if self._cost[row] < self._best_cost[row]:
            self._best_cost[row] = self._cost[row]
            self._best_configs[row] = start
        if self._cost[row] <= cfg.target_cost:
            return TerminationReason.SOLVED
        return None

    # ------------------------------------------------------------------
    def _retire_all(self, reason: TerminationReason) -> None:
        self._retire(dict.fromkeys(range(len(self.rngs)), reason))

    def _retire(self, done: dict[int, TerminationReason]) -> None:
        """Capture the results of the rows in ``done`` and drop them from
        the batch (under ``first_wins`` a solver takes everyone with it)."""
        m = len(self.rngs)
        if self.first_wins and TerminationReason.SOLVED in done.values():
            for row in range(m):
                done.setdefault(row, TerminationReason.CANCELLED)
        now = self._stopwatch.elapsed
        rounds = self.rounds
        lanes = self._lanes
        if self._compiled:
            cost, best_cost = self._cost.tolist(), self._best_cost.tolist()
            counters = self._stats.T.tolist()
        for row, reason in done.items():
            lane = lanes[row]
            if self._compiled:
                (
                    swaps, plateau, accepted, local_min, frozen, resets,
                    restarts,
                ) = counters[row]
                stats = SolveStats(
                    iterations=rounds,
                    swaps=swaps,
                    local_minima=local_min,
                    plateau_moves=plateau,
                    accepted_local_min_moves=accepted,
                    frozen_variables=frozen,
                    resets=resets,
                    restarts=restarts,
                    wall_time=now,
                )
                config = self._best_configs[row].copy()
                final, best = cost[row], best_cost[row]
                observers = (
                    None if self._observers is None else self._observers[row]
                )
            else:
                session = self._sessions[row]
                stats = replace(session.stats, wall_time=now)
                config = session.best_config.copy()
                final, best = session.cost, session.best_cost
                observers = session.callbacks
            self._walks[lane] = walk = SolveResult(
                solved=reason is TerminationReason.SOLVED,
                config=config,
                cost=best,
                reason=reason,
                stats=stats,
                problem_name=self.problem.name,
                solver_name=self.solver_name,
            )
            self._done_iterations[lane] = rounds
            self._done_cost[lane] = final
            self._done_best_cost[lane] = best
            if observers is not None:
                observers.on_finish(walk.solved, walk.cost)
        if len(done) == m:
            # the whole batch leaves: nothing is left to compress, and the
            # arrays stay as they are (the per-lane views read the results)
            self.rngs = []
            return
        kept = [row not in done for row in range(m)]
        self.rngs = list(compress(self.rngs, kept))
        self._lanes = list(compress(self._lanes, kept))
        if not self._compiled:
            self._sessions = list(compress(self._sessions, kept))
            return
        if self._observers is not None:
            self._observers = list(compress(self._observers, kept))
        self._restart_due = list(compress(self._restart_due, kept))
        # the survivors' rows move into the arrays of a batch at the new
        # width
        keep = np.array(kept)
        self.vp = CompiledLanes(self.problem, len(self.rngs), self.config)
        old = (
            self._configs, self._marks, self._best_configs, self._stats,
            self._cost, self._best_cost,
        )
        (
            self._configs, self._marks, self._best_configs, self._stats,
            self._cost, self._best_cost,
        ) = self.vp.lane_arrays()
        self._configs[...] = old[0][keep]
        self._marks[...] = old[1][keep]
        self._best_configs[...] = old[2][keep]
        self._stats[...] = old[3][:, keep]
        self._cost[...] = old[4][keep]
        self._best_cost[...] = old[5][keep]

    def _report_resets(self) -> None:
        """Tell the observers of the lanes ``lanes_run`` reset in the round
        it just ran."""
        observers = self._observers
        assert observers is not None
        for row in self.vp.resets.nonzero()[0].tolist():
            observers[row].on_reset(self.rounds, float(self._cost[row]))

    def _report_iterations(self) -> bool:
        """Hand every observed compiled lane the iteration it just ran, as
        the scalar loop does: after the iteration's reset, if it took one,
        and not at all for a lane that was frozen solid (the scalar loop's
        ``continue``).  A lane whose observer answers ``False`` is retired
        ``CANCELLED`` here, at this iteration.  False when no lane is left."""
        observers = self._observers
        assert observers is not None
        selected, executed, delta = self.vp.moves()
        cost, best_cost = self._cost.tolist(), self._best_cost.tolist()
        resets, restarts = self._stats[_RESETS:].tolist()
        cancelled = {}
        for row, i in enumerate(selected):
            if i < 0 or not observers[row].observes_iterations:
                continue
            j = executed[row]
            if not observers[row].on_iteration(
                IterationInfo(
                    iteration=self.rounds,
                    cost=cost[row],
                    best_cost=best_cost[row],
                    selected_variable=i,
                    selected_swap=j,
                    delta=float(delta[row]) if j >= 0 else 0.0,
                    restarts=restarts[row],
                    resets=resets[row],
                )
            ):
                cancelled[row] = TerminationReason.CANCELLED
        if cancelled:
            self._retire(cancelled)
        return bool(self.rngs)


def solve_vector(
    problem: Problem,
    k: int,
    seed: SeedLike = None,
    *,
    config: AdaptiveSearchConfig | None = None,
    seeds: Optional[Sequence[np.random.SeedSequence]] = None,
    first_wins: bool = False,
    round_callback: Optional[Callable[[VectorWalkEngine], Optional[bool]]] = None,
) -> VectorRunOutcome:
    """One-shot convenience wrapper around :class:`VectorWalkEngine`."""
    engine = VectorWalkEngine(
        problem,
        k,
        config,
        seeds=seeds,
        seed=seed,
        first_wins=first_wins,
        round_callback=round_callback,
    )
    return engine.run()
