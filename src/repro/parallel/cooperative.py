"""Dependent multi-walk: cooperation through an elite pool.

The paper's conclusion sketches its future work: "more complex parallel
methods with inter-processes communication, i.e., in the dependent
multiple-walk scheme", designed to (1) minimize data transfers and (2)
re-use common computations / record "previous interesting crossroads in the
resolution, from which a restart can be operated" — while warning that "it
is a challenge to design a scheme that could outperform the independent
multiple-walk parallelization" because configuration costs are heuristic.

This module implements exactly that scheme so the conjecture can be tested:

- walkers are resumable :class:`~repro.core.session.AdaptiveSearchSession`s
  advancing in synchronized rounds of ``report_interval`` iterations;
- after each round a walker *reports* its current (cost, configuration) to
  a bounded :class:`ElitePool` (the "recorded crossroads") — the only data
  transfer, a single configuration vector;
- every ``adopt_interval`` iterations a walker may *adopt* a pool elite:
  with probability ``p_adopt``, if some elite beats its current cost by at
  least ``min_relative_gain``, the walker restarts from a perturbed copy of
  it (perturbation keeps the walkers diverse).

The round loop and the adoption policy live in one place,
:class:`repro.coop.island.IslandRunner`: the in-process scheme here is one
island over all walkers with nobody to migrate to, and the cluster scheme
(``MultiWalkSolver(executor="coop")``) is several islands with a relay
between them.  Synchronized rounds make the scheme deterministic and
exactly measurable in iteration time on any host;
``benchmarks/bench_abl_cooperation.py`` compares it head-to-head against
the paper's independent scheme.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from repro.core.config import AdaptiveSearchConfig
from repro.errors import ParallelError, ReproError
from repro.parallel.results import WalkOutcome
from repro.parallel.seeding import walk_seeds
from repro.problems.base import Problem
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_fraction, check_probability

__all__ = ["CooperationConfig", "ElitePool", "CooperativeMultiWalk", "CooperativeResult"]


@dataclass(frozen=True)
class CooperationConfig:
    """The local adoption policy of the dependent multi-walk scheme.

    The six fields every island applies to its own walkers, declared and
    validated here once; :class:`repro.coop.CoopConfig` extends them with
    the cross-island migration knobs.

    Parameters
    ----------
    report_interval:
        iterations per synchronized round; each walker reports its current
        configuration to the pool once per round.
    adopt_interval:
        minimum iterations a walker searches on its own between adoption
        attempts.
    p_adopt:
        probability an eligible adoption attempt actually happens.
    pool_size:
        elite pool capacity (best configurations seen, deduplicated).
    min_relative_gain:
        adopt only when the elite cost is below
        ``(1 - min_relative_gain) * own cost`` — the paper's warning made
        operational: heuristic costs are noisy, so small differences are
        not worth a jump.
    perturb_fraction:
        fraction of variables shuffled in the adopted copy, keeping
        walkers from collapsing onto identical trajectories.
    """

    report_interval: int = 64
    adopt_interval: int = 256
    p_adopt: float = 0.8
    pool_size: int = 8
    min_relative_gain: float = 0.1
    perturb_fraction: float = 0.05

    #: what invalid values raise (the cluster config raises its own type)
    _error: ClassVar[type[ReproError]] = ParallelError

    def __post_init__(self) -> None:
        self._check_counts("report_interval", "adopt_interval", "pool_size")
        try:
            check_probability("p_adopt", self.p_adopt)
            check_probability("min_relative_gain", self.min_relative_gain)
            check_fraction("perturb_fraction", self.perturb_fraction)
        except (TypeError, ValueError) as err:
            raise self._error(str(err)) from None

    def _check_counts(self, *names: str) -> None:
        for name in names:
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise self._error(f"{name} must be an int >= 1, got {value!r}")


class ElitePool:
    """Bounded pool of the best configurations reported so far.

    Entries are kept sorted by cost; duplicate configurations are ignored;
    offering a configuration worse than the current worst entry of a full
    pool is a no-op.  The pool only ever stores copies.

    Offers with a non-finite cost (NaN, ±inf) are rejected outright and
    counted in ``rejected`` — heuristic costs are noisy but they are never
    legitimately infinite, so such an offer is a corrupted migrant or an
    uninitialized walker, not an elite.

    The pool is thread-safe: the cluster-side island loop offers from a
    runner thread while its hosting agent folds arriving migrants in from
    the event-loop side, so every mutation and read happens under one
    internal lock.  (The in-process cooperative executor is single-threaded
    and pays only an uncontended acquire.)
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ParallelError(f"pool capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: list[tuple[float, np.ndarray]] = []
        self._lock = threading.Lock()
        self.offers = 0
        self.accepts = 0
        self.rejected = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def offer(self, cost: float, config: np.ndarray) -> bool:
        """Report a configuration; returns True if it entered the pool."""
        with self._lock:
            self.offers += 1
            cost = float(cost)
            if not math.isfinite(cost):
                self.rejected += 1
                return False
            if (
                len(self._entries) >= self.capacity
                and cost >= self._entries[-1][0]
            ):
                return False
            key = config.tobytes()
            for existing_cost, existing in self._entries:
                if existing_cost == cost and existing.tobytes() == key:
                    return False
            self._entries.append((cost, np.array(config, copy=True)))
            self._entries.sort(key=lambda e: e[0])
            del self._entries[self.capacity :]
            self.accepts += 1
            return True

    def best(self) -> Optional[tuple[float, np.ndarray]]:
        """The lowest-cost entry (cost, copy of config), or None if empty."""
        with self._lock:
            if not self._entries:
                return None
            cost, config = self._entries[0]
            return cost, config.copy()

    def best_cost(self) -> float:
        with self._lock:
            return self._entries[0][0] if self._entries else float("inf")


@dataclass
class CooperativeResult:
    """Outcome of one cooperative multi-walk execution.

    ``parallel_iterations`` is the completion time in the synchronized
    iteration clock: walkers advance in lockstep, so the run ends after the
    winner's own iteration count (all walkers execute iterations at the
    same rate on dedicated cores).
    """

    solved: bool
    n_walkers: int
    winner: Optional[WalkOutcome]
    walks: list[WalkOutcome] = field(default_factory=list)
    rounds: int = 0
    parallel_iterations: int = 0
    total_iterations: int = 0
    adoptions: int = 0
    pool_offers: int = 0
    pool_accepts: int = 0
    elapsed_time: float = 0.0

    @property
    def config(self) -> Optional[np.ndarray]:
        return self.winner.config if self.winner is not None else None

    def summary(self) -> str:
        status = (
            f"SOLVED by walk {self.winner.walk_id}" if self.solved else "UNSOLVED"
        )
        return (
            f"cooperative multi-walk x{self.n_walkers}: {status} after "
            f"{self.rounds} rounds ({self.parallel_iterations} parallel "
            f"iterations, {self.adoptions} adoptions, pool "
            f"{self.pool_accepts}/{self.pool_offers} accepts)"
        )


class CooperativeMultiWalk:
    """Dependent multi-walk driver: one transport-less island, in-process.

    All ``n_walkers`` form a single :class:`~repro.coop.island.IslandRunner`
    island that never migrates — synchronized rounds in one process,
    deterministic, exact iteration-clock measurement; the reference
    implementation for experiments.  Real parallelism is the same loop
    hosted per node: ``MultiWalkSolver(executor="coop", cluster=...)``
    (a :class:`~repro.net.LocalCluster` on one host).
    """

    def __init__(
        self,
        solver_config: AdaptiveSearchConfig | None = None,
        cooperation: CooperationConfig | None = None,
        *,
        use_problem_defaults: bool = True,
    ) -> None:
        self.solver_config = solver_config or AdaptiveSearchConfig()
        self.cooperation = cooperation or CooperationConfig()
        self.use_problem_defaults = use_problem_defaults

    # ------------------------------------------------------------------
    def solve(
        self,
        problem: Problem,
        n_walkers: int,
        seed: SeedLike = None,
        *,
        max_rounds: int = 1_000_000,
    ) -> CooperativeResult:
        """Run until one walker solves, every walker finishes (solver
        budget included), or ``max_rounds`` synchronized rounds elapse."""
        # imported here: repro.coop builds on this module's pool and config
        from repro.coop.island import IslandRunner

        if max_rounds < 1:
            raise ParallelError(f"max_rounds must be >= 1, got {max_rounds}")
        config = self.solver_config
        if self.use_problem_defaults:
            config = config.merged_with(problem.default_solver_parameters())
        # the extra stream drives adoption decisions, apart from every walk
        seeds = walk_seeds(n_walkers + 1, seed)
        t0 = time.perf_counter()
        island = IslandRunner(
            problem,
            config,
            self.cooperation,
            island=0,
            walk_ids=range(n_walkers),
            seeds=seeds[:-1],
            rng=as_generator(seeds[-1]),
        ).run(max_rounds)
        walks = sorted(
            island.walks + island.unfinished, key=lambda w: w.walk_id
        )
        winner = island.winner
        return CooperativeResult(
            solved=winner is not None,
            n_walkers=n_walkers,
            winner=winner,
            walks=walks,
            rounds=island.rounds,
            parallel_iterations=(
                winner.iterations
                if winner is not None
                else max((w.iterations for w in walks), default=0)
            ),
            total_iterations=sum(w.iterations for w in walks),
            adoptions=island.stats["adoptions"],
            pool_offers=island.stats["pool_offers"],
            pool_accepts=island.stats["pool_accepts"],
            elapsed_time=time.perf_counter() - t0,
        )
