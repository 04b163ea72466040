"""Tests for the dependent (cooperative) multi-walk scheme."""

import numpy as np
import pytest

from repro.core.config import AdaptiveSearchConfig
from repro.core.termination import TerminationReason
from repro.errors import ParallelError
from repro.parallel.cooperative import (
    CooperationConfig,
    CooperativeMultiWalk,
    ElitePool,
)
from repro.problems import CostasProblem, MagicSquareProblem

CFG = AdaptiveSearchConfig(max_iterations=200_000)


class TestCooperationConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("report_interval", 0),
            ("adopt_interval", 0),
            ("p_adopt", 1.5),
            ("pool_size", 0),
            ("min_relative_gain", -0.1),
            ("perturb_fraction", 0.0),
        ],
    )
    def test_invalid_rejected(self, field, value):
        with pytest.raises(ParallelError):
            CooperationConfig(**{field: value})


class TestElitePool:
    def test_keeps_best_entries(self):
        pool = ElitePool(2)
        pool.offer(5.0, np.array([1, 0]))
        pool.offer(3.0, np.array([0, 1]))
        pool.offer(9.0, np.array([1, 0]))
        assert len(pool) == 2
        assert pool.best_cost() == 3.0

    def test_worse_than_worst_rejected_when_full(self):
        pool = ElitePool(1)
        assert pool.offer(1.0, np.array([0, 1]))
        assert not pool.offer(2.0, np.array([1, 0]))
        assert pool.accepts == 1
        assert pool.offers == 2

    def test_duplicates_ignored(self):
        pool = ElitePool(4)
        cfg = np.array([2, 0, 1])
        assert pool.offer(1.0, cfg)
        assert not pool.offer(1.0, cfg.copy())
        assert len(pool) == 1

    def test_best_returns_copy(self):
        pool = ElitePool(2)
        pool.offer(1.0, np.array([0, 1]))
        _, config = pool.best()
        config[0] = 99
        assert pool.best()[1][0] == 0

    def test_empty_pool(self):
        pool = ElitePool(2)
        assert pool.best() is None
        assert pool.best_cost() == float("inf")

    def test_entries_stored_as_copies(self):
        pool = ElitePool(2)
        cfg = np.array([0, 1])
        pool.offer(1.0, cfg)
        cfg[0] = 99
        assert pool.best()[1][0] == 0


class TestCooperativeMultiWalk:
    def test_solves_and_verifies(self):
        problem = CostasProblem(9)
        result = CooperativeMultiWalk(CFG).solve(problem, 4, seed=1)
        assert result.solved
        assert problem.is_solution(result.config)
        assert result.winner.walk_id in range(4)
        assert len(result.walks) == 4

    def test_deterministic(self):
        problem = CostasProblem(9)
        driver = CooperativeMultiWalk(CFG)
        a = driver.solve(problem, 3, seed=7)
        b = driver.solve(problem, 3, seed=7)
        assert a.rounds == b.rounds
        assert a.parallel_iterations == b.parallel_iterations
        assert [w.iterations for w in a.walks] == [w.iterations for w in b.walks]

    def test_pool_receives_reports(self):
        problem = MagicSquareProblem(6)
        result = CooperativeMultiWalk(CFG).solve(problem, 3, seed=0)
        assert result.pool_offers > 0
        assert result.pool_accepts > 0

    def test_adoptions_happen_on_slow_landscapes(self):
        # magic-square runs long enough for adoption cycles to trigger
        problem = MagicSquareProblem(7)
        coop = CooperationConfig(
            report_interval=16, adopt_interval=32, p_adopt=1.0,
            min_relative_gain=0.0,
        )
        result = CooperativeMultiWalk(CFG, coop).solve(problem, 4, seed=3)
        assert result.solved
        # adoption count is seed-dependent but the machinery must engage
        assert result.adoptions >= 0
        assert result.rounds >= 1

    def test_max_rounds_bound(self):
        problem = MagicSquareProblem(10)
        result = CooperativeMultiWalk(CFG).solve(problem, 2, seed=0, max_rounds=3)
        if not result.solved:
            assert result.rounds == 3
            assert result.winner is None

    def test_invalid_max_rounds(self):
        with pytest.raises(ParallelError, match="max_rounds"):
            CooperativeMultiWalk(CFG).solve(CostasProblem(8), 2, seed=0, max_rounds=0)

    def test_budget_exhaustion_reported_unsolved(self):
        # no 30-iteration walk solves an 8x8 magic square: the solver
        # budget, not max_rounds, has to end the run
        tiny = AdaptiveSearchConfig(max_iterations=30)
        problem = MagicSquareProblem(8)
        result = CooperativeMultiWalk(tiny).solve(problem, 3, seed=0)
        assert not result.solved
        assert result.winner is None
        assert all(w.iterations <= 30 for w in result.walks)
        assert all(
            w.reason is TerminationReason.MAX_ITERATIONS for w in result.walks
        )
        assert result.parallel_iterations <= 30

    def test_time_limit_ends_an_unsolvable_run(self):
        config = AdaptiveSearchConfig(time_limit=0.05)
        result = CooperativeMultiWalk(config).solve(
            MagicSquareProblem(30), 2, seed=0
        )
        assert not result.solved
        assert all(
            w.reason is TerminationReason.TIME_LIMIT for w in result.walks
        )

    @pytest.mark.parametrize(
        "driver,problem,n_walkers,seed,expected",
        [
            (
                CooperativeMultiWalk(CFG),
                CostasProblem(9),
                3,
                7,
                dict(rounds=1, iterations=[11, 0, 0], adoptions=0,
                     pool_accepts=0, winner=0),
            ),
            (
                CooperativeMultiWalk(
                    CFG,
                    CooperationConfig(
                        report_interval=16, adopt_interval=32, p_adopt=1.0,
                        min_relative_gain=0.0,
                    ),
                ),
                MagicSquareProblem(7),
                4,
                3,
                dict(rounds=5, iterations=[73, 64, 64, 64], adoptions=6,
                     pool_accepts=16, winner=0),
            ),
            (
                CooperativeMultiWalk(CFG),
                MagicSquareProblem(6),
                3,
                0,
                dict(rounds=18, iterations=[1152, 1111, 1088], adoptions=9,
                     pool_accepts=17, winner=1),
            ),
        ],
    )
    def test_fixed_seed_trajectories_are_pinned(
        self, driver, problem, n_walkers, seed, expected
    ):
        """Recorded from the pre-unification round loop (commit 56f7d38):
        hosting the scheme on IslandRunner must not move any trajectory."""
        result = driver.solve(problem, n_walkers, seed=seed)
        assert dict(
            rounds=result.rounds,
            iterations=[w.iterations for w in result.walks],
            adoptions=result.adoptions,
            pool_accepts=result.pool_accepts,
            winner=result.winner.walk_id,
        ) == expected

    def test_total_iterations_accounting(self):
        problem = CostasProblem(9)
        result = CooperativeMultiWalk(CFG).solve(problem, 3, seed=5)
        assert result.total_iterations == sum(w.iterations for w in result.walks)
        assert result.parallel_iterations == result.winner.iterations

    def test_summary(self):
        problem = CostasProblem(9)
        result = CooperativeMultiWalk(CFG).solve(problem, 2, seed=1)
        text = result.summary()
        assert "cooperative multi-walk x2" in text
        assert "adoptions" in text


class TestProcessExecutor:
    """The Manager-list process executor is gone; real-parallel
    cooperation is ``MultiWalkSolver(executor="coop", cluster=...)``."""

    def test_unknown_executor_rejected(self):
        for executor in ("threads", "process", "inline"):
            with pytest.raises(TypeError, match="executor"):
                CooperativeMultiWalk(executor=executor)
        with pytest.raises(TypeError, match="mp_context"):
            CooperativeMultiWalk(mp_context="spawn")
