"""Fail-fast on un-picklable problems.

A problem that cannot cross a process boundary used to surface as a
cryptic crash deep inside a worker (or a hung queue).  Now every submit
path — the raw pool, the scheduler, the cluster client — pickles the
problem eagerly and raises a clear error naming the offending type,
leaving the pool/connection healthy for the next job.
"""

import threading

import pytest

from repro.core.config import AdaptiveSearchConfig
from repro.errors import NetError, ParallelError
from repro.net import LocalCluster
from repro.problems import CostasProblem, make_problem
from repro.service import Job, SolverService
from repro.service.pool import WorkerPool

CFG = AdaptiveSearchConfig(max_iterations=200_000)


class UnpicklableProblem(CostasProblem):
    """Carries a thread lock — pickle refuses to serialize it."""

    def __init__(self, n):
        super().__init__(n)
        self.lock = threading.Lock()


@pytest.mark.slow
class TestPoolFailFast:
    def test_register_problem_rejects_unpicklable(self):
        pool = WorkerPool(1)
        try:
            with pytest.raises(
                ParallelError, match="UnpicklableProblem.*not picklable"
            ):
                pool.register_problem(UnpicklableProblem(8))
            # the rejection happened before anything was shipped: the
            # pool still registers and serves picklable problems
            assert pool.register_problem(CostasProblem(8)) >= 0
        finally:
            pool.shutdown()


@pytest.mark.slow
class TestServiceFailFast:
    def test_submit_rejects_unpicklable_and_pool_survives(self):
        good = CostasProblem(8)
        with SolverService(1) as service:
            with pytest.raises(
                ParallelError, match="UnpicklableProblem.*not picklable"
            ):
                service.submit(UnpicklableProblem(8), 1, seed=0, config=CFG)
            result = service.solve(good, 1, seed=0, config=CFG, timeout=120)
        assert result.solved
        assert good.is_solution(result.config)


class CountingProblem(CostasProblem):
    """Counts how often pickle asks it to reduce itself (in this process)."""

    reductions = 0

    def __reduce__(self):
        CountingProblem.reductions += 1
        return (CountingProblem, (self.size,))


@pytest.mark.slow
class TestProbeOnlyWhatThePoolDoesNotHold:
    def test_a_held_problem_is_not_pickled_again(self):
        """A node agent submits the same cached object for every job of a
        digest: the caller's-frame probe is for objects the pool has not
        seen, not a tax on every submit."""
        problem = CountingProblem(8)
        CountingProblem.reductions = 0
        seen = []
        with SolverService(1) as service:
            for seed in range(10):
                service.solve(problem, 1, seed=seed, config=CFG, timeout=120)
                seen.append(CountingProblem.reductions)
            # an equal but different object is a stranger: probed again
            service.solve(CountingProblem(8), 1, seed=0, config=CFG, timeout=120)
            assert CountingProblem.reductions > seen[-1]
        # the first submit: once for the probe, once to ship it
        assert seen == [2] * 10

    def test_an_unpicklable_stranger_still_fails_in_the_callers_frame(self):
        good = CostasProblem(8)
        with SolverService(1) as service:
            for _ in range(2):  # held after the first, not probed again ...
                service.solve(good, 1, seed=0, config=CFG, timeout=120)
            # ... which changes nothing for an object that was never held
            with pytest.raises(
                ParallelError, match="UnpicklableProblem.*not picklable"
            ):
                service.submit_job(
                    Job(UnpicklableProblem(8), 1, seed=0, config=CFG)
                )


@pytest.mark.slow
class TestClientFailFast:
    def test_submit_rejects_unpicklable_before_any_frame(self):
        with LocalCluster(n_nodes=1, workers_per_node=1) as cluster:
            client = cluster.client()
            with pytest.raises(
                NetError, match="UnpicklableProblem.*cannot be submitted"
            ):
                client.submit(UnpicklableProblem(8), 1, seed=0, config=CFG)
            # the connection was never poisoned: a real job still works
            problem = make_problem("queens", n=16)
            result = client.solve(problem, 1, seed=0, config=CFG, timeout=120)
        assert result.solved
