"""Crash-path coverage: raising walks, dying workers, retry exhaustion.

The service must convert worker failures into per-job retries (soft crash:
the walk raises, the worker survives; hard crash: the worker process dies
and is respawned) and must never leave orphaned processes behind.

Failures are injected with :mod:`repro.chaos` fault plans — the same
seeded ``WalkFault`` specs the cluster-level chaos scenarios use — except
for one test that keeps a problem whose *evaluation* raises, covering the
user-code seam the chaos layer deliberately sits below.
"""

import multiprocessing as mp

import pytest

from repro.chaos import FaultPlan, WalkFault
from repro.core.config import AdaptiveSearchConfig
from repro.problems import CostasProblem, MagicSquareProblem
from repro.service import JobStatus, RetryPolicy, SolverService

CFG = AdaptiveSearchConfig(max_iterations=200_000)
FAST_RETRY = RetryPolicy(max_retries=2, backoff=0.01)


class AlwaysRaiseProblem(CostasProblem):
    """Every evaluation raises inside the worker (soft crash)."""

    def variable_errors(self, state):
        raise RuntimeError("injected failure")


def no_service_orphans():
    return not [
        p for p in mp.active_children() if p.name.startswith("repro-service")
    ]


@pytest.mark.slow
class TestSoftCrash:
    def test_retry_budget_exhaustion_fails_the_job(self):
        # every dispatch of the walk carries a raise fault, so every
        # retry crashes too and the budget runs out
        plan = FaultPlan([WalkFault("raise", max_count=99)], seed=0)
        service = SolverService(1, chaos=plan)
        with service:
            result = service.solve(
                CostasProblem(8),
                1,
                seed=0,
                config=CFG,
                retry=FAST_RETRY,
                timeout=120,
            )
            snapshot = service.snapshot()
        assert result.status is JobStatus.FAILED
        assert "chaos: injected walk crash" in result.error
        assert result.crashes == FAST_RETRY.max_retries + 1
        assert result.retries == FAST_RETRY.max_retries
        # the worker caught the exception and survived: no respawns
        assert snapshot.worker_respawns == 0
        assert len(plan.log) == FAST_RETRY.max_retries + 1
        assert no_service_orphans()

    def test_crash_then_retry_succeeds(self):
        # the fault fires once; the retried dispatch runs clean
        plan = FaultPlan([WalkFault("raise", max_count=1)], seed=0)
        problem = CostasProblem(8)
        with SolverService(1, chaos=plan) as service:
            result = service.solve(
                problem, 1, seed=0, config=CFG, retry=FAST_RETRY, timeout=120
            )
        assert result.status is JobStatus.SOLVED
        assert problem.is_solution(result.config)
        assert result.crashes == 1
        assert result.retries == 1

    def test_crash_does_not_poison_other_jobs(self):
        """A failing job shares the pool with a healthy one; only the
        failing job is affected.  This one keeps the ad-hoc raising
        problem: it covers crashes thrown by *user evaluation code*, a
        layer below the chaos injection points."""
        bad = AlwaysRaiseProblem(8)
        good = CostasProblem(8)
        with SolverService(2) as service:
            bad_handle = service.submit(
                bad, 1, seed=0, config=CFG, retry=FAST_RETRY
            )
            good_handle = service.submit(good, 2, seed=1, config=CFG)
            bad_result = bad_handle.result(timeout=120)
            good_result = good_handle.result(timeout=120)
        assert bad_result.status is JobStatus.FAILED
        assert good_result.status is JobStatus.SOLVED
        assert good.is_solution(good_result.config)

    def test_fault_targets_only_its_job(self):
        """A job-scoped fault plan leaves other jobs untouched."""
        plan = FaultPlan([WalkFault("raise", job_id=0, max_count=99)], seed=0)
        good = CostasProblem(8)
        with SolverService(2, chaos=plan) as service:
            bad_handle = service.submit(
                good, 1, seed=0, config=CFG, retry=FAST_RETRY
            )
            good_handle = service.submit(good, 2, seed=1, config=CFG)
            bad_result = bad_handle.result(timeout=120)
            good_result = good_handle.result(timeout=120)
        assert bad_result.status is JobStatus.FAILED
        assert good_result.status is JobStatus.SOLVED


@pytest.mark.slow
class TestHardCrash:
    def test_dead_worker_is_respawned_and_job_fails(self):
        # every dispatch hard-exits its worker; the pool heals each time
        plan = FaultPlan([WalkFault("exit", max_count=99)], seed=0)
        policy = RetryPolicy(max_retries=1, backoff=0.01)
        service = SolverService(1, chaos=plan)
        with service:
            result = service.solve(
                CostasProblem(8),
                1,
                seed=0,
                config=CFG,
                retry=policy,
                timeout=120,
            )
            snapshot = service.snapshot()
            # the pool healed itself: the worker slot is alive again
            assert service._pool.is_alive(0)
        assert result.status is JobStatus.FAILED
        assert "died" in result.error
        assert result.crashes == 2
        assert result.retries == 1
        assert snapshot.worker_respawns >= 2
        assert service._pool.live_processes() == []
        assert no_service_orphans()

    def test_pool_keeps_serving_after_a_hard_crash(self):
        """After a worker death the respawned worker still knows every
        registered problem and solves follow-up jobs."""
        plan = FaultPlan([WalkFault("exit", max_count=1)], seed=0)
        healthy = CostasProblem(8)
        policy = RetryPolicy(max_retries=0)
        with SolverService(1, chaos=plan) as service:
            first = service.solve(
                healthy, 1, seed=0, config=CFG, retry=policy, timeout=120
            )
            assert first.status is JobStatus.FAILED
            second = service.solve(healthy, 1, seed=1, config=CFG, timeout=120)
        assert second.status is JobStatus.SOLVED
        assert healthy.is_solution(second.config)
        assert no_service_orphans()


@pytest.mark.slow
class TestLaneSliceCrash:
    """A fault aimed at one lane takes its whole slice down; the slice is
    retried whole, and because lanes are deterministic functions of their
    seeds the job ends exactly as the fault-free run does."""

    PROBLEM = MagicSquareProblem(12)
    CAPPED = AdaptiveSearchConfig(max_iterations=150)

    @staticmethod
    def walks(result):
        return [
            (w.walk_id, w.solved, w.cost, w.iterations, w.reason,
             w.config.tolist())
            for w in result.walks
        ]

    def solve(self, service):
        return service.solve(
            self.PROBLEM, 16, seed=4, config=self.CAPPED,
            retry=FAST_RETRY, timeout=120,
        )

    @pytest.fixture(scope="class")
    def fault_free(self):
        with SolverService(2) as service:
            result = self.solve(service)
        assert result.status is JobStatus.UNSOLVED
        assert result.crashes == 0
        return self.walks(result)

    @pytest.mark.parametrize("at_iteration", [0, 40])
    def test_raise_in_one_lane_retries_the_slice(
        self, fault_free, at_iteration
    ):
        plan = FaultPlan(
            [WalkFault("raise", walk_id=5, at_iteration=at_iteration)], seed=0
        )
        with SolverService(2, chaos=plan) as service:
            result = self.solve(service)
            snapshot = service.snapshot()
        assert result.status is JobStatus.UNSOLVED
        assert (result.crashes, result.retries) == (1, 1)
        assert self.walks(result) == fault_free
        # one fault, aimed at walk 5; its seven fellow lanes went down with
        # it and all eight ran again: 3 tasks, 16 walk reports
        assert [e["walk_id"] for e in plan.log] == [5]
        assert snapshot.tasks_dispatched == 3
        assert snapshot.walks_completed == 16
        assert snapshot.worker_respawns == 0

    def test_exit_in_one_lane_respawns_and_retries_the_slice(
        self, fault_free
    ):
        plan = FaultPlan(
            [WalkFault("exit", walk_id=5, at_iteration=40)], seed=0
        )
        with SolverService(2, chaos=plan) as service:
            result = self.solve(service)
            snapshot = service.snapshot()
        assert result.status is JobStatus.UNSOLVED
        assert (result.crashes, result.retries) == (1, 1)
        assert self.walks(result) == fault_free
        assert snapshot.worker_respawns == 1
        assert snapshot.walks_completed == 16
        assert no_service_orphans()
