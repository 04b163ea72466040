"""End-to-end tests for the concurrent solve-job scheduler."""

import multiprocessing as mp

import pytest

from repro.core.config import AdaptiveSearchConfig
from repro.errors import ParallelError
from repro.parallel.multiwalk import MultiWalkSolver
from repro.problems import CostasProblem, make_problem
from repro.service import Job, JobStatus, SolverService, WorkerPool

CFG = AdaptiveSearchConfig(max_iterations=200_000)


def long_job():
    """A one-walk job that outlasts every deadline, cancel and timeout
    below by seconds, not tenths: magic square 16, whose walk 0 under
    ``seed=0`` needs 62 452 iterations (order 10, used until the scalar
    engine got ~2.5x faster, is done in 5 695 — inside a 0.3 s deadline)."""
    return make_problem("magic_square", n=16)


class TestConstruction:
    def test_needs_workers_or_pool(self):
        with pytest.raises(ParallelError, match="n_workers"):
            SolverService()
        with pytest.raises(ParallelError, match="n_workers"):
            SolverService(0)

    def test_invalid_poll_every(self):
        with pytest.raises(ParallelError, match="poll_every"):
            SolverService(1, poll_every=0)


@pytest.mark.slow
class TestSingleJob:
    def test_solve_and_verify(self):
        problem = CostasProblem(9)
        with SolverService(2) as service:
            result = service.solve(problem, 2, seed=1, config=CFG, timeout=120)
        assert result.status is JobStatus.SOLVED
        assert result.winner is not None
        assert problem.is_solution(result.config)
        assert len(result.walks) >= 1
        assert result.latency >= result.solve_time >= 0

    def test_pool_trajectories_match_inline(self):
        """The winning walk's trajectory is identical under every executor."""
        problem = CostasProblem(8)
        inline = MultiWalkSolver(CFG, executor="inline").solve(problem, 3, seed=7)
        with SolverService(3) as service:
            job = service.solve(problem, 3, seed=7, config=CFG, timeout=120)
        winner = job.winner.walk_id
        by_id = {w.walk_id: w for w in inline.walks}
        assert by_id[winner].solved
        assert by_id[winner].iterations == job.winner.iterations

    def test_unsolved_when_budget_tiny(self):
        problem = make_problem("magic_square", n=8)
        tiny = AdaptiveSearchConfig(max_iterations=10)
        with SolverService(2) as service:
            result = service.solve(problem, 2, seed=0, config=tiny, timeout=120)
        assert result.status is JobStatus.UNSOLVED
        assert result.winner is None
        assert len(result.walks) == 2

    def test_deadline_times_out(self):
        problem = long_job()
        with SolverService(1) as service:
            result = service.solve(
                problem, 1, seed=0,
                config=AdaptiveSearchConfig(),  # effectively unbounded
                deadline=0.3, timeout=120,
            )
        assert result.status is JobStatus.TIMED_OUT
        assert result.latency >= 0.3

    def test_client_cancel(self):
        problem = long_job()
        with SolverService(1) as service:
            handle = service.submit(
                problem, 1, seed=0, config=AdaptiveSearchConfig()
            )
            handle.cancel()
            result = handle.result(timeout=120)
        assert result.status is JobStatus.CANCELLED

    def test_result_timeout_raises(self):
        problem = long_job()
        with SolverService(1) as service:
            handle = service.submit(
                problem, 1, seed=0, config=AdaptiveSearchConfig()
            )
            with pytest.raises(ParallelError, match="timed out"):
                handle.result(timeout=0.05)
            handle.cancel()
            handle.result(timeout=120)


@pytest.mark.slow
class TestConcurrentJobs:
    def test_concurrent_jobs_get_their_own_winners(self):
        """Distinct problems race concurrently; each job's winner solves
        *its* instance — one job's win never cancels another's walks."""
        costas = CostasProblem(9)
        queens = make_problem("queens", n=20)
        with SolverService(2) as service:
            results = service.run_jobs(
                [
                    Job(problem=costas, n_walkers=2, seed=1, config=CFG),
                    Job(problem=queens, n_walkers=2, seed=2, config=CFG),
                ],
                timeout=120,
            )
            snapshot = service.snapshot()
        assert [r.status for r in results] == [JobStatus.SOLVED] * 2
        assert costas.is_solution(results[0].config)
        assert queens.is_solution(results[1].config)
        assert snapshot.peak_jobs_in_flight >= 2

    def test_oversubscription_time_shares_one_worker(self):
        """More jobs than workers: everything still completes correctly."""
        problem = CostasProblem(8)
        jobs = [
            Job(problem=problem, n_walkers=2, seed=s, config=CFG)
            for s in range(3)
        ]
        with SolverService(1) as service:
            results = service.run_jobs(jobs, timeout=120)
            snapshot = service.snapshot()
        assert all(r.status is JobStatus.SOLVED for r in results)
        for result in results:
            assert problem.is_solution(result.config)
        assert snapshot.peak_jobs_in_flight >= 2

    def test_smoke_four_workers_eight_jobs(self):
        """CI smoke: a 4-worker pool digests 8 concurrent jobs and shuts
        down without leaving processes behind."""
        problems = [CostasProblem(8), CostasProblem(9)]
        service = SolverService(4)
        with service:
            jobs = [
                Job(
                    problem=problems[index % 2],
                    n_walkers=2,
                    seed=index,
                    config=CFG,
                )
                for index in range(8)
            ]
            results = service.run_jobs(jobs, timeout=300)
            snapshot = service.snapshot()
        assert len(results) == 8
        assert all(r.status is JobStatus.SOLVED for r in results)
        for index, result in enumerate(results):
            assert problems[index % 2].is_solution(result.config)
        assert snapshot.jobs_completed == 8
        assert snapshot.peak_jobs_in_flight >= 2
        assert snapshot.tasks_dispatched >= 8
        # clean shutdown: no worker survives the context manager
        assert service._pool.live_processes() == []
        assert not [
            p for p in mp.active_children() if p.name.startswith("repro-service")
        ]


@pytest.mark.slow
class TestDeadlineEdgeCases:
    def test_deadline_expires_while_walks_still_queued(self):
        """A 1-worker pool is busy with another job, so the deadlined
        job's walks never reach a worker — the deadline must fire anyway
        (enforcement is scheduler-side, not walk-side)."""
        blocker_problem = long_job()
        with SolverService(1) as service:
            blocker = service.submit(
                blocker_problem, 1, seed=0, config=AdaptiveSearchConfig()
            )
            victim = service.submit(
                CostasProblem(8), 2, seed=1, config=CFG, deadline=0.3
            )
            result = victim.result(timeout=120)
            assert result.status is JobStatus.TIMED_OUT
            assert result.walks == []  # nothing was ever dispatched
            assert result.winner is None
            assert result.latency >= 0.3
            blocker.cancel()
            assert blocker.result(timeout=120).status is JobStatus.CANCELLED

    def test_deadline_racing_winning_walk_never_hangs(self):
        """Deadline of the order of the solve time: either side may win
        the race, both outcomes are legal, and the handle always resolves
        (finish-once semantics — a deadline firing after the winner's
        report must not double-complete or hang the job)."""
        problem = CostasProblem(8)
        seen = set()
        with SolverService(2) as service:
            for attempt, deadline in enumerate((0.005, 0.05, 0.2, 5.0)):
                result = service.solve(
                    problem, 2, seed=attempt, config=CFG,
                    deadline=deadline, timeout=120,
                )
                assert result.status in (JobStatus.SOLVED, JobStatus.TIMED_OUT)
                seen.add(result.status)
                if result.status is JobStatus.SOLVED:
                    assert problem.is_solution(result.config)
                else:
                    assert result.winner is None
        assert seen  # the loop ran; typically both outcomes appear


@pytest.mark.slow
class TestLifecycle:
    def test_shutdown_is_idempotent_and_final(self):
        service = SolverService(1)
        service.start()
        service.shutdown()
        service.shutdown()
        with pytest.raises(ParallelError, match="shut down"):
            service.submit(CostasProblem(7), 1, seed=0, config=CFG)

    def test_shutdown_without_waiting_cancels_jobs(self):
        problem = long_job()
        service = SolverService(1).start()
        handle = service.submit(
            problem, 1, seed=0, config=AdaptiveSearchConfig()
        )
        service.shutdown(wait_jobs=False)
        assert handle.result(timeout=120).status is JobStatus.CANCELLED

    def test_borrowed_pool_stays_alive(self):
        with WorkerPool(1) as pool:
            with SolverService(pool=pool) as service:
                result = service.solve(
                    CostasProblem(8), 1, seed=0, config=CFG, timeout=120
                )
                assert result.solved
            # the service shut down but does not own the pool
            assert len(pool.live_processes()) == 1

    def test_submit_auto_starts(self):
        service = SolverService(1)
        try:
            handle = service.submit(CostasProblem(8), 1, seed=0, config=CFG)
            assert handle.result(timeout=120).solved
        finally:
            service.shutdown()
