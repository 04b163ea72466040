"""The scheduler and the agent pump run on wake-ups, not on timers.

Every test that claims "no timer" stretches the scheduler's only periodic
wait — the liveness fallback — to an hour first: whatever still happens
promptly can only have been delivered as an event (the wake pipe, the pool
outbox, a worker sentinel, or the computed deadline / backoff timeout).
"""

import time

import pytest

from repro.chaos import FaultPlan, WalkFault
from repro.core.config import AdaptiveSearchConfig
from repro.net import LocalCluster
from repro.problems import CostasProblem, make_problem
from repro.service import JobStatus, RetryPolicy, SolverService
from repro.service import scheduler as scheduler_module

CFG = AdaptiveSearchConfig(max_iterations=200_000)
UNBOUNDED = AdaptiveSearchConfig()


@pytest.fixture()
def no_liveness_timer(monkeypatch):
    monkeypatch.setattr(scheduler_module, "_LIVENESS_INTERVAL", 3600.0)


def count_calls(obj, name):
    """Wrap the bound method ``obj.name``; returns the list its calls'
    timestamps are appended to."""
    calls = []
    original = getattr(obj, name)

    def counted(*args, **kwargs):
        calls.append(time.monotonic())
        return original(*args, **kwargs)

    setattr(obj, name, counted)
    return calls


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.002)


@pytest.mark.slow
class TestIdle:
    def test_idle_scheduler_makes_no_more_than_two_passes(self):
        with SolverService(1) as service:
            passes = count_calls(service, "_drain_inbox")
            service.solve(CostasProblem(7), 1, seed=0, config=CFG, timeout=60)
            assert passes  # the wrapper is on the scheduler's path
            time.sleep(0.1)
            del passes[:]
            time.sleep(0.5)
            assert len(passes) <= 2

    def test_idle_agent_pump_makes_no_pass(self):
        with LocalCluster(n_nodes=1, workers_per_node=1) as cluster:
            agent = cluster.agents[0]
            passes = count_calls(agent._wake, "clear")
            time.sleep(0.5)
            assert passes == []
            result = cluster.client().solve(
                CostasProblem(7), 1, seed=0, config=CFG, timeout=60
            )
            assert result.solved
            assert passes  # a finished slice is what runs the pump


@pytest.mark.slow
@pytest.mark.usefixtures("no_liveness_timer")
class TestEventsNotTimers:
    def test_cancel_stops_a_running_lane_slice_within_poll_every_rounds(self):
        poll_every = 256
        problem = CostasProblem(20)  # lanes, and far too hard to solve here
        with SolverService(1, poll_every=poll_every) as service:
            handle = service.submit(problem, 4, seed=0, config=UNBOUNDED)
            progress = service.pool.progress
            wait_until(lambda: progress[0] >= poll_every)
            seen = progress[0]
            handle.cancel()
            assert handle.result(timeout=30).status is JobStatus.CANCELLED
            # the slice's own (stale) report: the walk has stopped
            wait_until(lambda: service.snapshot().stale_walks == 4)
            stopped = progress[0]
        # `seen` was published at a poll; the generation was raised before
        # the next one or, if the walk was just crossing it, the one after
        assert seen <= stopped <= seen + 2 * poll_every

    def test_worker_death_is_seen_through_its_sentinel(self):
        plan = FaultPlan([WalkFault("exit", max_count=1)], seed=0)
        problem = CostasProblem(8)
        policy = RetryPolicy(max_retries=1, backoff=0.0)
        with SolverService(1, chaos=plan) as service:
            started = time.monotonic()
            result = service.solve(
                problem, 1, seed=0, config=CFG, retry=policy, timeout=30
            )
            elapsed = time.monotonic() - started
            snapshot = service.snapshot()
        assert result.status is JobStatus.SOLVED
        assert (result.crashes, result.retries) == (1, 1)
        assert snapshot.worker_respawns == 1
        assert elapsed < 10.0

    def test_deadline_fires_on_time(self):
        with SolverService(1) as service:
            result = service.solve(
                # walk 0 under seed 0 needs 62 452 iterations: seconds
                make_problem("magic_square", n=16), 1, seed=0,
                config=UNBOUNDED, deadline=0.05, timeout=30,
            )
        assert result.status is JobStatus.TIMED_OUT
        assert 0.05 <= result.latency < 0.25

    def test_retry_backoff_fires_on_time(self):
        plan = FaultPlan([WalkFault("raise", max_count=1)], seed=0)
        policy = RetryPolicy(max_retries=1, backoff=0.2)
        with SolverService(1, chaos=plan) as service:
            result = service.solve(
                CostasProblem(8), 1, seed=0, config=CFG, retry=policy,
                timeout=30,
            )
        assert result.status is JobStatus.SOLVED
        assert result.retries == 1
        assert 0.2 <= result.latency < 2.0


@pytest.mark.slow
class TestCancelToStop:
    def test_losing_slice_of_a_two_slice_job_is_timed(self):
        """Two one-walk slices race; the loser's report arrives after the
        winner's cancel and that interval lands in the histogram."""
        problem = CostasProblem(9)
        with SolverService(2) as service:
            result = service.solve(problem, 2, seed=1, config=CFG, timeout=60)
            assert result.status is JobStatus.SOLVED
            wait_until(lambda: service.snapshot().walks_completed == 2)
            snapshot = service.snapshot()
            histogram = service.metrics.registry.get("service.cancel_to_stop")
            text = service.metrics.registry.render_prometheus()
        assert snapshot.stale_walks == 1  # the loser reported after the win
        assert histogram.count == 1
        assert 0.0 <= snapshot.cancel_to_stop_mean < 5.0
        assert snapshot.cancel_to_stop_p95 >= snapshot.cancel_to_stop_mean
        assert "cancel_to_stop_mean" in snapshot.to_json()
        assert "service_cancel_to_stop_count 1" in text


@pytest.mark.slow
class TestJobHandleNotify:
    def test_fires_after_each_slice_on_completion_and_when_late(self):
        tiny = AdaptiveSearchConfig(max_iterations=10)
        with SolverService(1) as service:
            # no batched kernels: two one-walk slices through one worker
            handle = service.submit(
                make_problem("queens", n=20), 2, seed=0, config=tiny
            )
            seen = []
            handle.notify(
                lambda: seen.append((len(handle.outcomes()), handle.done()))
            )
            assert handle.result(timeout=60).status is JobStatus.UNSOLVED
        assert (1, False) in seen  # first slice in, job still running
        assert seen[-1] == (2, True)
        late = []
        handle.notify(lambda: late.append(handle.done()))
        assert late == [True]
