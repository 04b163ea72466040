"""Same walks, now in lanes.

A pool task is a *slice* of one job's walks.  For a problem with batched
vector kernels a worker runs its whole share of the job as the lanes of
one ``VectorWalkEngine``; everything else stays one scalar walk per task.
These tests pin that down from the outside: walk ``i`` of a served job is
walk ``i`` of every other executor, field for field; the slice width is
the function of (walks, workers, kernels) the scheduler says it is; and a
slice is cancelled, won, watched and traced as a unit that still answers
per walk.

Budget-capped jobs only (150 iterations a walk): nothing here waits for a
solve except the one test about winning.
"""

import time

import pytest

from repro.core.config import AdaptiveSearchConfig
from repro.core.termination import TerminationReason
from repro.net import LocalCluster
from repro.parallel import MultiWalkSolver, WalkOutcome, walk_seeds
from repro.problems import make_problem
from repro.service import Job, JobStatus, SolverService
from repro.telemetry.events import TraceContext
from repro.telemetry.recorder import Recorder
from repro.telemetry.sinks import RingBufferSink
from repro.telemetry.timeline import analyze_trace, render_timeline
from tests.conftest import session_walk

CAPPED = AdaptiveSearchConfig(max_iterations=150)
UNBOUNDED = AdaptiveSearchConfig(max_iterations=100_000_000)
TINY = AdaptiveSearchConfig(max_iterations=3)
#: instances on which no walk of job SEED solves within the cap, so a
#: served job (which stops at its first solve) and the inline executor
#: (which does not) both run every walk to its budget.  costas 12 and
#: all_interval 12 are too easy for that: one of 16 walks solves them
#: within 150 iterations under all but a few seeds
INSTANCES = [("magic_square", 12), ("costas", 16), ("all_interval", 20)]
SEED = 11


def scalar_walks(problem, n_walkers, seed, config=CAPPED):
    """Every walk of the job on the scalar engine, best config kept."""
    return [
        WalkOutcome.from_result(
            walk_id,
            session_walk(config, problem, seed=walk_seed),
            best_so_far=True,
        )
        for walk_id, walk_seed in enumerate(walk_seeds(n_walkers, seed))
    ]


def fields(walk):
    """Everything a walk reports but its wall time."""
    return (
        walk.walk_id,
        walk.solved,
        walk.cost,
        walk.iterations,
        walk.reason,
        None if walk.config is None else walk.config.tolist(),
    )


def assert_same_walks(walks, reference):
    assert [fields(w) for w in walks] == [fields(w) for w in reference]


def sent_tasks(service):
    """Record every task the scheduler hands to the pool from now on."""
    tasks = []
    send = service.pool.send_task

    def spy(worker_id, task):
        tasks.append(task)
        send(worker_id, task)

    service.pool.send_task = spy
    return tasks


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


@pytest.fixture(scope="module")
def service():
    with SolverService(2) as started:
        yield started


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(n_nodes=1, workers_per_node=2) as local:
        yield local


@pytest.mark.slow
class TestServedWalksAreTheScalarWalks:
    """(a) walk for walk, under every served executor."""

    @pytest.fixture(
        scope="class", params=INSTANCES, ids=lambda p: f"{p[0]}-{p[1]}"
    )
    def case(self, request):
        family, n = request.param
        problem = make_problem(family, n=n)
        reference = scalar_walks(problem, 16, SEED)
        # fixed work: no walk ends early, so every executor runs all 16
        assert not any(walk.solved for walk in reference)
        return problem, reference

    def test_inline_is_the_reference(self, case):
        problem, reference = case
        inline = MultiWalkSolver(CAPPED, executor="inline").solve(
            problem, 16, SEED
        )
        assert [
            (w.walk_id, w.iterations, w.cost, w.reason) for w in inline.walks
        ] == [
            (w.walk_id, w.iterations, w.cost, w.reason) for w in reference
        ]

    def test_service_submit(self, case, service):
        problem, reference = case
        result = service.submit(problem, 16, SEED, config=CAPPED).result(60)
        assert result.status is JobStatus.UNSOLVED
        assert_same_walks(result.walks, reference)

    def test_pool_executor(self, case, service):
        problem, reference = case
        result = MultiWalkSolver(CAPPED, executor="pool", pool=service).solve(
            problem, 16, SEED
        )
        assert not result.solved
        assert_same_walks(result.walks, reference)

    def test_cluster(self, case, cluster):
        problem, reference = case
        result = cluster.client().submit(
            problem, 16, seed=SEED, config=CAPPED
        ).result(timeout=60)
        assert result.status is JobStatus.UNSOLVED
        assert_same_walks(
            sorted(result.walks, key=lambda w: w.walk_id), reference
        )


@pytest.mark.slow
class TestSliceWidth:
    """(b) a function of (walks, workers, batched kernels) — asserted on
    the tasks sent, not on timing."""

    def run(self, service, family, n, n_walkers, config=CAPPED):
        tasks = sent_tasks(service)
        try:
            problem = make_problem(family, n=n)
            result = service.submit(
                problem, n_walkers, SEED, config=config
            ).result(60)
        finally:
            del service.pool.send_task
        # no early win, so every slice of the job was sent
        assert result.status is JobStatus.UNSOLVED
        return tasks

    def test_batched_problem_one_slice_per_worker(self, service):
        tasks = self.run(service, "costas", 16, 16)
        seeds = walk_seeds(16, SEED)
        assert sorted(task.walk_ids for task in tasks) == [
            tuple(range(0, 16, 2)),
            tuple(range(1, 16, 2)),
        ]
        for task in tasks:
            assert [s.spawn_key for s in task.seeds] == [
                seeds[walk_id].spawn_key for walk_id in task.walk_ids
            ]

    def test_uneven_split(self, service):
        tasks = self.run(service, "costas", 16, 3)
        assert sorted(task.walk_ids for task in tasks) == [(0, 2), (1,)]

    @pytest.mark.parametrize("n_walkers", [1, 2])
    def test_no_more_walks_than_workers_is_scalar(self, service, n_walkers):
        tasks = self.run(service, "costas", 16, n_walkers)
        assert sorted(task.walk_ids for task in tasks) == [
            (walk_id,) for walk_id in range(n_walkers)
        ]

    def test_problem_without_batched_kernels_is_scalar(self, service):
        tasks = self.run(service, "queens", 50, 8, config=TINY)
        assert sorted(task.walk_ids for task in tasks) == [
            (walk_id,) for walk_id in range(8)
        ]


@pytest.mark.slow
class TestSliceLifecycle:
    """(d) cancel, deadline and win end a running slice."""

    def test_cancel_ends_the_lanes(self, service):
        problem = make_problem("magic_square", n=30)
        handle = service.submit(problem, 16, SEED, config=UNBOUNDED)
        assert wait_until(lambda: len(service.walk_progress()) == 16)
        handle.cancel()
        assert handle.result(10).status is JobStatus.CANCELLED
        # the lanes see the raised generation at their next poll
        # (poll_every rounds, milliseconds), not at the end of a budget
        # that would take hours
        assert wait_until(lambda: service.walk_progress() == [], timeout=5.0)

    def test_deadline_ends_the_lanes(self, service):
        problem = make_problem("magic_square", n=30)
        result = service.submit(
            problem, 16, SEED, config=UNBOUNDED, deadline=0.2
        ).result(10)
        assert result.status is JobStatus.TIMED_OUT
        assert wait_until(lambda: service.walk_progress() == [], timeout=5.0)

    def test_solved_lane_wins_at_once(self, service):
        problem = make_problem("costas", n=10)
        reference = scalar_walks(problem, 16, SEED, config=UNBOUNDED)
        assert all(walk.solved for walk in reference)
        result = service.submit(problem, 16, SEED, config=UNBOUNDED).result(60)
        assert result.status is JobStatus.SOLVED
        winner = result.winner
        # the winner is the first finisher of its slice (even or odd walks)
        mates = [w for w in reference if w.walk_id % 2 == winner.walk_id % 2]
        first = min(mates, key=lambda w: (w.iterations, w.walk_id))
        assert fields(winner) == fields(first)
        assert problem.is_solution(winner.config)
        # ... and its fellow lanes stopped in that very round
        lanes = [w for w in result.walks if w.walk_id % 2 == winner.walk_id % 2]
        assert len(lanes) == 8
        for walk in lanes:
            if walk.solved:
                assert walk.iterations == winner.iterations
            else:
                assert walk.reason is TerminationReason.CANCELLED
                assert walk.iterations == winner.iterations


@pytest.mark.slow
class TestSliceObservability:
    def test_walk_progress_lists_every_lane_under_its_own_id(self, service):
        """(e) a node agent's job names its walks by cluster-wide id."""
        problem = make_problem("magic_square", n=30)
        walk_ids = list(range(1, 32, 2))
        handle = service.submit_job(
            Job(
                problem,
                16,
                SEED,
                config=UNBOUNDED,
                walk_ids=walk_ids,
                trace=TraceContext("feedfacefeedface", 42),
            )
        )
        try:
            assert wait_until(lambda: len(service.walk_progress()) == 16)
            progress = service.walk_progress()
            assert sorted(entry["walk_id"] for entry in progress) == walk_ids
            assert {entry["job_id"] for entry in progress} == {42}
            assert wait_until(
                lambda: all(
                    entry["iterations"] > 0
                    for entry in service.walk_progress()
                )
            )
        finally:
            handle.cancel()
        assert handle.result(10).status is JobStatus.CANCELLED

    def test_traced_slice(self):
        """JobDispatch names the slice; the lanes' own events ship home in
        the slice result; the metrics still count walks."""
        ring = RingBufferSink()
        recorder = Recorder(sinks=[ring], proc="node")
        problem = make_problem("costas", n=16)
        with SolverService(2, recorder=recorder) as traced:
            result = traced.submit_job(
                Job(
                    problem,
                    16,
                    SEED,
                    config=CAPPED,
                    trace=TraceContext("feedfacefeedface", 7),
                )
            ).result(60)
            snapshot = traced.snapshot()
        assert result.status is JobStatus.UNSOLVED
        assert snapshot.tasks_dispatched == 2
        assert snapshot.walks_completed == 16
        assert snapshot.stale_walks == 0

        records = ring.records
        dispatches = [r for r in records if r["event"] == "job_dispatch"]
        assert sorted(tuple(d["walk_ids"]) for d in dispatches) == [
            tuple(range(0, 16, 2)),
            tuple(range(1, 16, 2)),
        ]
        assert [d["lanes"] for d in dispatches] == [8, 8]
        assert {d["job_id"] for d in dispatches} == {7}
        finishes = [r for r in records if r["event"] == "walk_finish"]
        assert sorted(f["walk_id"] for f in finishes) == list(range(16))
        assert {f["proc"] for f in finishes} <= {"worker-0", "worker-1"}
        assert [f["iterations"] for f in finishes] == [150] * 16

        # `repro trace` places every lane and says how it ran
        summary = analyze_trace(records)
        assert sorted(summary.walks) == list(range(16))
        assert all(
            walk.dispatch_ts is not None for walk in summary.walks.values()
        )
        assert "walks=0,2,4,6,8,10,12,14 as 8 lanes -> worker" in (
            render_timeline(records, summary)
        )

    def test_scalar_slice_dispatch_is_not_a_lane(self):
        ring = RingBufferSink()
        recorder = Recorder(sinks=[ring], proc="node")
        with SolverService(2, recorder=recorder) as traced:
            traced.submit_job(
                Job(
                    make_problem("queens", n=50),
                    2,
                    SEED,
                    config=TINY,
                    trace=TraceContext("feedfacefeedface", 7),
                )
            ).result(60)
        dispatches = [
            r for r in ring.records if r["event"] == "job_dispatch"
        ]
        assert sorted(tuple(d["walk_ids"]) for d in dispatches) == [(0,), (1,)]
        assert [d["lanes"] for d in dispatches] == [0, 0]


class TestJobWalkIds:
    def test_must_name_every_walk_once(self):
        from repro.errors import ParallelError

        problem = make_problem("costas", n=6)
        with pytest.raises(ParallelError, match="walk_ids"):
            Job(problem, 3, walk_ids=[1, 2])
        with pytest.raises(ParallelError, match="walk_ids"):
            Job(problem, 3, walk_ids=[1, 2, 2])
