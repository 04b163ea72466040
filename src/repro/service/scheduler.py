"""The concurrent solve-job scheduler.

``SolverService`` multiplexes many concurrent multi-walk solve jobs over
one shared :class:`~repro.service.pool.WorkerPool`:

- every submitted :class:`~repro.service.jobs.Job` is split into *slices*
  of its walks, each slice one pool task tagged with the job's cancel
  token.  A problem with compiled lane kernels
  (:func:`repro.vector.lane_kernel`) is dealt round-robin into
  ``min(n_walks, n_workers)`` slices, so every worker advances its whole
  share of the job at once as the lanes of one
  :class:`~repro.vector.engine.VectorWalkEngine`; any other problem gets
  one-walk slices, each a plain ``AdaptiveSearch.solve`` (one compiled
  lane where ``lanes.c`` covers the problem, the scalar session where it
  does not).  The width is a function of the
  job, the pool and the problem, all of which the scheduler sees: there is
  nothing to configure;
- tasks are dispatched to idle workers in priority order, interleaved by
  slice index within a priority class, so when jobs outnumber workers
  every job keeps at least its first slice moving instead of head-of-line
  blocking (the oversubscription policy: queueing is unbounded, width is
  time-shared);
- the first solved walk of a job wins: the scheduler raises that job's
  cancel generation (other jobs' walks are untouched — see
  :mod:`repro.service.worker`), completes the job immediately and recycles
  the slot while losing slices drain in the background;
- a crashed slice (exception payload or dead worker process) is retried
  whole — its walks are deterministic functions of their seeds — with
  exponential backoff under the job's :class:`RetryPolicy`; dead workers
  are respawned; when the retry budget runs out the job fails;
- per-job deadlines force-cancel overdue jobs.

All scheduling state is owned by one background thread; clients interact
through thread-safe :class:`JobHandle` futures.  The thread has no
heartbeat: between passes it blocks in one
:func:`multiprocessing.connection.wait` over the pool outbox (a slice
reported), a self-wake pipe (``submit`` / ``cancel`` / ``shutdown`` wrote
to the inbox) and every worker's process sentinel (a worker died), with a
timeout equal to the earliest job deadline or retry backoff.  Every
hand-off is an event; an idle service makes one pass per
:data:`_LIVENESS_INTERVAL`.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing.connection
import pickle
import queue
import threading
import time
from collections import deque
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.core.config import AdaptiveSearchConfig
from repro.errors import ParallelError
from repro.parallel.results import WalkOutcome
from repro.parallel.seeding import partition_walks
from repro.problems.base import Problem
from repro.service.jobs import Job, JobResult, JobStatus, RetryPolicy
from repro.service.metrics import MetricsSnapshot, ServiceMetrics
from repro.service.pool import CancelToken, WorkerPool
from repro.service.worker import WalkTask
from repro.telemetry.events import JobDispatch, JobFinish, JobSubmit
from repro.telemetry.recorder import (
    Recorder,
    epoch_of_monotonic,
    get_recorder,
)
from repro.util.rng import SeedLike
from repro.vector.problems import lane_kernel

__all__ = ["JobHandle", "SolverService"]

#: longest the scheduler thread sleeps with nothing scheduled: a fallback
#: against a lost wake-up, not a polling period — nothing waits on it
_LIVENESS_INTERVAL = 1.0


class JobHandle:
    """Future-style handle on a submitted job (thread-safe)."""

    def __init__(self, job_id: int, service: "SolverService") -> None:
        self.job_id = job_id
        self._service = service
        self._event = threading.Event()
        self._result: Optional[JobResult] = None
        self._status = JobStatus.PENDING
        self._outcomes: list[WalkOutcome] = []
        self._listener: Callable[[], None] | None = None

    @property
    def status(self) -> JobStatus:
        return self._status

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> JobResult:
        """Block until the job completes; raises on timeout."""
        if not self._event.wait(timeout):
            raise ParallelError(
                f"timed out after {timeout}s waiting for job {self.job_id}"
            )
        assert self._result is not None
        return self._result

    def outcomes(self) -> list[WalkOutcome]:
        """The walk reports received so far, in arrival order: the list
        grows slice by slice while the job runs (a node agent streams them
        on) and holds every walk of ``result().walks`` once it is done."""
        return list(self._outcomes)

    def notify(self, listener: Callable[[], None]) -> None:
        """Register the handle's one listener: called with no arguments
        from the scheduler thread after each slice's reports are appended
        to :meth:`outcomes` and once more on completion — and right here
        when either already happened, so no update is ever missed.  It is
        a wake-up, not a message (it may fire with nothing new to read),
        and it must neither block nor raise."""
        self._listener = listener
        if self._outcomes or self._event.is_set():
            listener()

    def cancel(self) -> None:
        """Request cancellation (no-op if the job already finished)."""
        self._service._request_cancel(self.job_id)

    # called from the scheduler thread only
    def _complete(self, result: JobResult) -> None:
        self._result = result
        self._status = result.status
        self._event.set()
        self._notify()

    def _notify(self) -> None:
        if self._listener is not None:
            self._listener()


class _JobState:
    """Scheduler-thread-private bookkeeping for one job."""

    __slots__ = (
        "job", "job_id", "seq", "handle", "problem_id", "token", "retry",
        "seeds", "slices", "kernel", "submitted_at", "first_dispatch_at",
        "deadline_at", "outstanding", "winner", "retries", "crashes",
        "error", "trace",
    )

    def __init__(
        self,
        job: Job,
        job_id: int,
        seq: int,
        handle: JobHandle,
        retry: RetryPolicy,
        submitted_at: float,
    ) -> None:
        self.job = job
        self.job_id = job_id
        self.seq = seq
        self.handle = handle
        self.retry = retry
        self.problem_id: int | None = None
        self.token: CancelToken | None = None
        #: walk id -> seed; the walk ids are the job's own labels
        self.seeds = dict(
            zip(
                job.walk_ids
                if job.walk_ids is not None
                else range(job.n_walkers),
                job.walk_seed_sequences(),
            )
        )
        #: the pool tasks of this job, each a tuple of walk ids
        self.slices: list[tuple[int, ...]] = []
        #: what a lane batch of this job's problem runs on (``lane_kernel``)
        self.kernel = "scalar"
        self.submitted_at = submitted_at
        self.first_dispatch_at: float | None = None
        self.deadline_at = (
            submitted_at + job.deadline if job.deadline is not None else None
        )
        self.outstanding: set[int] = set(self.seeds)
        self.winner: WalkOutcome | None = None
        self.retries = 0
        self.crashes = 0
        self.error: str | None = None
        self.trace = job.trace


class SolverService:
    """Schedules concurrent solve jobs over a persistent worker pool.

    The scheduler thread is event-driven (see the module docstring): a
    submit, a cancel, a slice report, a deadline, a retry backoff and a
    worker death each wake it directly, so none of them waits on a timer.

    Parameters
    ----------
    n_workers:
        size of the owned pool (ignored when ``pool`` is given).
    pool:
        an existing :class:`WorkerPool` to borrow; the caller keeps
        ownership (and shuts it down) in that case.
    mp_context / cancel_slots:
        forwarded to the owned pool.
    poll_every:
        iterations between cancel-token polls inside walks.
    retry_policy:
        default crash policy for jobs that do not carry their own.
    recorder:
        telemetry recorder for dispatch/finish events and spans; defaults
        to the process recorder (disabled unless configured).  Passing an
        explicit recorder also shares its metrics registry with the
        service's :class:`ServiceMetrics`, unifying the two.
    chaos:
        optional :class:`~repro.chaos.plan.FaultPlan`; when set, every
        dispatch asks the plan for a walk fault to ride inside the task
        (``None`` costs one attribute check per dispatch).
    """

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        pool: WorkerPool | None = None,
        mp_context: str | None = None,
        cancel_slots: int = 64,
        poll_every: int = 64,
        retry_policy: RetryPolicy | None = None,
        recorder: Recorder | None = None,
        chaos: Any = None,
    ) -> None:
        if pool is None and (n_workers is None or n_workers < 1):
            raise ParallelError(
                f"n_workers must be >= 1 when no pool is given, got {n_workers}"
            )
        if poll_every < 1:
            raise ParallelError(f"poll_every must be >= 1, got {poll_every}")
        self._pool = pool
        self._owns_pool = pool is None
        self._pool_kwargs = {
            "mp_context": mp_context, "cancel_slots": cancel_slots,
        }
        self.n_workers = pool.n_workers if pool is not None else int(n_workers)  # type: ignore[arg-type]
        self.poll_every = poll_every
        self.retry_policy = retry_policy or RetryPolicy()
        self.chaos = chaos
        if chaos is not None:
            chaos.arm()

        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._inbox: deque[tuple[Any, ...]] = deque()
        #: self-wake pipe: one byte is in it while an inbox message may be
        #: unseen (opened by start(), closed by shutdown())
        self._wake_lock = threading.Lock()
        self._wake_reader: Any = None
        self._wake_writer: Any = None
        self._wake_pending = False
        self._job_counter = itertools.count()
        self._started = False
        self._shutdown_requested = False
        self._closed = False
        self.recorder = recorder if recorder is not None else get_recorder()
        # an explicitly instrumented service shares its recorder's metrics
        # registry; otherwise the metrics stay private to this service so
        # concurrent services in one process never merge their counters
        self.metrics = ServiceMetrics(
            self.n_workers,
            registry=recorder.registry if recorder is not None else None,
        )

        # scheduler-thread-private state
        self._jobs: dict[int, _JobState] = {}
        self._pending: list[tuple[tuple[int, int], int]] = []  # (key, job_id)
        #: (key, job_id, slice index): slices ready to run / backing off
        self._ready: list[tuple[tuple[int, int, int], int, int]] = []
        self._delayed: list[tuple[float, tuple[int, int, int], int, int]] = []
        self._idle: set[int] = set()
        #: worker -> (job_id, walk_ids, dispatched_at, job_label), the label
        #: being the cluster-scope job id when the job is traced
        self._in_flight: dict[
            int, tuple[int, tuple[int, ...], float, int]
        ] = {}
        #: worker -> when its slice's job was won by another slice (the
        #: cancel-to-stop clock, read when the slice's report arrives)
        self._cancelled_at: dict[int, float] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SolverService":
        """Spawn the pool (if owned) and the scheduler thread (idempotent)."""
        with self._lock:
            if self._closed:
                raise ParallelError("service is shut down")
            if self._started:
                return self
            if self._pool is None:
                self._pool = WorkerPool(self.n_workers, **self._pool_kwargs)
            self._idle = set(self._pool.worker_ids)
            self._wake_reader, self._wake_writer = (
                multiprocessing.connection.Pipe(duplex=False)
            )
            self._thread = threading.Thread(
                target=self._run, name="repro-solver-service", daemon=True
            )
            self._started = True
            self._thread.start()
        return self

    def shutdown(
        self, *, wait_jobs: bool = True, timeout: float | None = 60.0
    ) -> None:
        """Stop the service; with ``wait_jobs`` outstanding jobs finish
        first, otherwise they complete as CANCELLED (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
        if started:
            self._shutdown_requested = True
            self._inbox.append(("shutdown", wait_jobs))
            self._wake()
            assert self._thread is not None
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():  # pragma: no cover - defensive
                raise ParallelError("scheduler thread failed to stop in time")
            with self._wake_lock:  # a late handle.cancel() finds it closed
                self._wake_writer.close()
                self._wake_reader.close()
        if self._owns_pool and self._pool is not None:
            self._pool.shutdown()

    def __enter__(self) -> "SolverService":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # client surface
    # ------------------------------------------------------------------
    def submit(
        self,
        problem: Problem,
        n_walkers: int = 1,
        seed: SeedLike = None,
        *,
        config: AdaptiveSearchConfig | None = None,
        priority: int = 0,
        deadline: float | None = None,
        retry: RetryPolicy | None = None,
        seeds: Sequence[np.random.SeedSequence] | None = None,
    ) -> JobHandle:
        """Submit one solve job; returns immediately with a handle."""
        return self.submit_job(
            Job(
                problem=problem,
                n_walkers=n_walkers,
                seed=seed,
                seeds=seeds,
                config=config,
                priority=priority,
                deadline=deadline,
                retry=retry,
            )
        )

    def submit_job(self, job: Job) -> JobHandle:
        with self._lock:
            if self._closed:
                raise ParallelError("service is shut down")
        if not self._started:
            self.start()
        # fail fast in the caller's frame: an un-picklable problem would
        # otherwise surface asynchronously (queue feeder thread) and read
        # like a worker crash-retry loop instead of a usage error.  An
        # object the pool already holds has been through it: a node agent
        # submits the same cached problem for every job of a digest
        pool = self._pool
        if pool is None or not pool.holds_problem(job.problem):
            try:
                pickle.dumps(job.problem, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as err:
                raise ParallelError(
                    f"problem {type(job.problem).__name__!r} is not "
                    f"picklable and cannot be shipped to pool workers: {err}"
                ) from err
        job_id = next(self._job_counter)
        handle = JobHandle(job_id, self)
        self.metrics.record_submit()
        recorder = self.recorder
        if recorder.enabled:
            ctx = job.trace
            recorder.emit(
                JobSubmit(
                    trace_id=ctx.trace_id if ctx is not None else "",
                    job_id=(
                        ctx.job_id
                        if ctx is not None and ctx.job_id >= 0
                        else job_id
                    ),
                    n_walkers=job.n_walkers,
                    problem=getattr(
                        job.problem, "name", type(job.problem).__name__
                    ),
                )
            )
        self._inbox.append(("submit", job, job_id, handle, time.monotonic()))
        self._wake()
        return handle

    def solve(
        self,
        problem: Problem,
        n_walkers: int = 1,
        seed: SeedLike = None,
        *,
        timeout: float | None = None,
        **kwargs: Any,
    ) -> JobResult:
        """Submit and block until the job completes."""
        return self.submit(problem, n_walkers, seed, **kwargs).result(timeout)

    def run_jobs(
        self, jobs: Sequence[Job], *, timeout: float | None = None
    ) -> list[JobResult]:
        """Run many jobs concurrently; results in submission order."""
        handles = [self.submit_job(job) for job in jobs]
        return [handle.result(timeout) for handle in handles]

    def snapshot(self) -> MetricsSnapshot:
        return self.metrics.snapshot()

    @property
    def pool(self) -> WorkerPool | None:
        """The underlying worker pool (``None`` before :meth:`start`)."""
        return self._pool

    def walk_progress(self) -> list[dict[str, Any]]:
        """Iteration progress of every in-flight walk, under the job's own
        walk ids (and the cluster-scope job id when the job carries a trace
        context).  The lanes of a slice advance in lock-step and share one
        entry of the progress array.  Snapshot-cheap: reads what the walks
        already write between cancel polls.  Safe to call from any
        thread."""
        pool = self._pool
        if pool is None:
            return []
        now = time.monotonic()
        entries: list[dict[str, Any]] = []
        try:
            flights = list(self._in_flight.items())
        except RuntimeError:  # pragma: no cover - resized mid-iteration
            return []
        for worker_id, (_, walk_ids, dispatched_at, job_label) in flights:
            iterations = int(pool.progress[worker_id])
            for walk_id in walk_ids:
                entries.append(
                    {
                        "job_id": job_label,
                        "walk_id": walk_id,
                        "iterations": iterations,
                        "elapsed": now - dispatched_at,
                    }
                )
        return entries

    def _request_cancel(self, job_id: int) -> None:
        self._inbox.append(("cancel", job_id))
        self._wake()

    def _wake(self) -> None:
        """Make the scheduler thread's wait return (any thread; call after
        appending to the inbox)."""
        with self._wake_lock:
            if self._wake_pending or self._wake_writer.closed:
                return
            self._wake_pending = True
            self._wake_writer.send_bytes(b"\0")

    # ------------------------------------------------------------------
    # scheduler thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        draining = False
        try:
            while True:
                draining = self._drain_inbox() or draining
                now = time.monotonic()
                self._promote_delayed(now)
                self._activate_pending()
                self._check_deadlines(now)
                self._check_workers()
                self._dispatch()
                if draining and not self._jobs and not self._inbox:
                    return
                self._wait()
                self._reap()
        except Exception:  # pragma: no cover - defensive: fail fast, loudly
            import traceback

            error = traceback.format_exc()
            for state in list(self._jobs.values()):
                state.error = error
                self._finish_job(state, JobStatus.FAILED, time.monotonic())
            raise

    def _drain_inbox(self) -> bool:
        """Process client messages; returns True once shutdown was seen."""
        draining = False
        while self._inbox:
            message = self._inbox.popleft()
            kind = message[0]
            if kind == "submit":
                _, job, job_id, handle, submitted_at = message
                state = _JobState(
                    job, job_id, job_id, handle,
                    job.retry or self.retry_policy, submitted_at,
                )
                self._jobs[job_id] = state
                heapq.heappush(
                    self._pending, ((-job.priority, state.seq), job_id)
                )
            elif kind == "cancel":
                state = self._jobs.get(message[1])
                if state is not None:
                    if state.token is not None:
                        self._pool.cancel(state.token)  # type: ignore[union-attr]
                    self._finish_job(
                        state, JobStatus.CANCELLED, time.monotonic()
                    )
            elif kind == "shutdown":
                draining = True
                if not message[1]:  # wait_jobs=False: cancel everything
                    for state in list(self._jobs.values()):
                        if state.token is not None:
                            self._pool.cancel(state.token)  # type: ignore[union-attr]
                        self._finish_job(
                            state, JobStatus.CANCELLED, time.monotonic()
                        )
        return draining

    def _activate_pending(self) -> None:
        """Give queued jobs a cancel slot and enqueue their slices."""
        pool = self._pool
        assert pool is not None
        while self._pending:
            (key, job_id) = self._pending[0]
            state = self._jobs.get(job_id)
            if state is None or state.token is not None:
                heapq.heappop(self._pending)  # cancelled or already active
                continue
            token = pool.acquire_slot()
            if token is None:
                return  # every slot busy; stay queued
            heapq.heappop(self._pending)
            state.token = token
            state.problem_id = pool.register_problem(state.job.problem)
            walk_ids = list(state.seeds)
            # one walk per task, unless there are more walks than workers
            # and the problem has compiled kernels: then one lane batch per
            # worker
            n_slices = len(walk_ids)
            state.kernel = lane_kernel(state.job.problem)
            if n_slices > self.n_workers and state.kernel != "scalar":
                n_slices = self.n_workers
            state.slices = [
                tuple(walk_ids[i] for i in indices)
                for indices in partition_walks(len(walk_ids), n_slices)
            ]
            priority = -state.job.priority
            for index in range(n_slices):
                heapq.heappush(
                    self._ready,
                    ((priority, index, state.seq), job_id, index),
                )

    def _promote_delayed(self, now: float) -> None:
        while self._delayed and self._delayed[0][0] <= now:
            _, key, job_id, index = heapq.heappop(self._delayed)
            heapq.heappush(self._ready, (key, job_id, index))

    def _dispatch(self) -> None:
        pool = self._pool
        assert pool is not None
        while self._idle and self._ready:
            key, job_id, index = heapq.heappop(self._ready)
            state = self._jobs.get(job_id)
            if state is None or state.token is None:
                continue  # job finished while this task was queued
            walk_ids = state.slices[index]
            worker_id = self._idle.pop()
            now = time.monotonic()
            recorder = self.recorder
            ctx = state.trace
            # the cluster-scope job id when the job carries a trace context
            # (its walk ids already are cluster-scope: Job.walk_ids)
            job_label = (
                ctx.job_id if ctx is not None and ctx.job_id >= 0 else job_id
            )
            faults = None
            if self.chaos is not None:
                faults = tuple(
                    self.chaos.walk_fault(walk_id, job_label)
                    for walk_id in walk_ids
                )
                if not any(faults):
                    faults = None
            pool.progress[worker_id] = 0
            pool.send_task(
                worker_id,
                WalkTask(
                    job_id=job_id,
                    walk_ids=walk_ids,
                    problem_id=state.problem_id,  # type: ignore[arg-type]
                    config=state.job.config,
                    seeds=tuple(state.seeds[w] for w in walk_ids),
                    slot=state.token.slot,
                    generation=state.token.generation,
                    poll_every=self.poll_every,
                    trace=(
                        ctx.for_job(job_label)
                        if ctx is not None and recorder.enabled
                        else None
                    ),
                    milestone_every=recorder.milestone_every,
                    faults=faults,
                ),
            )
            self._in_flight[worker_id] = (job_id, walk_ids, now, job_label)
            if state.first_dispatch_at is None:
                state.first_dispatch_at = now
            self.metrics.record_dispatch()
            if recorder.enabled:
                # a one-walk slice is ``AdaptiveSearch.solve``: one compiled
                # lane where there is one, else the session (no lane engine)
                kernel = state.kernel
                lanes = len(walk_ids) if kernel == "compiled" else 0
                recorder.emit(
                    JobDispatch(
                        trace_id=ctx.trace_id if ctx is not None else "",
                        job_id=job_label,
                        walk_id=walk_ids[0],
                        worker=worker_id,
                        walk_ids=walk_ids,
                        lanes=lanes,
                        kernel=kernel,
                    )
                )

    def _check_deadlines(self, now: float) -> None:
        for state in list(self._jobs.values()):
            if state.deadline_at is not None and now >= state.deadline_at:
                if state.token is not None:
                    self._pool.cancel(state.token)  # type: ignore[union-attr]
                self._finish_job(state, JobStatus.TIMED_OUT, now)

    def _check_workers(self) -> None:
        pool = self._pool
        assert pool is not None
        for worker_id in pool.worker_ids:
            if pool.is_alive(worker_id):
                continue
            entry = self._in_flight.pop(worker_id, None)
            self._cancelled_at.pop(worker_id, None)
            self._idle.discard(worker_id)
            pool.respawn(worker_id)
            self.metrics.record_respawn()
            self._idle.add(worker_id)
            if entry is None:
                continue  # died idle: nothing to retry
            job_id, walk_ids, dispatched_at, _ = entry
            self._handle_crash(
                job_id,
                walk_ids,
                busy_time=time.monotonic() - dispatched_at,
                error=f"worker process {worker_id} died while running "
                f"walks {list(walk_ids)} of job {job_id}",
            )

    def _wait(self) -> None:
        """Block until something can have changed: a slice report in the
        outbox, a client message (the wake pipe), a dead worker (its
        sentinel), or the earliest deadline / retry backoff coming due."""
        pool = self._pool
        assert pool is not None
        due = [
            state.deadline_at
            for state in self._jobs.values()
            if state.deadline_at is not None
        ]
        if self._delayed:
            due.append(self._delayed[0][0])
        timeout = _LIVENESS_INTERVAL
        if due:
            timeout = min(timeout, max(0.0, min(due) - time.monotonic()))
        ready = multiprocessing.connection.wait(
            [pool.outbox_reader, self._wake_reader, *pool.sentinels], timeout
        )
        if self._wake_reader in ready:
            with self._wake_lock:
                self._wake_reader.recv_bytes()
                self._wake_pending = False

    def _reap(self) -> None:
        """Pull every slice report already in the pool outbox."""
        pool = self._pool
        assert pool is not None
        while True:
            try:
                message = pool.outbox.get_nowait()
            except queue.Empty:
                return
            kind, worker_id, job_id, walk_ids, payload = message
            if kind != "result":  # pragma: no cover - protocol guard
                continue
            entry = self._in_flight.pop(worker_id, None)
            arrived = time.monotonic()
            busy_time = arrived - entry[2] if entry is not None else 0.0
            self._idle.add(worker_id)
            cancelled_at = self._cancelled_at.pop(worker_id, None)
            if cancelled_at is not None:
                self.metrics.record_cancel_to_stop(arrived - cancelled_at)
            if self.recorder.enabled and "telemetry" in payload:
                # worker-side trace records, shipped home via the outbox
                self.recorder.ingest(payload["telemetry"])
            if "error" in payload:
                self._handle_crash(
                    job_id, walk_ids, busy_time=busy_time,
                    error=payload["error"],
                )
                continue
            state = self._jobs.get(job_id)
            # a slice is retried and reported whole, so its walks are
            # outstanding together or not at all
            stale = state is None or not state.outstanding.issuperset(walk_ids)
            self.metrics.record_walk_completed(
                busy_time, stale=stale, walks=len(walk_ids)
            )
            if stale:
                continue
            assert state is not None
            for walk_id, report in zip(walk_ids, payload["walks"]):
                outcome = WalkOutcome.from_payload(walk_id, report)
                state.handle._outcomes.append(outcome)
                # the lane that solved first (the engine stops at its round)
                if outcome.solved and (
                    state.winner is None
                    or outcome.wall_time < state.winner.wall_time
                ):
                    state.winner = outcome
            state.outstanding.difference_update(walk_ids)
            now = time.monotonic()
            if state.winner is not None:
                self._pool.cancel(state.token)  # type: ignore[arg-type,union-attr]
                # the losing slices still on workers: stopped from here on
                for loser, flight in self._in_flight.items():
                    if flight[0] == job_id:
                        self._cancelled_at[loser] = now
                self._finish_job(state, JobStatus.SOLVED, now)
            elif not state.outstanding:
                self._finish_job(state, JobStatus.UNSOLVED, now)
            else:
                state.handle._notify()

    # ------------------------------------------------------------------
    def _handle_crash(
        self,
        job_id: int,
        walk_ids: tuple[int, ...],
        *,
        busy_time: float,
        error: str,
    ) -> None:
        state = self._jobs.get(job_id)
        if state is None:
            self.metrics.record_crash(busy_time, retried=False)
            return
        state.crashes += 1
        if state.retries < state.retry.max_retries:
            state.retries += 1
            self.metrics.record_crash(busy_time, retried=True)
            due = time.monotonic() + state.retry.delay(state.retries)
            index = state.slices.index(tuple(walk_ids))
            key = (-state.job.priority, index, state.seq)
            heapq.heappush(self._delayed, (due, key, job_id, index))
        else:
            self.metrics.record_crash(busy_time, retried=False)
            state.error = error
            if state.token is not None:
                self._pool.cancel(state.token)  # type: ignore[union-attr]
            self._finish_job(state, JobStatus.FAILED, time.monotonic())

    def _finish_job(
        self, state: _JobState, status: JobStatus, now: float
    ) -> None:
        """Complete the handle, free the slot, forget the job.

        Losing walks may still be draining on workers; their late reports
        are counted as stale.  Slot recycling is immediately safe thanks to
        the generation tokens.
        """
        if state.job_id not in self._jobs:
            return  # already finished through another path
        del self._jobs[state.job_id]
        if state.token is not None:
            self._pool.release_slot(state.token)  # type: ignore[union-attr]
        queue_wait = (
            state.first_dispatch_at - state.submitted_at
            if state.first_dispatch_at is not None
            else now - state.submitted_at
        )
        solve_time = (
            now - state.first_dispatch_at
            if state.first_dispatch_at is not None
            else 0.0
        )
        latency = now - state.submitted_at
        result = JobResult(
            job_id=state.job_id,
            status=status,
            n_walkers=len(state.seeds),
            walks=sorted(state.handle._outcomes, key=lambda w: w.walk_id),
            winner=state.winner,
            error=state.error,
            queue_wait=queue_wait,
            solve_time=solve_time,
            latency=latency,
            retries=state.retries,
            crashes=state.crashes,
        )
        self.metrics.record_job_finished(status, latency, queue_wait)
        recorder = self.recorder
        if recorder.enabled:
            ctx = state.trace
            trace_id = ctx.trace_id if ctx is not None else ""
            job_label = (
                ctx.job_id
                if ctx is not None and ctx.job_id >= 0
                else state.job_id
            )
            submitted_epoch = epoch_of_monotonic(state.submitted_at)
            recorder.emit_span(
                "job.queue_wait",
                start=submitted_epoch,
                duration=queue_wait,
                trace_id=trace_id,
                job_id=job_label,
            )
            recorder.emit_span(
                "job.total",
                start=submitted_epoch,
                duration=latency,
                trace_id=trace_id,
                job_id=job_label,
                status=status.value,
            )
            recorder.emit(
                JobFinish(
                    trace_id=trace_id,
                    job_id=job_label,
                    status=status.value,
                    latency=latency,
                    queue_wait=queue_wait,
                )
            )
        state.handle._complete(result)
