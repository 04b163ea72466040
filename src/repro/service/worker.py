"""Child-process side of the persistent worker pool.

A service worker is a long-lived process running :func:`service_worker_main`:
it blocks on its private inbox queue and reacts to three message kinds,

``("problem", problem_id, problem)``
    cache the (already unpickled) problem instance — each problem crosses
    the process boundary once per worker, not once per walk;
``("problem_bytes", problem_id, payload)``
    same, but the parent ships the bytes it pickled once at registration
    (so respawns never re-serialize) and the worker unpickles;
``("problem_shm", problem_id, manifest)``
    zero-copy form: attach the named shared-memory segment published by
    the pool and rebuild the problem over read-only views of it (see
    :mod:`repro.parallel.shm`); the attachment is held until shutdown;
``("walk", task)``
    run one *slice* of a job — one walk through ``AdaptiveSearch.solve``,
    two or more as lanes of one
    :class:`~repro.vector.engine.VectorWalkEngine` — and
    report ``("result", worker_id, job_id, walk_ids, payload)`` on the
    shared outbox, ``payload["walks"]`` holding one walk report per id;
``("shutdown",)``
    exit the loop.

Cancellation uses a shared *generation* array instead of the one-shot event
of the plain process executor: every job holds a ``(slot, generation)``
token, a walk polls ``cancel_generations[slot] >= generation`` between
iterations, and cancelling a job raises the slot to that job's generation.
Generations only grow, so a slot can be handed to the next job immediately —
a stale walk of the previous tenant still sees itself cancelled while the
new tenant (holding a strictly larger generation) keeps running.  One job's
win therefore never kills another job's walks.

Progress: alongside the cancel poll, the slice publishes its iteration
count (live lanes advance in lock-step, so one number describes them all)
into the shared ``progress`` array (one int64 slot per worker).  The
scheduler snapshots it for free, node agents ship it in heartbeats, and
the coordinator's straggler detector feeds on it — all without any extra
IPC on the hot path.

Chaos: a :class:`~repro.chaos.plan.WalkFault` can ride inside the task
(``task.faults``, one entry per walk of the slice); the worker then
raises, hard-exits, or sleeps per iteration exactly as instructed, a lane
slice when the targeted lane reaches the fault's iteration.  The spec
travels with the task, so walk faults work identically across process
boundaries and need no global state in the child.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.core.config import AdaptiveSearchConfig
from repro.core.result import SolveResult
from repro.core.solver import AdaptiveSearch
from repro.parallel.results import WalkOutcome
from repro.telemetry.events import TraceContext

# imported with the worker module (so before any worker forks or serves its
# first task): no job pays for loading the lane engine
from repro.vector.engine import VectorWalkEngine

__all__ = [
    "WalkTask",
    "GenerationCancelCallback",
    "service_worker_main",
]


@dataclass(frozen=True)
class WalkTask:
    """One unit of pool work: a slice of the walks of one job.

    ``walk_ids[i]`` is the job-wide identity of the slice's ``i``-th walk
    and ``seeds[i]`` its exact stream, so a walk runs the trajectory it
    would run in any other slice, on any other executor.  A one-walk slice
    is ``AdaptiveSearch.solve``; a wider one runs as the lanes of one
    :class:`~repro.vector.engine.VectorWalkEngine` (the scheduler only
    builds wide slices for problems with compiled lane kernels).

    ``trace`` is ``None`` unless the scheduler is tracing this job, in
    which case the worker runs the slice under a ring-buffered telemetry
    recorder and ships the buffered records home inside the result payload
    (``payload["telemetry"]``) — the pool outbox doubles as the telemetry
    uplink, so no extra IPC machinery exists for tracing.

    ``faults`` is ``None`` unless a chaos plan targeted this dispatch (see
    module docstring); otherwise it holds one fault or ``None`` per walk.
    """

    job_id: int
    walk_ids: tuple[int, ...]
    problem_id: int
    config: Optional[AdaptiveSearchConfig]
    seeds: tuple[np.random.SeedSequence, ...]
    slot: int
    generation: int
    poll_every: int = 64
    trace: Optional[TraceContext] = None
    milestone_every: int = 0
    faults: Optional[tuple[Any, ...]] = None  # chaos WalkFaults, picklable


class GenerationCancelCallback:
    """Cancels a walk when its job's cancel slot reaches its generation.

    The shared array is only polled every ``poll_every`` iterations — the
    scheme needs completion detection, not instantaneous preemption
    (same trade-off as the process executor's event poll).  When a shared
    ``progress`` array is supplied, the same poll publishes the walk's
    iteration count into ``progress[progress_index]`` — piggybacked, so
    progress reporting costs nothing between polls.
    """

    def __init__(
        self, cancel_generations: Any, slot: int, generation: int,
        poll_every: int = 64,
        progress: Any = None,
        progress_index: int = 0,
    ) -> None:
        if poll_every < 1:
            raise ValueError(f"poll_every must be >= 1, got {poll_every}")
        self.cancel_generations = cancel_generations
        self.slot = slot
        self.generation = generation
        self.poll_every = poll_every
        self.progress = progress
        self.progress_index = progress_index

    def on_iteration(self, info: Any) -> bool | None:
        if info.iteration % self.poll_every == 0:
            if self.progress is not None:
                self.progress[self.progress_index] = info.iteration
            if self.cancel_generations[self.slot] >= self.generation:
                return False
        return None


def _crash(fault: Any, iteration: int) -> None:
    """Die as an injected ``exit`` / ``raise`` fault instructs."""
    if fault.action == "exit":
        os._exit(3)
    raise RuntimeError(
        f"chaos: injected walk crash at iteration {iteration}"
    )


def _apply_fault(fault: Any, iteration: int) -> None:
    """Enact an injected fault on a walk that just finished ``iteration``."""
    if fault.action == "slow":
        time.sleep(fault.iteration_delay)
    elif iteration >= fault.at_iteration:
        _crash(fault, iteration)


class _FaultCallback:
    """Applies an injected walk fault from inside the solver loop."""

    def __init__(self, fault: Any) -> None:
        self.fault = fault

    def on_iteration(self, info: Any) -> None:
        _apply_fault(self.fault, info.iteration)


def _run_walk(
    worker_id: int,
    task: WalkTask,
    problem: Any,
    cancel_generations: Any,
    progress: Any,
    recorder: Any,
) -> list[SolveResult]:
    """A one-walk slice: ``AdaptiveSearch.solve``, callbacks per iteration."""
    callbacks: list[Any] = [
        GenerationCancelCallback(
            cancel_generations, task.slot, task.generation,
            task.poll_every,
            progress=progress, progress_index=worker_id,
        )
    ]
    if task.faults is not None and task.faults[0] is not None:
        callbacks.append(_FaultCallback(task.faults[0]))
    if recorder is not None:
        from repro.telemetry.solver import TelemetryCallback

        assert task.trace is not None
        callbacks.append(
            TelemetryCallback(
                recorder,
                trace_id=task.trace.trace_id,
                job_id=task.trace.job_id,
                walk_id=task.walk_ids[0],
            )
        )
    return [
        AdaptiveSearch(task.config).solve(
            problem, seed=task.seeds[0], callbacks=callbacks
        )
    ]


def _run_lanes(
    worker_id: int,
    task: WalkTask,
    problem: Any,
    cancel_generations: Any,
    progress: Any,
    recorder: Any,
) -> list[SolveResult]:
    """A wider slice: every walk is a lane of one lock-step engine.

    The first solving lane ends the slice (the job is won); the cancel
    generation is polled and progress published every ``poll_every``
    rounds, a round being one iteration of every live lane.
    """
    telemetry = None
    if recorder is not None:
        from repro.telemetry.vector import vector_telemetry

        assert task.trace is not None
        telemetry = vector_telemetry(
            recorder,
            trace_id=task.trace.trace_id,
            job_id=task.trace.job_id,
            walk_ids=task.walk_ids,
        )
    faults = [
        (lane, fault)
        for lane, fault in enumerate(task.faults or ())
        if fault is not None
    ]
    slot, generation, poll_every = task.slot, task.generation, task.poll_every

    def on_round(engine: VectorWalkEngine) -> bool | None:
        if telemetry is not None:
            telemetry.round_callback(engine)
        for lane, fault in faults:
            _apply_fault(fault, int(engine.iterations[lane]))
        if engine.rounds % poll_every == 0:
            if progress is not None:
                progress[worker_id] = engine.rounds
            if cancel_generations[slot] >= generation:
                return False
        return None

    engine = VectorWalkEngine(
        problem,
        len(task.walk_ids),
        task.config,
        seeds=task.seeds,
        first_wins=True,
        round_callback=on_round,
    )
    if telemetry is not None:
        telemetry.on_start(engine)
    outcome = engine.run()
    if telemetry is not None:
        telemetry.on_finish(outcome)
    return outcome.walks


def _run_task(
    worker_id: int,
    task: WalkTask,
    problem: Any,
    cancel_generations: Any,
    progress: Any,
) -> dict[str, Any]:
    """Run one slice to its report payload.

    A function of its own so that nothing here — solver, callbacks,
    result — still references the problem once the task is done: a
    shared-memory problem's mapping can only close after the last array
    aliasing it is gone (see the shutdown branch of the worker loop).
    """
    for fault in task.faults or ():
        # pre-solve faults fire deterministically even for walks
        # whose budget is smaller than one callback interval
        if (
            fault is not None
            and fault.action != "slow"
            and fault.at_iteration <= 0
        ):
            _crash(fault, 0)
    ring = recorder = None
    if task.trace is not None:
        # traced slice: record telemetry into a bounded ring and
        # ship it home with the result (see WalkTask docstring)
        from repro.telemetry.recorder import Recorder
        from repro.telemetry.sinks import RingBufferSink

        ring = RingBufferSink()
        recorder = Recorder(
            sinks=[ring],
            proc=f"worker-{worker_id}",
            milestone_every=task.milestone_every,
        )
    run = _run_walk if len(task.walk_ids) == 1 else _run_lanes
    results = run(
        worker_id, task, problem, cancel_generations, progress, recorder
    )
    # best_so_far: graceful degradation returns an unsolved walk's best
    # configuration to the client
    payload: dict[str, Any] = {
        "walks": [
            WalkOutcome.from_result(
                walk_id, result, best_so_far=True
            ).to_payload()
            for walk_id, result in zip(task.walk_ids, results)
        ]
    }
    if ring is not None:
        payload["telemetry"] = ring.drain()
    return payload


#: reset to their defaults by every worker (see ``service_worker_main``)
TERMINATION_SIGNALS = (signal.SIGTERM, signal.SIGINT)


def service_worker_main(
    worker_id: int,
    inbox: Any,
    outbox: Any,
    cancel_generations: Any,
    progress: Any = None,
) -> None:
    """Run the worker loop until a shutdown message arrives.

    Every task produces exactly one result message; a slice that raises
    reports an ``{"error": traceback}`` payload and the worker *survives* —
    the retry decision belongs to the scheduler.  Only killing the process
    (or shutdown) ends the loop.
    """
    # whatever handlers the forking process had (the CLI's turn both
    # signals into KeyboardInterrupt), a worker dies of SIGTERM / SIGINT;
    # the pool blocks them across the fork, so none lands before this
    for signum in TERMINATION_SIGNALS:
        signal.signal(signum, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, TERMINATION_SIGNALS)
    problems: dict[int, Any] = {}
    attachments: list[Any] = []
    while True:
        message = inbox.get()
        kind = message[0]
        if kind == "shutdown":
            # the cached problems' arrays alias the mapped segments: drop
            # them first, or the mappings refuse to close (BufferError)
            problems.clear()
            for att in attachments:
                att.detach()
            break
        if kind == "problem":
            _, problem_id, problem = message
            problems[problem_id] = problem
            continue
        if kind == "problem_bytes":
            _, problem_id, payload = message
            problems[problem_id] = pickle.loads(payload)
            continue
        if kind == "problem_shm":
            from repro.parallel.shm import attach_problem

            _, problem_id, manifest = message
            att = attach_problem(manifest)
            attachments.append(att)
            problems[problem_id] = att.problem
            continue
        if kind != "walk":  # pragma: no cover - protocol guard
            continue
        task: WalkTask = message[1]
        try:
            payload = _run_task(
                worker_id, task, problems[task.problem_id],
                cancel_generations, progress,
            )
        except Exception:
            import traceback

            payload = {"error": traceback.format_exc()}
        outbox.put(("result", worker_id, task.job_id, task.walk_ids, payload))
