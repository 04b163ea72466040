"""Job and result types of the solve service.

A :class:`Job` is one multi-walk solve request: a problem, a walker count,
a seed, and scheduling attributes (priority, deadline, retry policy).  The
service expands every job into slices of walks over the shared
:class:`~repro.service.pool.WorkerPool` and folds the walk reports back
into a :class:`JobResult`.

Walker count is a *job* attribute here, not a solver-constructor argument:
the same warm pool serves jobs of any width, so how many walks a request
gets is a per-request scheduling decision (cf. the SAT runtime-distribution
literature, where the useful degree of parallelism depends on the
instance's runtime distribution, not on the machine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from repro.core.config import AdaptiveSearchConfig
from repro.errors import ParallelError
from repro.parallel.results import ParallelResult, WalkOutcome
from repro.parallel.seeding import walk_seeds
from repro.problems.base import Problem
from repro.telemetry.events import TraceContext
from repro.util.rng import SeedLike

__all__ = ["JobStatus", "RetryPolicy", "Job", "JobResult"]


class JobStatus(Enum):
    """Lifecycle of a solve job inside the service."""

    PENDING = "pending"  # queued, no walk dispatched yet
    RUNNING = "running"  # at least one walk dispatched
    SOLVED = "solved"  # a walk reached cost <= target
    UNSOLVED = "unsolved"  # every walk exhausted its budget
    FAILED = "failed"  # a walk crashed and the retry budget ran out
    CANCELLED = "cancelled"  # cancelled by the client
    TIMED_OUT = "timed_out"  # the job's deadline passed

    @property
    def finished(self) -> bool:
        return self not in (JobStatus.PENDING, JobStatus.RUNNING)


@dataclass(frozen=True)
class RetryPolicy:
    """How the service reacts to a crashed walk (exception or dead worker).

    ``max_retries`` crashes are retried per job; each retry is delayed by
    ``backoff * backoff_factor ** (retry - 1)`` seconds (exponential
    backoff, first retry after ``backoff``).  One more crash fails the job.
    """

    max_retries: int = 2
    backoff: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ParallelError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff < 0:
            raise ParallelError(f"backoff must be >= 0, got {self.backoff}")
        if self.backoff_factor < 1.0:
            raise ParallelError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def delay(self, retry: int) -> float:
        """Backoff before the ``retry``-th retry (1-based)."""
        if retry < 1:
            raise ParallelError(f"retry must be >= 1, got {retry}")
        return self.backoff * self.backoff_factor ** (retry - 1)


@dataclass
class Job:
    """One solve request submitted to the service.

    Parameters
    ----------
    problem:
        the instance to solve.  Submitting the *same object* across jobs
        lets the pool serialize it to each worker once.
    n_walkers:
        independent walks raced for this job (first finisher wins).
    seed:
        master seed; per-walk seeds are spawned exactly as in
        :func:`repro.parallel.seeding.walk_seeds`, so a pool job is
        trajectory-identical to the inline/process executors.
    seeds:
        explicit per-walk seed sequences, overriding ``seed`` (used by the
        harness to reproduce sequential trajectories bit-for-bit).
    config:
        solver configuration (problem defaults merge inside the worker).
    priority:
        larger runs earlier when the pool is oversubscribed (default 0).
    deadline:
        seconds after submission at which the job is force-cancelled.
    retry:
        crash policy; ``None`` uses the service default.
    trace:
        telemetry trace context; when set (and the service's recorder is
        enabled) the job's dispatches, walks and completion are stamped
        with this trace id — how a cluster-scope solve keeps one id across
        client, coordinator, agents and pool workers.
    walk_ids:
        the identities the job's walks go by in reports, progress,
        telemetry and chaos faults, one per walker; ``None`` numbers them
        ``0..n_walkers-1``.  A node agent passes the cluster-wide ids of
        the walks it was assigned, so nothing downstream re-labels them.
    """

    problem: Problem
    n_walkers: int = 1
    seed: SeedLike = None
    seeds: Optional[Sequence[np.random.SeedSequence]] = None
    config: Optional[AdaptiveSearchConfig] = None
    priority: int = 0
    deadline: Optional[float] = None
    retry: Optional[RetryPolicy] = None
    trace: Optional[TraceContext] = None
    walk_ids: Optional[Sequence[int]] = None

    def __post_init__(self) -> None:
        if self.n_walkers < 1:
            raise ParallelError(
                f"n_walkers must be >= 1, got {self.n_walkers}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ParallelError(
                f"deadline must be > 0 seconds, got {self.deadline}"
            )
        if self.seeds is not None and len(self.seeds) != self.n_walkers:
            raise ParallelError(
                f"got {len(self.seeds)} explicit seeds for "
                f"{self.n_walkers} walkers"
            )
        if self.walk_ids is not None and (
            len(set(self.walk_ids)) != self.n_walkers
            or len(self.walk_ids) != self.n_walkers
        ):
            raise ParallelError(
                f"walk_ids must name {self.n_walkers} distinct walks, "
                f"got {list(self.walk_ids)}"
            )

    def walk_seed_sequences(self) -> list[np.random.SeedSequence]:
        if self.seeds is not None:
            return list(self.seeds)
        return walk_seeds(self.n_walkers, self.seed)


@dataclass
class JobResult:
    """Everything the service knows about a finished job.

    Timing fields (all in seconds):

    ``queue_wait``
        submission -> first walk dispatched to a worker.
    ``solve_time``
        first dispatch -> completion (the warm-pool analogue of the
        process executor's measured wall time).
    ``latency``
        submission -> completion (what a client experiences).
    """

    job_id: int
    status: JobStatus
    n_walkers: int
    walks: list[WalkOutcome] = field(default_factory=list)
    winner: Optional[WalkOutcome] = None
    error: Optional[str] = None
    queue_wait: float = 0.0
    solve_time: float = 0.0
    latency: float = 0.0
    retries: int = 0
    crashes: int = 0

    @property
    def solved(self) -> bool:
        return self.status is JobStatus.SOLVED

    @property
    def config(self) -> Optional[np.ndarray]:
        return self.winner.config if self.winner is not None else None

    def to_parallel_result(self) -> ParallelResult:
        """View this job as a :class:`ParallelResult` (``executor="pool"``).

        ``wall_time`` maps to the in-pool solve time and ``elapsed_time`` to
        the client-observed latency, mirroring the process executor's
        winner-time / call-time split.
        """
        return ParallelResult(
            solved=self.solved,
            n_walkers=self.n_walkers,
            winner=self.winner,
            walks=list(self.walks),
            wall_time=self.solve_time,
            elapsed_time=self.latency,
            executor="pool",
        )

    def summary(self) -> str:
        if self.status is JobStatus.SOLVED:
            assert self.winner is not None
            status = f"SOLVED by walk {self.winner.walk_id}"
        else:
            status = self.status.value.upper()
        extra = ""
        if self.crashes:
            extra = f", {self.crashes} crash(es)/{self.retries} retried"
        return (
            f"job {self.job_id} x{self.n_walkers}: {status}, "
            f"queue {self.queue_wait * 1e3:.1f}ms, "
            f"latency {self.latency * 1e3:.1f}ms{extra}"
        )
