"""Persistent warm-worker pool and concurrent solve-job scheduler.

The paper's independent multi-walk scheme assumes ``k`` dedicated engines
already sitting on cores; the plain process executor instead cold-spawns
``k`` processes per ``solve()`` call.  This package makes the engines
long-lived and the walker count a per-request scheduling decision:

- :class:`WorkerPool` — processes spawned once, each problem serialized to
  each worker once, tasks (each a slice of one job's walks — vector lanes
  where the problem has compiled lane kernels) fed over per-worker queues;
- :class:`Job` / :class:`JobResult` — one solve request with seed, walker
  count, priority, deadline and a crash :class:`RetryPolicy`;
- :class:`SolverService` — multiplexes many concurrent jobs over the
  shared pool with per-job first-finisher-wins cancellation (generation
  tokens, so one job's win never kills another job's walks), queueing when
  jobs outnumber workers, retry-with-backoff on worker crashes, and
  deadline enforcement;
- :class:`ServiceMetrics` / :class:`MetricsSnapshot` — throughput, latency
  percentiles, queue wait, worker utilization, crash/retry counts.

Quickstart::

    from repro import make_problem
    from repro.service import SolverService

    with SolverService(n_workers=4) as service:
        handles = [
            service.submit(make_problem("costas", n=9), n_walkers=4, seed=s)
            for s in range(8)
        ]
        for handle in handles:
            print(handle.result().summary())
        print(service.snapshot().summary())
"""

from repro.service.batch import (
    JobSpec,
    build_jobs,
    format_results_table,
    load_jobs_file,
    run_specs,
)
from repro.service.jobs import Job, JobResult, JobStatus, RetryPolicy
from repro.service.metrics import MetricsSnapshot, ServiceMetrics
from repro.service.pool import CancelToken, WorkerPool
from repro.service.scheduler import JobHandle, SolverService
from repro.service.worker import GenerationCancelCallback, WalkTask

__all__ = [
    "CancelToken",
    "GenerationCancelCallback",
    "Job",
    "JobHandle",
    "JobResult",
    "JobSpec",
    "JobStatus",
    "MetricsSnapshot",
    "RetryPolicy",
    "ServiceMetrics",
    "SolverService",
    "WalkTask",
    "WorkerPool",
    "build_jobs",
    "format_results_table",
    "load_jobs_file",
    "run_specs",
]
