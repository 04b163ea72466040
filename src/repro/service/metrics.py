"""Service metrics: throughput, latency, queue wait, utilization, crashes.

Since the telemetry subsystem landed, ``ServiceMetrics`` is a *view* over
a :class:`repro.telemetry.MetricsRegistry` rather than a bag of private
counters: every figure lives in a registry instrument
(``service.jobs_submitted``, ``service.latency``, ...) so the same numbers
feed :meth:`snapshot`, heartbeat frames, Prometheus text rendering and the
``repro trace`` report.  The public API — ``record_*`` methods,
:meth:`snapshot`, :meth:`to_json`, the :class:`MetricsSnapshot` fields —
is unchanged from the pre-telemetry collector, and quantiles are still
exact ``np.percentile`` over a bounded observation window (the histogram
retains the same 16 384-observation ring the old collector used).

By default each ``ServiceMetrics`` owns a private registry (so concurrent
services in one process never bleed counters into each other); pass
``registry=`` to share one — e.g. the scheduler passes its recorder's
registry when the service is explicitly instrumented.

Worker utilization is measured as busy-time integral over wall time:
every dispatch->result interval (one per pool task, however many walks the
task ran as lanes) adds to a busy-seconds accumulator, and
``utilization = busy_seconds / (n_workers * uptime)``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass

from repro.service.jobs import JobStatus
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["MetricsSnapshot", "ServiceMetrics"]

#: retain at most this many per-job latency observations (ring buffer)
_MAX_OBSERVATIONS = 16_384

#: instruments are latency-scale histograms; share the default buckets but
#: pin the window so quantiles keep their historical semantics
_HISTOGRAM_KWARGS = {"window": _MAX_OBSERVATIONS}


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable point-in-time view of the service counters."""

    uptime: float
    n_workers: int
    jobs_submitted: int
    jobs_completed: int
    jobs_solved: int
    jobs_unsolved: int
    jobs_failed: int
    jobs_cancelled: int
    jobs_timed_out: int
    jobs_in_flight: int
    peak_jobs_in_flight: int
    tasks_dispatched: int
    walks_completed: int
    stale_walks: int
    crashes: int
    retries: int
    worker_respawns: int
    throughput_jobs_per_s: float
    latency_mean: float
    latency_p50: float
    latency_p95: float
    queue_wait_mean: float
    #: cancel-after-win: from the winner's cancel to a losing slice's report
    cancel_to_stop_mean: float
    cancel_to_stop_p95: float
    worker_utilization: float

    def to_json(self) -> dict[str, float | int]:
        """JSON-safe dict of every counter (wire format of node heartbeats
        and the coordinator ``stats`` frame — plain built-in scalars only)."""
        return {
            key: (float(value) if isinstance(value, float) else int(value))
            for key, value in asdict(self).items()
        }

    def summary(self) -> str:
        return (
            f"service: {self.jobs_completed}/{self.jobs_submitted} jobs done "
            f"({self.jobs_solved} solved, {self.jobs_failed} failed, "
            f"{self.jobs_timed_out} timed out) in {self.uptime:.2f}s | "
            f"{self.throughput_jobs_per_s:.2f} jobs/s, "
            f"latency mean {self.latency_mean * 1e3:.1f}ms "
            f"p50 {self.latency_p50 * 1e3:.1f}ms "
            f"p95 {self.latency_p95 * 1e3:.1f}ms, "
            f"queue wait {self.queue_wait_mean * 1e3:.1f}ms | "
            f"{self.n_workers} workers at "
            f"{self.worker_utilization:.0%} utilization, "
            f"{self.crashes} crash(es), {self.retries} retried, "
            f"{self.worker_respawns} respawn(s)"
        )


class ServiceMetrics:
    """Registry-backed collector behind :class:`MetricsSnapshot`.

    Thread-safe: the instruments carry their own locks; the only composite
    update (in-flight count and its peak) takes the collector lock.
    """

    def __init__(
        self, n_workers: int, registry: MetricsRegistry | None = None
    ) -> None:
        self._lock = threading.Lock()
        self._started_at = time.monotonic()
        self.n_workers = n_workers
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._jobs_submitted = r.counter("service.jobs_submitted")
        self._jobs_in_flight = r.gauge("service.jobs_in_flight")
        self._peak_in_flight = r.gauge("service.peak_jobs_in_flight")
        self._tasks_dispatched = r.counter("service.tasks_dispatched")
        self._walks_completed = r.counter("service.walks_completed")
        self._stale_walks = r.counter("service.stale_walks")
        self._crashes = r.counter("service.crashes")
        self._retries = r.counter("service.retries")
        self._respawns = r.counter("service.worker_respawns")
        self._busy_seconds = r.counter("service.busy_seconds")
        self._by_status = {
            status: r.counter(f"service.jobs_{status.value}")
            for status in JobStatus
        }
        self._latency = r.histogram("service.latency", **_HISTOGRAM_KWARGS)
        self._queue_wait = r.histogram(
            "service.queue_wait", **_HISTOGRAM_KWARGS
        )
        self._cancel_to_stop = r.histogram(
            "service.cancel_to_stop", **_HISTOGRAM_KWARGS
        )

    # ------------------------------------------------------------------
    # recording (called from the scheduler thread)
    # ------------------------------------------------------------------
    def record_submit(self) -> None:
        with self._lock:
            self._jobs_submitted.inc()
            self._jobs_in_flight.inc()
            self._peak_in_flight.set_max(self._jobs_in_flight.value)

    def record_dispatch(self) -> None:
        self._tasks_dispatched.inc()

    def record_walk_completed(
        self, busy_time: float, stale: bool, walks: int = 1
    ) -> None:
        """One finished pool task: ``walks`` walk reports (the lanes of a
        slice), one busy interval."""
        self._walks_completed.inc(walks)
        self._busy_seconds.inc(busy_time)
        if stale:
            self._stale_walks.inc(walks)

    def record_crash(self, busy_time: float, retried: bool) -> None:
        self._crashes.inc()
        self._busy_seconds.inc(busy_time)
        if retried:
            self._retries.inc()

    def record_respawn(self) -> None:
        self._respawns.inc()

    def record_cancel_to_stop(self, seconds: float) -> None:
        """One losing slice reported ``seconds`` after the solve that won
        its job raised the cancel generation."""
        self._cancel_to_stop.observe(seconds)

    def record_job_finished(
        self, status: JobStatus, latency: float, queue_wait: float
    ) -> None:
        with self._lock:
            self._jobs_in_flight.set(
                max(0.0, self._jobs_in_flight.value - 1.0)
            )
        self._by_status[status].inc()
        self._latency.observe(latency)
        self._queue_wait.observe(queue_wait)

    def to_json(self) -> dict[str, float | int]:
        """Shorthand for ``snapshot().to_json()``."""
        return self.snapshot().to_json()

    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        uptime = max(time.monotonic() - self._started_at, 1e-9)
        completed = sum(
            int(self._by_status[s].value) for s in JobStatus if s.finished
        )
        return MetricsSnapshot(
            uptime=uptime,
            n_workers=self.n_workers,
            jobs_submitted=int(self._jobs_submitted.value),
            jobs_completed=completed,
            jobs_solved=int(self._by_status[JobStatus.SOLVED].value),
            jobs_unsolved=int(self._by_status[JobStatus.UNSOLVED].value),
            jobs_failed=int(self._by_status[JobStatus.FAILED].value),
            jobs_cancelled=int(self._by_status[JobStatus.CANCELLED].value),
            jobs_timed_out=int(self._by_status[JobStatus.TIMED_OUT].value),
            jobs_in_flight=int(self._jobs_in_flight.value),
            peak_jobs_in_flight=int(self._peak_in_flight.value),
            tasks_dispatched=int(self._tasks_dispatched.value),
            walks_completed=int(self._walks_completed.value),
            stale_walks=int(self._stale_walks.value),
            crashes=int(self._crashes.value),
            retries=int(self._retries.value),
            worker_respawns=int(self._respawns.value),
            throughput_jobs_per_s=completed / uptime,
            latency_mean=float(self._latency.mean),
            latency_p50=float(self._latency.p50),
            latency_p95=float(self._latency.p95),
            queue_wait_mean=float(self._queue_wait.mean),
            cancel_to_stop_mean=float(self._cancel_to_stop.mean),
            cancel_to_stop_p95=float(self._cancel_to_stop.p95),
            worker_utilization=min(
                1.0, self._busy_seconds.value / (self.n_workers * uptime)
            ),
        )
