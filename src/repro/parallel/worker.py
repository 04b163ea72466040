"""Process-executor worker entry point.

Kept in its own importable module so :mod:`multiprocessing` can pickle the
target function under every start method (fork, spawn, forkserver).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.config import AdaptiveSearchConfig
from repro.core.solver import AdaptiveSearch
from repro.parallel.results import WalkOutcome
from repro.problems.base import Problem

__all__ = ["CancelCheckCallback", "run_walk"]


class CancelCheckCallback:
    """Cancels a walk when a shared event is set.

    The event is only polled every ``poll_every`` iterations: the check is a
    cross-process read, and the paper's scheme needs completion detection,
    not instantaneous preemption.
    """

    def __init__(self, cancel_event: Any, poll_every: int = 128) -> None:
        if poll_every < 1:
            raise ValueError(f"poll_every must be >= 1, got {poll_every}")
        self.cancel_event = cancel_event
        self.poll_every = poll_every

    def on_iteration(self, info: Any) -> bool | None:
        if info.iteration % self.poll_every == 0 and self.cancel_event.is_set():
            return False
        return None


def run_walk(
    walk_id: int,
    problem: Problem,
    config: AdaptiveSearchConfig,
    seed: np.random.SeedSequence,
    cancel_event: Any,
    result_queue: Any,
    poll_every: int = 128,
    trace_id: str = "",
    milestone_every: int = 0,
) -> None:
    """Run one walk; report the outcome and raise the completion flag.

    Always enqueues exactly one ``(walk_id, payload)`` tuple, where payload
    is either a result dict or an ``{"error": traceback}`` dict.  When
    ``trace_id`` is set the walk runs under a ring-buffered telemetry
    recorder and the drained records ride home in ``payload["telemetry"]``
    — the result queue doubles as the telemetry uplink, same scheme as the
    warm-pool worker.
    """
    try:
        solver = AdaptiveSearch(config)
        callbacks: list[Any] = [CancelCheckCallback(cancel_event, poll_every)]
        ring = None
        if trace_id:
            from repro.telemetry.recorder import Recorder
            from repro.telemetry.sinks import RingBufferSink
            from repro.telemetry.solver import TelemetryCallback

            ring = RingBufferSink()
            recorder = Recorder(
                sinks=[ring],
                proc=f"walk-{walk_id}",
                milestone_every=milestone_every,
            )
            callbacks.append(
                TelemetryCallback(recorder, trace_id=trace_id, walk_id=walk_id)
            )
        result = solver.solve(problem, seed=seed, callbacks=callbacks)
        if result.solved:
            # completion notification: the only inter-process communication
            cancel_event.set()
        payload = WalkOutcome.from_result(walk_id, result).to_payload()
        if ring is not None:
            payload["telemetry"] = ring.drain()
        result_queue.put((walk_id, payload))
    except Exception:  # pragma: no cover - defensive: surface worker crashes
        import traceback

        result_queue.put((walk_id, {"error": traceback.format_exc()}))
