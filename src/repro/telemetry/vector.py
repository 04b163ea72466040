"""Vector-engine telemetry: per-lane counters from lock-step rounds.

The scalar solver emits through per-iteration callbacks; the vector engine
has no per-iteration seam (a round advances *all* lanes at once), so this
adapter hooks the engine's ``round_callback`` instead and samples the
engine's per-lane views (``iterations`` / ``cost`` / ``best_cost`` /
``active``, assembled per original lane each time they are read).

Mirroring :func:`repro.telemetry.solver.solver_callbacks`, the factory
returns ``None`` when telemetry is off, so a telemetry-off vector run
carries no callback at all and the engine's hot loop skips the hook
entirely.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.telemetry.events import IterationMilestone, WalkFinish, WalkStart
from repro.telemetry.recorder import Recorder, get_recorder

__all__ = ["VectorTelemetry", "vector_telemetry"]


class VectorTelemetry:
    """Per-lane lifecycle events + sampled milestones for one vector run.

    ``walk_ids[lane]`` maps engine lanes to cluster-wide walk identities so
    merged traces line up with every other executor.  Three registry
    instruments aggregate across lanes:

    - ``vector.rounds`` — lock-step rounds executed;
    - ``vector.lane_iterations`` — total per-lane iterations (the sum of
      the engine's per-lane counters, comparable to ``solver.iterations``);
    - ``vector.lanes`` — lanes launched.
    """

    def __init__(
        self,
        recorder: Recorder,
        *,
        trace_id: str = "",
        job_id: int = -1,
        walk_ids: Optional[Sequence[int]] = None,
        milestone_every: int | None = None,
    ) -> None:
        self.recorder = recorder
        self.trace_id = trace_id
        self.job_id = job_id
        self.walk_ids = list(walk_ids) if walk_ids is not None else None
        self.milestone_every = (
            recorder.milestone_every
            if milestone_every is None
            else milestone_every
        )
        registry = recorder.registry
        self._rounds = registry.counter("vector.rounds")
        self._lane_iters = registry.counter("vector.lane_iterations")
        self._lanes = registry.counter("vector.lanes")
        self._started = False

    # ------------------------------------------------------------------
    def _walk_id(self, lane: int) -> int:
        if self.walk_ids is None:
            return lane
        return self.walk_ids[lane]

    def on_start(self, engine) -> None:
        """Emit one ``WalkStart`` per lane (call before ``engine.run()``)."""
        self._started = True
        self._lanes.inc(engine.k)
        # the engine assembles its per-lane views on demand: read each once
        for lane, cost in enumerate(engine.cost.tolist()):
            self.recorder.emit(
                WalkStart(
                    trace_id=self.trace_id,
                    job_id=self.job_id,
                    walk_id=self._walk_id(lane),
                    cost=cost,
                )
            )

    def round_callback(self, engine) -> None:
        """Engine hook: count rounds, sample per-lane milestones."""
        self._rounds.inc()
        every = self.milestone_every
        if not every or engine.rounds % every:
            return None
        iterations = engine.iterations
        cost = engine.cost
        best = engine.best_cost
        for lane in map(int, engine.active.nonzero()[0]):
            self.recorder.emit(
                IterationMilestone(
                    trace_id=self.trace_id,
                    job_id=self.job_id,
                    walk_id=self._walk_id(lane),
                    iteration=int(iterations[lane]),
                    cost=float(cost[lane]),
                    best_cost=float(best[lane]),
                )
            )
        return None

    def on_finish(self, outcome) -> None:
        """Emit one ``WalkFinish`` per lane from a run outcome."""
        for lane, result in enumerate(outcome.walks):
            self._lane_iters.inc(result.stats.iterations)
            self.recorder.emit(
                WalkFinish(
                    trace_id=self.trace_id,
                    job_id=self.job_id,
                    walk_id=self._walk_id(lane),
                    solved=bool(result.solved),
                    cost=float(result.cost),
                    iterations=result.stats.iterations,
                    wall_time=result.stats.wall_time,
                )
            )


def vector_telemetry(
    recorder: Optional[Recorder] = None,
    *,
    trace_id: str = "",
    job_id: int = -1,
    walk_ids: Optional[Sequence[int]] = None,
    milestone_every: int | None = None,
) -> Optional[VectorTelemetry]:
    """The adapter to splice into a vector run: ``None`` when telemetry is
    off, so the engine runs with no round callback at all."""
    recorder = recorder if recorder is not None else get_recorder()
    if not recorder.enabled:
        return None
    return VectorTelemetry(
        recorder,
        trace_id=trace_id,
        job_id=job_id,
        walk_ids=walk_ids,
        milestone_every=milestone_every,
    )
