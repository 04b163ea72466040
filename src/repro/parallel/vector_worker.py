"""Process entry point for the hybrid processes x lanes vector executor.

One process advances a whole *slice* of walk lanes lock-step in a single
:class:`~repro.vector.engine.VectorWalkEngine`; across processes the usual
one-shot cancel event provides first-finisher-wins.  Kept importable at
module top level so :mod:`multiprocessing` can pickle the target under
every start method.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.config import AdaptiveSearchConfig
from repro.parallel.results import WalkOutcome
from repro.problems.base import Problem

# imported with this module, so by the parent before it starts a worker:
# the compiled lane kernels are built (once per machine) and loaded there,
# a forked worker inherits the mapping and a spawned one finds the cache warm
from repro.vector.engine import VectorWalkEngine

__all__ = ["run_vector_slice"]


def run_vector_slice(
    walk_ids: Sequence[int],
    problem: Problem,
    config: AdaptiveSearchConfig,
    seeds: Sequence[np.random.SeedSequence],
    cancel_event: Any,
    result_queue: Any,
    poll_every_rounds: int = 16,
) -> None:
    """Run one lane slice; enqueue one ``(walk_id, payload)`` per lane.

    ``walk_ids[i]`` is the cluster-wide identity of local lane ``i`` and
    ``seeds[i]`` its exact stream, so the trajectory equals the same walk
    under every other executor.  The engine runs ``first_wins`` *within*
    the slice; across slices the shared event is polled every
    ``poll_every_rounds`` lock-step rounds (a round advances every live
    lane once, so the effective per-walk poll interval matches the scalar
    executor's ``poll_every`` iterations).
    """
    try:
        def on_round(engine: Any) -> bool | None:
            if (
                engine.rounds % poll_every_rounds == 0
                and cancel_event.is_set()
            ):
                return False
            return None

        engine = VectorWalkEngine(
            problem,
            k=len(walk_ids),
            config=config,
            seeds=list(seeds),
            first_wins=True,
            round_callback=on_round,
        )
        outcome = engine.run()
        if outcome.solved:
            # completion notification: the only inter-process communication
            cancel_event.set()
        for walk_id, result in zip(walk_ids, outcome.walks):
            report = WalkOutcome.from_result(walk_id, result)
            result_queue.put((walk_id, report.to_payload()))
    except Exception:  # pragma: no cover - defensive: surface worker crashes
        import traceback

        err = {"error": traceback.format_exc()}
        for walk_id in walk_ids:
            result_queue.put((walk_id, err))
