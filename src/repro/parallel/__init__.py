"""Independent multi-walk parallel runtime.

The paper's parallelization scheme: launch ``k`` independent copies of the
sequential Adaptive Search engine from different random initial
configurations, with **no communication except completion** — the first walk
to find a solution terminates all others.

``MultiWalkSolver(executor=...)`` runs that scheme six ways; walk ``i``
follows the identical trajectory under every one of them:

- ``"process"`` — real OS processes via :mod:`multiprocessing` (the GIL rules
  out threads for a CPU-bound Python solver); walks poll a shared cancel
  event between iterations, mirroring the paper's MPI termination message.
- ``"inline"`` — every walk runs to completion sequentially in-process and
  the parallel wall time is *computed* as the minimum across walks.  For
  zero-communication multi-walks this is semantically exact, determinstic,
  and is what the simulated-platform experiments build on.
- ``"pool"`` — the persistent warm-worker pool of :mod:`repro.service`:
  same first-finisher semantics, but the processes are spawned once and
  shared across solves (and concurrent jobs), so launch overhead is gone.
- ``"vector"`` — all walks lock-step as lanes of the NumPy
  :mod:`repro.vector` engine, optionally split over several processes
  (``lanes=``).
- ``"net"`` — one job on a :mod:`repro.net` coordinator cluster.
- ``"coop"`` — ``"net"`` with elite migration between per-node islands
  (:mod:`repro.coop`), the paper's *dependent* multi-walk; its in-process
  form is :class:`CooperativeMultiWalk`, one island with no transport.

One walk report crosses every process boundary:
:class:`~repro.parallel.results.WalkOutcome` owns its format.
"""

from repro.parallel.cooperative import (
    CooperationConfig,
    CooperativeMultiWalk,
    CooperativeResult,
    ElitePool,
)
from repro.parallel.multiwalk import MultiWalkSolver, solve_parallel
from repro.parallel.results import ParallelResult, WalkOutcome
from repro.parallel.scaling import ScalingPoint, ScalingStudy, measure_scaling
from repro.parallel.seeding import partition_seeds, partition_walks, walk_seeds

__all__ = [
    "MultiWalkSolver",
    "CooperativeMultiWalk",
    "CooperationConfig",
    "CooperativeResult",
    "ElitePool",
    "solve_parallel",
    "ParallelResult",
    "WalkOutcome",
    "walk_seeds",
    "partition_seeds",
    "partition_walks",
    "measure_scaling",
    "ScalingStudy",
    "ScalingPoint",
]
