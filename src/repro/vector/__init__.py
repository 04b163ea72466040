"""Vector-walk engine: ``k`` lock-step walks per process.

See :mod:`repro.vector.engine` for the engine and equivalence contract,
:mod:`repro.vector.problems` for the compiled kernel set and
:func:`lane_kernel`, :mod:`repro.vector.native` for how ``lanes.c`` — the
compiled round — is built and loaded (importing this package does it), and
DESIGN.md ("Vector-walk engine") for the lane layout, the
every-row-is-a-live-lane invariant and the round-cost model.
"""

from repro.vector.engine import VectorRunOutcome, VectorWalkEngine, solve_vector
from repro.vector.native import kernel_backend
from repro.vector.problems import CompiledLanes, as_vector_problem, lane_kernel

__all__ = [
    "VectorRunOutcome",
    "VectorWalkEngine",
    "solve_vector",
    "CompiledLanes",
    "as_vector_problem",
    "kernel_backend",
    "lane_kernel",
]
