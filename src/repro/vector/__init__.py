"""Vector-walk engine: ``k`` lock-step walks per process.

See :mod:`repro.vector.engine` for the engine and equivalence contract,
:mod:`repro.vector.problems` for the batched per-problem kernels,
:mod:`repro.vector.native` for how ``lanes.c`` — the compiled round — is
built and loaded (importing this package does it), and DESIGN.md
("Vector-walk engine") for the lane layout, the every-row-is-a-live-lane
invariant, the three-call round and the round-cost model.
"""

from repro.vector.engine import VectorRunOutcome, VectorWalkEngine, solve_vector
from repro.vector.native import kernel_backend
from repro.vector.problems import (
    VectorProblem,
    as_vector_problem,
    has_batched_kernels,
    lane_kernel,
    register_vector_adapter,
)

__all__ = [
    "VectorRunOutcome",
    "VectorWalkEngine",
    "solve_vector",
    "VectorProblem",
    "as_vector_problem",
    "has_batched_kernels",
    "kernel_backend",
    "lane_kernel",
    "register_vector_adapter",
]
