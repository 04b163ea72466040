"""NumPy-batched vector-walk engine: ``k`` lock-step walks per process.

See :mod:`repro.vector.engine` for the engine and equivalence contract,
:mod:`repro.vector.problems` for the batched per-problem kernels, and
DESIGN.md ("Vector-walk engine") for the lane layout, the every-row-is-a-
live-lane invariant and the round-cost model.
"""

from repro.vector.engine import VectorRunOutcome, VectorWalkEngine, solve_vector
from repro.vector.problems import (
    VectorProblem,
    as_vector_problem,
    has_batched_kernels,
    register_vector_adapter,
)

__all__ = [
    "VectorRunOutcome",
    "VectorWalkEngine",
    "solve_vector",
    "VectorProblem",
    "as_vector_problem",
    "has_batched_kernels",
    "register_vector_adapter",
]
