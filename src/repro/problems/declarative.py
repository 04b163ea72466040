"""Declarative (model-defined) counterparts of benchmark problems.

These build the benchmarks purely from :class:`~repro.csp.model.Model`
constraints and expose them through :class:`~repro.problems.base.ModelProblem`
— no hand-written incremental cost code.  They exist to exercise and
regression-guard the incremental model-evaluation path (CSR incidence index,
vectorized ``swap_errors`` kernels, per-constraint error cache) against the
native implementations: same landscape, generic evaluation machinery.

Registered families (``make_problem``):

``magic_square_model``
    prob019 as ``2n + 2`` unit-coefficient :class:`LinearConstraint` rows.
``queens_model``
    n-queens as pairwise :class:`AbsoluteDifference` diagonal constraints
    (columns are all-different by permutation structure) — a dense binary
    constraint network stressing the incidence index.
``all_interval_model``
    prob007 via a single :class:`FunctionalConstraint` counting duplicate
    neighbour differences — exercises the correct-by-default ``swap_errors``
    fallback for black-box constraints.
"""

from __future__ import annotations

import numpy as np

from repro.csp.constraints import FunctionalConstraint, LinearConstraint
from repro.csp.domain import IntegerDomain
from repro.csp.global_constraints import AbsoluteDifference
from repro.csp.model import Model
from repro.errors import ProblemError
from repro.problems.base import ModelProblem
from repro.problems.registry import register_problem

__all__ = [
    "declarative_magic_square",
    "declarative_queens",
    "declarative_all_interval",
]


@register_problem("magic_square_model")
def declarative_magic_square(n: int = 4) -> ModelProblem:
    """Magic square as a permutation array plus ``2n + 2`` sum equations."""
    if n < 3:
        raise ProblemError(f"magic_square_model needs n >= 3, got {n}")
    model = Model(f"magic-{n}")
    cells = model.add_array("cell", n * n, IntegerDomain(1, n * n))
    model.declare_permutation(cells)
    magic = n * (n * n + 1) // 2
    ones = [1.0] * n
    for r in range(n):
        model.add_constraint(
            LinearConstraint(
                [r * n + c for c in range(n)], ones, "==", magic, name=f"row{r}"
            )
        )
    for c in range(n):
        model.add_constraint(
            LinearConstraint(
                [r * n + c for r in range(n)], ones, "==", magic, name=f"col{c}"
            )
        )
    model.add_constraint(
        LinearConstraint(
            [i * n + i for i in range(n)], ones, "==", magic, name="diag"
        )
    )
    model.add_constraint(
        LinearConstraint(
            [i * n + (n - 1 - i) for i in range(n)], ones, "==", magic, name="anti"
        )
    )
    # same tuning as the native MagicSquareProblem: identical landscape
    return ModelProblem(
        model,
        solver_defaults={
            "freeze_loc_min": 5,
            "reset_limit": max(5, n * n // 8),
            "reset_fraction": 0.25,
            "prob_select_loc_min": 0.5,
            "restart_limit": 10**9,
        },
    )


@register_problem("queens_model")
def declarative_queens(n: int = 8) -> ModelProblem:
    """n-queens: rows are a permutation, diagonals are |x_i - x_j| != |i - j|."""
    if n < 4:
        raise ProblemError(f"queens_model needs n >= 4, got {n}")
    model = Model(f"queens-{n}")
    rows = model.add_array("row", n, IntegerDomain(0, n - 1))
    model.declare_permutation(rows)
    for i in range(n):
        for j in range(i + 1, n):
            model.add_constraint(
                AbsoluteDifference(i, j, "!=", j - i, name=f"diag{i}_{j}")
            )
    # same tuning as the native QueensProblem
    return ModelProblem(
        model,
        solver_defaults={
            "freeze_loc_min": 2,
            "reset_limit": max(2, n // 10),
            "reset_fraction": 0.1,
            "prob_select_loc_min": 0.33,
            "restart_limit": 10**9,
        },
    )


def _duplicate_differences(values: np.ndarray) -> float:
    # module-level, so that the model pickles (workers, content digests)
    diffs = np.abs(np.diff(values))
    return float(diffs.size - np.unique(diffs).size)


@register_problem("all_interval_model")
def declarative_all_interval(n: int = 8) -> ModelProblem:
    """All-interval series via a black-box duplicate-difference counter.

    Deliberately modelled with one :class:`FunctionalConstraint` over the
    whole series, so the generic ``swap_errors`` fallback path (swap,
    re-evaluate, swap back) stays under test alongside the vectorized
    kernels.
    """
    if n < 3:
        raise ProblemError(f"all_interval_model needs n >= 3, got {n}")
    model = Model(f"all-interval-{n}")
    series = model.add_array("s", n, IntegerDomain(0, n - 1))
    model.declare_permutation(series)
    model.add_constraint(
        FunctionalConstraint(
            list(range(n)), _duplicate_differences, name="distinct-diffs"
        )
    )
    # same tuning as the native AllIntervalProblem
    return ModelProblem(
        model,
        solver_defaults={
            "freeze_loc_min": 5,
            "reset_limit": max(4, n // 2),
            "reset_fraction": 0.25,
            "prob_select_loc_min": 0.5,
            "restart_limit": 10**9,
        },
    )
