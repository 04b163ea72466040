"""Declarative CSP model: variable arrays + error-function constraints.

The model aggregates constraint errors into a total cost and projects them
onto variables — the two quantities Adaptive Search consumes.  Permutation
structure can be declared per variable array; the
:class:`~repro.problems.base.ModelProblem` adapter then exposes the model to
the solver through the incremental problem protocol.

Tables are compiled from the constraint list at first use (and again
after :meth:`Model.add_constraint`): the CSR variable→constraint incidence;
the *linear block* — every :class:`LinearConstraint` stacked into one
coefficient matrix, so that the swap kernels evaluate all of them in a
handful of array operations instead of one Python call per constraint; and,
for a model that is nothing but ``+-1`` rows with integer right-hand sides,
the same system as one integer table for the compiled lanes
(:attr:`Model.unit_linear_table`).  All are derived, hence never pickled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from repro.csp.constraints import Constraint, LinearConstraint, Relation
from repro.csp.domain import Domain
from repro.csp.variables import VariableArray
from repro.errors import ModelError
from repro.util.derived import content_state
from repro.util.rng import SeedLike, as_generator

__all__ = ["Model"]


@dataclass(frozen=True)
class _LinearBlock:
    """Every :class:`LinearConstraint` of a model as one dense system.

    Row ``r`` is constraint ``ids[r]`` (in model order):
    ``coefficients[r] @ x REL rhs[r]``, with 0 for unmentioned variables.
    ``groups`` pairs each relation's error function with its rows.
    ``weights[r] * scale[r]`` is the row's ``variable_errors`` projection
    per unit of error, kept as two factors so the products round exactly as
    :meth:`LinearConstraint.variable_errors` rounds them.

    The kernels work from ``lhs = coefficients @ x``, which a walk keeps
    beside its constraint errors and moves by ``(c_i - c_j)(x_j - x_i)``
    per swap.  With integer coefficients and right-hand sides every
    quantity is an exactly represented integer, so the block returns bit
    for bit what the per-constraint kernels return; otherwise the two may
    differ in the last place.
    """

    ids: np.ndarray  # (L,) indices into Model.constraints
    others: tuple[int, ...]  # indices of every other constraint
    coefficients: np.ndarray  # (L, n)
    rhs: np.ndarray  # (L,)
    groups: tuple[tuple[Callable, np.ndarray], ...]
    weights: np.ndarray  # (L, n)
    scale: np.ndarray  # (L, 1)

    @classmethod
    def compile(
        cls, constraints: Sequence[Constraint], n_variables: int
    ) -> "_LinearBlock":
        ids = [
            ci for ci, c in enumerate(constraints)
            if isinstance(c, LinearConstraint)
        ]
        coefficients = np.zeros((len(ids), n_variables), dtype=np.float64)
        weights = np.zeros_like(coefficients)
        scale = np.ones((len(ids), 1), dtype=np.float64)
        rows_of: dict[Callable, list[int]] = {}
        for row, ci in enumerate(ids):
            constraint = constraints[ci]
            coefficients[row, constraint.variables] = constraint.coefficients
            magnitude = np.abs(constraint.coefficients)
            total = magnitude.sum()
            if total == 0:
                weights[row, constraint.variables] = 1.0
            else:
                weights[row, constraint.variables] = magnitude
                scale[row] = len(magnitude) / total
            rows_of.setdefault(constraint.relation.error_fn, []).append(row)
        return cls(
            ids=np.asarray(ids, dtype=np.int64),
            others=tuple(
                ci for ci, c in enumerate(constraints)
                if not isinstance(c, LinearConstraint)
            ),
            coefficients=coefficients,
            rhs=np.asarray([constraints[ci].rhs for ci in ids], dtype=np.float64),
            groups=tuple(
                (fn, np.asarray(rows, dtype=np.int64))
                for fn, rows in rows_of.items()
            ),
            weights=weights,
            scale=scale,
        )

    def errors(self, lhs: np.ndarray) -> np.ndarray:
        """Row errors for ``lhs`` of shape ``(L,)`` or ``(L, candidates)``."""
        rhs = self.rhs if lhs.ndim == 1 else self.rhs[:, None]
        if len(self.groups) == 1:  # one relation throughout: no gather
            return np.asarray(self.groups[0][0](lhs, rhs), dtype=np.float64)
        out = np.empty(lhs.shape, dtype=np.float64)
        for fn, rows in self.groups:
            out[rows] = fn(lhs[rows], rhs[rows])
        return out


class Model:
    """A collection of variable arrays and constraints.

    Variables receive global indices in registration order: the first array
    occupies ``0 .. n0-1``, the next ``n0 .. n0+n1-1``, and so on.  A full
    assignment is a single int64 vector over all global indices.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.arrays: list[VariableArray] = []
        self.constraints: list[Constraint] = []
        self._n_variables = 0
        self._permutation_arrays: set[str] = set()

    def __getstate__(self) -> dict[str, Any]:
        return content_state(self)

    def _invalidate_compiled(self) -> None:
        self.__dict__ = content_state(self)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_array(self, name: str, n: int, domain: Domain) -> VariableArray:
        """Create and register a new variable array."""
        if any(a.name == name for a in self.arrays):
            raise ModelError(f"duplicate variable array name {name!r}")
        array = VariableArray(name, n, domain)
        array._register(self._n_variables)
        self.arrays.append(array)
        self._n_variables += array.n
        self._invalidate_compiled()
        return array

    def add_constraint(self, constraint: Constraint) -> Constraint:
        """Register a constraint; its indices must be in range."""
        if constraint.variables.max() >= self._n_variables:
            raise ModelError(
                f"constraint {constraint.name!r} mentions variable "
                f"{int(constraint.variables.max())} but model has only "
                f"{self._n_variables} variables"
            )
        self.constraints.append(constraint)
        self._invalidate_compiled()
        return constraint

    def add_constraints(self, constraints: Iterable[Constraint]) -> None:
        for c in constraints:
            self.add_constraint(c)

    def declare_permutation(self, array: VariableArray) -> None:
        """Mark ``array`` as permutation-structured.

        Its variables always hold a permutation of the domain values; random
        configurations shuffle the domain and the solver explores by swaps
        (keeping any all-different structure satisfied by construction).
        """
        if array not in self.arrays:
            raise ModelError(f"array {array.name!r} does not belong to this model")
        if array.domain.size != array.n:
            raise ModelError(
                f"array {array.name!r}: permutation needs |domain| == n "
                f"({array.domain.size} != {array.n})"
            )
        self._permutation_arrays.add(array.name)

    def is_permutation(self, array: VariableArray) -> bool:
        return array.name in self._permutation_arrays

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_variables(self) -> int:
        return self._n_variables

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    @cached_property
    def _incidence(self) -> tuple[np.ndarray, np.ndarray]:
        counts = np.zeros(self._n_variables + 1, dtype=np.int64)
        for constraint in self.constraints:
            counts[constraint.variables + 1] += 1
        indptr = np.cumsum(counts)
        constraint_ids = np.empty(int(indptr[-1]), dtype=np.int64)
        cursor = indptr[:-1].copy()
        for ci, constraint in enumerate(self.constraints):
            v = constraint.variables
            constraint_ids[cursor[v]] = ci
            cursor[v] += 1
        return indptr, constraint_ids

    @cached_property
    def _linear(self) -> _LinearBlock:
        return _LinearBlock.compile(self.constraints, self._n_variables)

    @cached_property
    def unit_linear_table(self) -> Optional[np.ndarray]:
        """The model as one integer system of ``+-1`` rows, or ``None``.

        Defined when every constraint is a :class:`LinearConstraint` whose
        coefficients are all ``+-1`` and whose right-hand side is an
        integer: then every row's ``variable_errors`` projection is its
        error, unweighted (``weights * scale`` is exactly 1), so integer
        arithmetic reproduces the float kernels bit for bit.  One int64
        array, ``[rows, rhs[rows], relation[rows], start[n + 1],
        row[nnz], coef[nnz], rstart[rows + 1], var[nnz], rcoef[nnz]]`` —
        the relation as its index in
        :class:`~repro.csp.constraints.Relation`, variable ``x``'s rows
        and coefficients at ``start[x] .. start[x + 1]``, and row ``r``'s
        variables and coefficients at ``rstart[r] .. rstart[r + 1]`` (the
        same entries by row, variables ascending: the transpose) — is what
        the ``LINEAR`` kind of ``repro/vector/lanes.c`` reads; it updates
        and sums errors by variable and prices a swap by row.
        """
        constraints = self.constraints
        if not constraints:
            return None
        for constraint in constraints:
            if not (
                isinstance(constraint, LinearConstraint)
                and np.all(np.abs(constraint.coefficients) == 1.0)
                and constraint.rhs.is_integer()
                and abs(constraint.rhs) < 2**53
            ):
                return None
        start, rows = self.incidence_index()
        variables = np.repeat(np.arange(self._n_variables), np.diff(start))
        relations = tuple(Relation)
        head = [len(constraints)]
        head += [int(constraint.rhs) for constraint in constraints]
        head += [relations.index(constraint.relation) for constraint in constraints]
        coefficients = self._linear.coefficients[rows, variables].astype(np.int64)
        # the transpose, by a cursor per row over the entries in variable
        # order (a counting sort: a first NumPy sort would fault in ~0.1 MB
        # of its code in every process that builds a table)
        rstart = np.zeros(len(constraints) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(constraints)), out=rstart[1:])
        cursor = rstart[:-1].tolist()
        at = []
        for row in rows.tolist():
            at.append(cursor[row])
            cursor[row] += 1
        by_row = np.empty((2, len(rows)), dtype=np.int64)
        by_row[:, at] = variables, coefficients
        return np.concatenate([
            np.asarray(head, dtype=np.int64),
            start,
            rows,
            coefficients,
            rstart,
            by_row.reshape(-1),
        ])

    def incidence_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Compiled variable→constraint incidence in CSR form.

        Returns ``(indptr, constraint_ids)``: the constraints mentioning
        global variable ``v`` are ``constraint_ids[indptr[v]:indptr[v+1]]``.
        Built once per model mutation; it is what makes the per-constraint
        swap kernels touch only the constraints incident to the swapped
        positions.
        """
        return self._incidence

    def constraint_ids_on(self, variable: int) -> np.ndarray:
        """Indices (into ``self.constraints``) incident to ``variable``."""
        if not 0 <= variable < self._n_variables:
            raise IndexError(f"variable index {variable} out of range")
        indptr, constraint_ids = self.incidence_index()
        return constraint_ids[indptr[variable] : indptr[variable + 1]]

    def constraints_on(self, variable: int) -> list[Constraint]:
        """All constraints mentioning global variable ``variable``."""
        return [self.constraints[ci] for ci in self.constraint_ids_on(variable)]

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def check_assignment(self, assignment: np.ndarray) -> None:
        """Validate shape and domain membership; raise ModelError if bad."""
        arr = np.asarray(assignment)
        if arr.shape != (self._n_variables,):
            raise ModelError(
                f"assignment has shape {arr.shape}, expected ({self._n_variables},)"
            )
        for array in self.arrays:
            values = array.slice_of(arr)
            inside = array.domain.contains_many(values)
            if not inside.all():
                bad = int(values[~inside][0])
                raise ModelError(
                    f"value {bad} outside domain of array {array.name!r}"
                )

    def cost(self, assignment: np.ndarray) -> float:
        """Total cost = sum of constraint errors (0 iff all satisfied)."""
        return float(self.constraint_errors(assignment).sum())

    def linear_lhs(self, assignment: np.ndarray) -> np.ndarray:
        """Left-hand sides of the stacked :class:`LinearConstraint` block.

        The second half of a walk's cache: :meth:`swap_cost_deltas` and
        :meth:`apply_swap_update` take it as ``lhs`` next to
        ``constraint_errors`` (and compute it when a stateless caller
        leaves it out); :meth:`apply_swap_update` moves it in place.
        """
        return self._linear.coefficients @ assignment

    def constraint_errors(self, assignment: np.ndarray) -> np.ndarray:
        """Error of every constraint, aligned with ``self.constraints``.

        This vector is the per-constraint error cache of the incremental
        path: :meth:`swap_cost_deltas`, :meth:`swap_cost_delta` and
        :meth:`apply_swap_update` take it as the current-state baseline and
        only re-evaluate what a swap can change.  Linear constraints are
        evaluated through the stacked block, so the cache always equals
        what the block kernels derive from :meth:`linear_lhs`.
        """
        block = self._linear
        errors = np.empty(len(self.constraints), dtype=np.float64)
        errors[block.ids] = block.errors(self.linear_lhs(assignment))
        for ci in block.others:
            errors[ci] = self.constraints[ci].error(assignment)
        return errors

    def variable_errors(
        self,
        assignment: np.ndarray,
        constraint_errors: np.ndarray | None = None,
    ) -> np.ndarray:
        """Project constraint errors onto the variables they mention.

        When the caller already holds the per-constraint error vector
        (``constraint_errors``), satisfied constraints are skipped: the
        error/``variable_errors`` contract makes their projection all-zero.
        """
        block = self._linear
        if constraint_errors is not None:
            linear_errors = constraint_errors[block.ids]
        else:
            linear_errors = block.errors(self.linear_lhs(assignment))
        errors = (linear_errors[:, None] * block.weights * block.scale).sum(axis=0)
        for ci in block.others:
            if constraint_errors is not None and constraint_errors[ci] == 0.0:
                continue
            constraint = self.constraints[ci]
            errors[constraint.variables] += constraint.variable_errors(assignment)
        return errors

    # ------------------------------------------------------------------
    # incremental swap kernels
    # ------------------------------------------------------------------
    def swap_cost_deltas(
        self,
        assignment: np.ndarray,
        constraint_errors: np.ndarray,
        i: int,
        lhs: np.ndarray | None = None,
    ) -> np.ndarray:
        """Cost delta of swapping global position ``i`` with every position.

        ``constraint_errors`` must be :meth:`constraint_errors` of
        ``assignment`` (and ``lhs``, when given, its :meth:`linear_lhs`).
        The linear block prices every candidate at once: swapping ``i`` and
        ``j`` shifts row ``r`` by ``(c_ri - c_rj)(x_j - x_i)``, zero for a
        row that mentions neither.  Of the other constraints, those
        incident to ``i`` are re-evaluated for all candidates with one
        vectorized :meth:`Constraint.swap_errors` call each; the rest
        change only for candidates inside their own scope, so they are
        probed just at those positions.
        """
        block = self._linear
        if lhs is None:
            lhs = self.linear_lhs(assignment)
        coefficients = block.coefficients
        shifted = (coefficients[:, i, None] - coefficients) * (
            assignment - assignment[i]
        )
        shifted += lhs[:, None]
        deltas = (
            block.errors(shifted) - constraint_errors[block.ids, None]
        ).sum(axis=0)
        if not block.others:
            return deltas
        on_i = set(self.constraint_ids_on(i).tolist())
        all_js = np.arange(self._n_variables, dtype=np.int64)
        for ci in on_i:
            constraint = self.constraints[ci]
            if not isinstance(constraint, LinearConstraint):
                deltas += (
                    constraint.swap_errors(assignment, i, all_js)
                    - constraint_errors[ci]
                )
        for ci in block.others:
            if ci in on_i:
                continue
            constraint = self.constraints[ci]
            scope = constraint.variables
            new_errors = constraint.swap_errors(assignment, i, scope)
            deltas[scope] += new_errors - constraint_errors[ci]
        return deltas

    def swap_cost_delta(
        self,
        assignment: np.ndarray,
        constraint_errors: np.ndarray,
        i: int,
        j: int,
    ) -> float:
        """Cost delta of swapping positions ``i`` and ``j`` (not applied)."""
        if i == j:
            return 0.0
        touched = np.union1d(self.constraint_ids_on(i), self.constraint_ids_on(j))
        js = np.asarray([j], dtype=np.int64)
        delta = 0.0
        for ci in touched.tolist():
            new_error = float(self.constraints[ci].swap_errors(assignment, i, js)[0])
            delta += new_error - float(constraint_errors[ci])
        return delta

    def apply_swap_update(
        self,
        assignment: np.ndarray,
        constraint_errors: np.ndarray,
        i: int,
        j: int,
        lhs: np.ndarray | None = None,
    ) -> None:
        """Commit swap ``i`` ↔ ``j``: update ``assignment``, the cached
        ``constraint_errors`` *and* ``lhs`` (when given) in place.  The
        linear block is re-derived from its moved ``lhs``; of the other
        constraints only those incident to ``i`` or ``j`` are touched."""
        if i == j:
            return
        block = self._linear
        if lhs is None:
            lhs = self.linear_lhs(assignment)
        coefficients = block.coefficients
        lhs += (coefficients[:, i] - coefficients[:, j]) * (
            assignment[j] - assignment[i]
        )
        constraint_errors[block.ids] = block.errors(lhs)
        if block.others:
            touched = np.union1d(
                self.constraint_ids_on(i), self.constraint_ids_on(j)
            )
            js = np.asarray([j], dtype=np.int64)
            for ci in touched.tolist():
                constraint = self.constraints[ci]
                if not isinstance(constraint, LinearConstraint):
                    constraint_errors[ci] = constraint.swap_errors(
                        assignment, i, js
                    )[0]
        assignment[i], assignment[j] = assignment[j], assignment[i]

    def violated_constraints(self, assignment: np.ndarray) -> list[Constraint]:
        return [c for c in self.constraints if c.error(assignment) > 0]

    def is_solution(self, assignment: np.ndarray) -> bool:
        return self.cost(assignment) == 0

    # ------------------------------------------------------------------
    # configurations
    # ------------------------------------------------------------------
    def random_assignment(self, seed: SeedLike = None) -> np.ndarray:
        """Random full assignment respecting permutation declarations."""
        rng = as_generator(seed)
        out = np.empty(self._n_variables, dtype=np.int64)
        for array in self.arrays:
            if self.is_permutation(array):
                values = array.domain.values()
                rng.shuffle(values)
                out[array.offset : array.offset + array.n] = values
            else:
                out[array.offset : array.offset + array.n] = array.domain.sample(
                    rng, size=array.n
                )
        return out

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, variables={self._n_variables}, "
            f"constraints={len(self.constraints)})"
        )
