"""Property tests: vectorized ``swap_errors`` kernels ≡ swap-and-evaluate.

Every constraint's batch kernel must agree exactly with the reference
semantics — swap the two positions, call ``error``, swap back — for any
assignment, pivot ``i`` and candidate set ``js`` (including ``j == i`` and
positions outside the constraint's scope), and must leave the assignment
untouched.  These invariants are what make the incremental model path sound.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.csp.constraints import (
    AllDifferent,
    FunctionalConstraint,
    LinearConstraint,
)
from repro.csp.domain import IntegerDomain
from repro.csp.global_constraints import (
    AbsoluteDifference,
    ElementConstraint,
    IncreasingChain,
    MaximumConstraint,
    NotAllEqual,
    SumConstraint,
)
from repro.csp.model import Model

N_VARS = 10
RELATIONS = ["==", "!=", "<=", "<", ">=", ">"]

prop_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def subset(draw, min_size, max_size=N_VARS):
    indices = draw(
        st.lists(
            st.integers(0, N_VARS - 1),
            min_size=min_size,
            max_size=max_size,
            unique=True,
        )
    )
    return indices


@st.composite
def constraints(draw):
    kind = draw(
        st.sampled_from(
            [
                "linear",
                "alldiff",
                "sum",
                "not_all_equal",
                "element",
                "maximum",
                "chain",
                "absdiff",
                "functional",
            ]
        )
    )
    rel = st.sampled_from(RELATIONS)
    rhs = st.integers(-10, 30)
    if kind == "linear":
        scope = subset(draw, 1, 5)
        coeffs = draw(
            st.lists(
                st.integers(-3, 3).map(float),
                min_size=len(scope),
                max_size=len(scope),
            )
        )
        return LinearConstraint(scope, coeffs, draw(rel), draw(rhs))
    if kind == "alldiff":
        return AllDifferent(subset(draw, 2))
    if kind == "sum":
        return SumConstraint(subset(draw, 1, 5), draw(rel), draw(rhs))
    if kind == "not_all_equal":
        return NotAllEqual(subset(draw, 2))
    if kind == "element":
        pair = subset(draw, 2, 2)
        table = draw(st.lists(st.integers(0, 12), min_size=1, max_size=8))
        return ElementConstraint(pair[0], pair[1], table)
    if kind == "maximum":
        scope = subset(draw, 2, 5)
        return MaximumConstraint(scope[:-1], scope[-1])
    if kind == "chain":
        return IncreasingChain(subset(draw, 2), strict=draw(st.booleans()))
    if kind == "absdiff":
        pair = subset(draw, 2, 2)
        return AbsoluteDifference(pair[0], pair[1], draw(rel), draw(rhs))
    return FunctionalConstraint(
        subset(draw, 1, 4), lambda v: float(int(np.abs(v).sum()) % 7)
    )


assignments = st.lists(
    st.integers(-4, 12), min_size=N_VARS, max_size=N_VARS
).map(lambda vals: np.asarray(vals, dtype=np.int64))


def reference_swap_errors(constraint, assignment, i, js):
    out = np.empty(len(js), dtype=np.float64)
    for k, j in enumerate(js):
        cfg = assignment.copy()
        cfg[i], cfg[j] = cfg[j], cfg[i]
        out[k] = constraint.error(cfg)
    return out


class TestSwapErrorsKernels:
    @given(
        constraint=constraints(),
        assignment=assignments,
        i=st.integers(0, N_VARS - 1),
    )
    @prop_settings
    def test_matches_reference_for_all_candidates(
        self, constraint, assignment, i
    ):
        js = np.arange(N_VARS, dtype=np.int64)
        got = constraint.swap_errors(assignment, i, js)
        want = reference_swap_errors(constraint, assignment, i, js)
        assert got.shape == (N_VARS,)
        np.testing.assert_allclose(got, want)

    @given(
        constraint=constraints(),
        assignment=assignments,
        i=st.integers(0, N_VARS - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @prop_settings
    def test_matches_reference_for_scope_probes(
        self, constraint, assignment, i, seed
    ):
        # the incremental engine probes a non-incident constraint exactly at
        # its own scope; pass the identical array object to hit that path
        js = constraint.variables
        got = constraint.swap_errors(assignment, i, js)
        want = reference_swap_errors(constraint, assignment, i, js.tolist())
        np.testing.assert_allclose(got, want)

    @given(
        constraint=constraints(),
        assignment=assignments,
        i=st.integers(0, N_VARS - 1),
    )
    @prop_settings
    def test_does_not_mutate_assignment(self, constraint, assignment, i):
        before = assignment.copy()
        constraint.swap_errors(assignment, i, np.arange(N_VARS, dtype=np.int64))
        assert np.array_equal(assignment, before)

    @given(
        constraint=constraints(),
        assignment=assignments,
        i=st.integers(0, N_VARS - 1),
    )
    @prop_settings
    def test_identity_swap_returns_current_error(
        self, constraint, assignment, i
    ):
        got = constraint.swap_errors(assignment, i, np.asarray([i]))
        assert got[0] == pytest.approx(constraint.error(assignment))


# ----------------------------------------------------------------------
# the model's stacked linear block ≡ its constraints, one at a time
# ----------------------------------------------------------------------
@st.composite
def linear_constraints(draw):
    """Non-unit, negative and zero coefficients; every relation."""
    scope = subset(draw, 1, 6)
    coeffs = draw(
        st.lists(
            st.integers(-3, 3).map(float),
            min_size=len(scope),
            max_size=len(scope),
        )
    )
    return LinearConstraint(
        scope, coeffs, draw(st.sampled_from(RELATIONS)), draw(st.integers(-10, 30))
    )


def model_of(constraint_list):
    model = Model("stacked")
    model.add_array("x", N_VARS, IntegerDomain(-4, 12))
    model.add_constraints(constraint_list)
    return model


def one_at_a_time_deltas(model, assignment, i):
    js = np.arange(N_VARS, dtype=np.int64)
    deltas = np.zeros(N_VARS)
    for constraint in model.constraints:
        deltas += constraint.swap_errors(assignment, i, js) - constraint.error(
            assignment
        )
    return deltas


def one_at_a_time_projection(model, assignment):
    errors = np.zeros(N_VARS)
    for constraint in model.constraints:
        errors[constraint.variables] += constraint.variable_errors(assignment)
    return errors


class TestStackedLinearBlock:
    """Integer coefficients and right-hand sides: the block's answers are
    the per-constraint answers bit for bit, not approximately."""

    @given(
        rows=st.lists(linear_constraints(), min_size=1, max_size=6),
        assignment=assignments,
        i=st.integers(0, N_VARS - 1),
    )
    @prop_settings
    def test_linear_model_bit_for_bit(self, rows, assignment, i):
        model = model_of(rows)
        errors = model.constraint_errors(assignment)
        assert errors.tolist() == [c.error(assignment) for c in rows]
        want = one_at_a_time_deltas(model, assignment, i)
        assert np.array_equal(model.swap_cost_deltas(assignment, errors, i), want)
        assert np.array_equal(
            model.swap_cost_deltas(
                assignment, errors, i, model.linear_lhs(assignment)
            ),
            want,
        )
        projection = one_at_a_time_projection(model, assignment)
        assert np.array_equal(model.variable_errors(assignment, errors), projection)
        assert np.array_equal(model.variable_errors(assignment), projection)

    @given(
        rows=st.lists(linear_constraints(), min_size=1, max_size=4),
        scope=st.lists(
            st.integers(0, N_VARS - 1), min_size=2, max_size=N_VARS, unique=True
        ),
        assignment=assignments,
        i=st.integers(0, N_VARS - 1),
    )
    @prop_settings
    def test_mixed_linear_and_alldifferent(self, rows, scope, assignment, i):
        # the block between two constraints that stay on the per-constraint
        # path, so the two paths have to interleave correctly
        model = model_of([AllDifferent(scope), *rows, AllDifferent(scope[:2])])
        errors = model.constraint_errors(assignment)
        assert errors.tolist() == [c.error(assignment) for c in model.constraints]
        assert np.array_equal(
            model.swap_cost_deltas(assignment, errors, i),
            one_at_a_time_deltas(model, assignment, i),
        )
        # projections of different constraints are added in another order
        # than one at a time; with weights like 3/7 that may show in the
        # last place
        np.testing.assert_allclose(
            model.variable_errors(assignment, errors),
            one_at_a_time_projection(model, assignment),
            rtol=1e-12,
        )

    @given(
        rows=st.lists(linear_constraints(), min_size=1, max_size=5),
        with_alldiff=st.booleans(),
        assignment=assignments,
        swaps=st.lists(
            st.tuples(st.integers(0, N_VARS - 1), st.integers(0, N_VARS - 1)),
            min_size=1,
            max_size=6,
        ),
    )
    @prop_settings
    def test_committed_swaps_keep_both_caches_current(
        self, rows, with_alldiff, assignment, swaps
    ):
        extra = [AllDifferent(list(range(0, N_VARS, 2)))] if with_alldiff else []
        model = model_of(rows + extra)
        errors = model.constraint_errors(assignment)
        lhs = model.linear_lhs(assignment)
        for i, j in swaps:
            model.apply_swap_update(assignment, errors, i, j, lhs)
            assert np.array_equal(lhs, model.linear_lhs(assignment))
            assert errors.tolist() == [
                c.error(assignment) for c in model.constraints
            ]

    def test_block_is_recompiled_after_add_constraint(self):
        model = model_of([LinearConstraint([0, 1], [1.0, 2.0], "<=", 3)])
        assignment = np.arange(N_VARS, dtype=np.int64)
        assert model.constraint_errors(assignment).tolist() == [0.0]
        model.add_constraint(LinearConstraint([2, 3], [1.0, -1.0], "==", 4))
        assert model.linear_lhs(assignment).tolist() == [2.0, -1.0]
        assert model.constraint_errors(assignment).tolist() == [0.0, 5.0]

    def test_compiled_tables_are_not_pickled(self):
        model = model_of([LinearConstraint([0, 1], [1.0, 2.0], "<=", 3)])
        fresh = pickle.dumps(model)
        model.incidence_index()
        model.constraint_errors(np.arange(N_VARS, dtype=np.int64))
        assert pickle.dumps(model) == fresh
