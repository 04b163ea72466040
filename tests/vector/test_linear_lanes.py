"""Declarative models of ``+-1`` linear rows walk on the compiled lane.

``lanes.c`` has a fourth kind, ``LINEAR``, over the table
:attr:`~repro.csp.model.Model.unit_linear_table` compiles from a model whose
every constraint is a :class:`~repro.csp.constraints.LinearConstraint` with
coefficients ``+-1`` and an integer right-hand side.  Such a model's lane
must be its session walk bit for bit — configuration, counters and the
generator's end state — and its kernels, one call at a time, the session's
``variable_errors`` / ``swap_deltas``.  Every other model keeps the session.

The lane-against-session cases skip on a host where ``lanes.c`` could not
be built; the rest run everywhere.
"""

import pickle

import numpy as np
import pytest

from repro import AdaptiveSearch, AdaptiveSearchConfig, make_problem
from repro.csp.constraints import LinearConstraint, Relation
from repro.csp.domain import IntegerDomain
from repro.csp.model import Model
from repro.parallel import MultiWalkSolver
from repro.parallel.seeding import walk_seeds
from repro.problems.base import ModelProblem
from repro.vector import kernel_backend, lane_kernel
from repro.vector.engine import VectorWalkEngine
from repro.vector.problems import CompiledLanes
from tests.conftest import session_walk
from tests.core.test_golden_walks import STRESS_CONFIGS
from tests.vector.test_kernels import (
    assert_kernels_match,
    random_configs,
    swap_and_notify,
)

COMPILED = kernel_backend().name == "compiled"
needs_compiled = pytest.mark.skipif(
    not COMPILED, reason=f"lanes.c is not loaded: {kernel_backend().error}"
)

#: the problems' own tuning, capped so that an unsolved walk ends
CONFIGS = {
    "defaults": AdaptiveSearchConfig(max_iterations=2000),
    **STRESS_CONFIGS,
}
SEEDS = range(5)


def every_relation_model(n=9, seed=0):
    """A permutation of ``1 .. n`` under rows of every relation, with
    coefficients of both signs, one variable in no row at all, and a
    right-hand side near each row's typical value so that errors of both
    signs of the difference occur."""
    rng = np.random.default_rng(seed)
    model = Model("every-relation")
    cells = model.add_array("x", n, IntegerDomain(1, n))
    model.declare_permutation(cells)
    for relation in Relation:
        for row in range(3):
            width = int(rng.integers(2, 5))
            variables = rng.choice(n - 1, size=width, replace=False)
            signs = rng.choice([-1.0, 1.0], size=width)
            centre = float(signs.sum()) * (n + 1) / 2
            rhs = round(centre + rng.integers(-3, 4))
            model.add_constraint(
                LinearConstraint(
                    variables.tolist(), signs.tolist(), relation, rhs,
                    name=f"{relation.name}{row}",
                )
            )
    return ModelProblem(model)


def lane_walk(config, problem, seed):
    """One walk on a one-lane batch; its result and its generator."""
    rng = np.random.default_rng(seed)
    engine = VectorWalkEngine(
        problem, 1, config, seeds=[rng], solver_name="adaptive_search"
    )
    assert isinstance(engine.vp, CompiledLanes)
    return engine.run().walks[0], rng


def assert_lane_is_session(config, problem, seed, context):
    lane, lane_rng = lane_walk(config, problem, seed)
    witness_rng = np.random.default_rng(seed)
    witness = session_walk(config, problem, witness_rng)
    assert np.array_equal(lane.config, witness.config), context
    assert (lane.solved, lane.reason, lane.cost) == (
        witness.solved, witness.reason, witness.cost,
    ), context
    for field in (
        "iterations", "swaps", "local_minima", "plateau_moves",
        "accepted_local_min_moves", "frozen_variables", "resets", "restarts",
    ):
        assert getattr(lane.stats, field) == getattr(witness.stats, field), (
            f"{context}: {field}"
        )
    assert lane_rng.bit_generator.state == witness_rng.bit_generator.state, (
        context
    )
    return lane


@needs_compiled
class TestTheLaneIsTheSession:
    @pytest.mark.parametrize("label", sorted(CONFIGS))
    @pytest.mark.parametrize("order", range(3, 10))
    def test_magic_square_model(self, order, label):
        problem = make_problem("magic_square_model", n=order)
        assert lane_kernel(problem) == "compiled"
        for seed in SEEDS:
            assert_lane_is_session(
                CONFIGS[label], problem, seed, f"order {order} seed {seed}"
            )

    @pytest.mark.parametrize("label", sorted(CONFIGS))
    def test_every_relation_both_signs(self, label):
        config = CONFIGS[label].replace(max_iterations=300)
        for model_seed in range(3):
            problem = every_relation_model(seed=model_seed)
            assert lane_kernel(problem) == "compiled"
            for seed in SEEDS:
                assert_lane_is_session(
                    config, problem, seed, f"model {model_seed} seed {seed}"
                )

    def test_solve_runs_it_as_one_lane_and_walks_the_native_square(self):
        config = AdaptiveSearchConfig()
        for seed in range(3):
            model = AdaptiveSearch(config).solve(
                make_problem("magic_square_model", n=5), seed=seed
            )
            native = AdaptiveSearch(config).solve(
                make_problem("magic_square", n=5), seed=seed
            )
            assert model.solved and np.array_equal(model.config, native.config)
            assert model.stats.iterations == native.stats.iterations


@needs_compiled
class TestKernelByKernel:
    """``errors()`` / ``deltas()`` against the session's protocol, as
    ``tests/vector/test_kernels.py`` holds the family kinds."""

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize(
        "problem",
        [
            make_problem("magic_square_model", n=3),
            make_problem("magic_square_model", n=6),
            every_relation_model(seed=0),
            every_relation_model(seed=1),
        ],
        ids=["magic-3", "magic-6", "relations-0", "relations-1"],
    )
    def test_every_selected_variable_after_swaps_and_rewrites(self, problem, k):
        size = problem.size
        configs = random_configs(problem, k, seed=size + k)
        vp = CompiledLanes(problem, k)
        assert_kernels_match(vp, problem, configs)
        rng = np.random.default_rng(size)
        for _ in range(3):
            lanes = np.arange(k)
            ii = rng.integers(0, size, k)
            jj = (ii + 1 + rng.integers(0, size - 1, k)) % size
            swap_and_notify(vp, configs, lanes, ii, jj)
            assert_kernels_match(vp, problem, configs)
        configs[k - 1] = problem.random_configuration(rng)
        vp.notify_rows([k - 1], configs)
        assert_kernels_match(vp, problem, configs)
        assert vp.lane_costs(configs).tolist() == [
            problem.cost(row) for row in configs
        ]

    def test_the_lane_keeps_the_rebuilt_state(self):
        problem = every_relation_model(seed=2)
        checked = []

        def check(engine):
            vp = engine.vp
            kept, dirty = vp._state.copy(), vp._dirty.astype(bool)
            fresh = CompiledLanes(problem, len(engine._configs))
            costs = fresh.lane_costs(engine._configs)
            assert np.array_equal(kept[~dirty], fresh._state[~dirty])
            assert np.array_equal(costs, engine._cost)
            checked.append(engine.rounds)

        config = STRESS_CONFIGS["churn"].replace(max_iterations=200)
        engine = VectorWalkEngine(
            problem, 4, config, seeds=[1, 2, 3, 4], round_callback=check
        )
        engine.run()
        assert len(checked) == engine.rounds > 0


@needs_compiled
class TestSixteenLanes:
    def test_a_batch_is_sixteen_session_walks(self):
        problem = make_problem("magic_square_model", n=6)
        config = AdaptiveSearchConfig(max_iterations=1500)
        seeds = walk_seeds(16, 21)
        walks = VectorWalkEngine(problem, 16, config, seeds=seeds).run().walks
        for lane, seed in enumerate(seeds):
            witness = session_walk(config, problem, seed)
            assert walks[lane].stats.iterations == witness.stats.iterations
            assert np.array_equal(walks[lane].config, witness.config), lane

    def test_the_vector_executor_is_sixteen_inline_walks(self):
        problem = make_problem("magic_square_model", n=6)
        config = AdaptiveSearchConfig(max_iterations=20_000)
        vector = MultiWalkSolver(executor="vector", config=config).solve(
            problem, 16, seed=5
        )
        inline = MultiWalkSolver(executor="inline", config=config).solve(
            problem, 16, seed=5
        )
        assert vector.solved and vector.n_walkers == 16
        winner = vector.winner.walk_id
        assert vector.winner.iterations == inline.walks[winner].iterations
        assert np.array_equal(vector.winner.config, inline.walks[winner].config)
        for lane, walk in enumerate(vector.walks):
            # lock-step: every lane stops in the round the winner solved,
            # where its own inline walk had not solved yet (or solved too)
            assert walk.iterations == vector.winner.iterations, lane
            assert walk.iterations <= inline.walks[lane].iterations, lane
            if walk.solved:
                assert inline.walks[lane].iterations == walk.iterations


def coefficient_two_model():
    model = Model("doubled")
    x = model.add_array("x", 4, IntegerDomain(0, 3))
    model.declare_permutation(x)
    model.add_constraint(LinearConstraint([0, 1], [1, 2], "==", 4))
    return ModelProblem(model)


class TestWhoGetsLanes:
    @pytest.mark.parametrize(
        "problem",
        [
            make_problem("queens_model", n=8),
            make_problem("all_interval_model", n=8),
            coefficient_two_model(),
        ],
        ids=["queens_model", "all_interval_model", "coefficient-2"],
    )
    def test_every_other_model_keeps_the_session(self, problem):
        assert problem.model.unit_linear_table is None
        assert lane_kernel(problem) == "scalar"

    def test_unit_rows_get_lanes_where_lanes_c_is_loaded(self):
        problem = make_problem("magic_square_model", n=5)
        assert problem.model.unit_linear_table is not None
        assert lane_kernel(problem) == ("compiled" if COMPILED else "scalar")

    def test_a_fractional_rhs_keeps_the_session(self):
        model = Model("half")
        x = model.add_array("x", 3, IntegerDomain(0, 2))
        model.declare_permutation(x)
        model.add_constraint(LinearConstraint([0, 1], [1, -1], "<=", 0.5))
        assert model.unit_linear_table is None

    def test_a_subclass_keeps_the_session(self):
        class Custom(ModelProblem):
            pass

        problem = make_problem("magic_square_model", n=4)
        assert lane_kernel(Custom(problem.model)) == "scalar"

    def test_the_table_is_derived(self):
        problem = make_problem("magic_square_model", n=4)
        model = problem.model
        table = model.unit_linear_table
        rows = 2 * 4 + 2
        assert table[0] == rows and table.dtype == np.int64
        # per cell: a row, a column, and the diagonals it is on
        start = table[1 + 2 * rows : 1 + 2 * rows + 17]
        assert np.diff(start).tolist() == [
            2 + (r == c) + (r + c == 3) for r in range(4) for c in range(4)
        ]
        # never pickled, and dropped by a new constraint
        assert "unit_linear_table" not in pickle.loads(pickle.dumps(model)).__dict__
        model.add_constraint(LinearConstraint([0, 1], [1, 2], "==", 4))
        assert model.unit_linear_table is None
        assert lane_kernel(ModelProblem(model)) == "scalar"
