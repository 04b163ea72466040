"""Cross-problem property tests: incremental protocol ≡ reference semantics.

Every problem's incremental machinery (cached state, swap deltas, in-place
swap application) must agree exactly with stateless full re-evaluation.
These invariants are what make the solver's O(n)-per-iteration loop sound.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.problems import (
    AllIntervalProblem,
    AlphaProblem,
    CostasProblem,
    LangfordProblem,
    MagicSquareProblem,
    PartitionProblem,
    PerfectSquareProblem,
    QueensProblem,
    declarative_all_interval,
    declarative_magic_square,
    declarative_queens,
)

PROBLEMS = [
    pytest.param(CostasProblem(8), id="costas-8"),
    pytest.param(MagicSquareProblem(4), id="magic_square-4"),
    pytest.param(AllIntervalProblem(9), id="all_interval-9"),
    pytest.param(PerfectSquareProblem(), id="perfect_square-moron"),
    pytest.param(QueensProblem(9), id="queens-9"),
    pytest.param(AlphaProblem(), id="alpha"),
    pytest.param(LangfordProblem(7), id="langford-7"),
    pytest.param(PartitionProblem(12), id="partition-12"),
    # declarative model path (incremental constraint-delta engine)
    pytest.param(declarative_magic_square(4), id="magic_square_model-4"),
    pytest.param(declarative_queens(8), id="queens_model-8"),
    pytest.param(declarative_all_interval(9), id="all_interval_model-9"),
]


def state_caches(state) -> dict:
    """Every slot of a walk state but its cost, in comparable form (a
    cache may be an array, a nested list or a dataclass holding either)."""
    return {
        slot: pickle.dumps(getattr(state, slot))
        for klass in type(state).__mro__
        for slot in getattr(klass, "__slots__", ())
        if slot != "cost"
    }


seeds = st.integers(min_value=0, max_value=2**32 - 1)
prop_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.mark.parametrize("problem", PROBLEMS)
class TestIncrementalInvariants:
    @given(seed=seeds)
    @prop_settings
    def test_init_state_cost_matches_reference(self, problem, seed):
        rng = np.random.default_rng(seed)
        config = problem.random_configuration(rng)
        state = problem.init_state(config)
        assert state.cost == problem.cost(config)

    @given(seed=seeds)
    @prop_settings
    def test_swap_delta_matches_recomputation(self, problem, seed):
        rng = np.random.default_rng(seed)
        state = problem.init_state(problem.random_configuration(rng))
        n = problem.size
        for _ in range(6):
            i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
            delta = problem.swap_delta(state, i, j)
            cfg = state.config.copy()
            cfg[i], cfg[j] = cfg[j], cfg[i]
            assert delta == pytest.approx(problem.cost(cfg) - state.cost)

    @given(seed=seeds)
    @prop_settings
    def test_swap_delta_probe_does_not_mutate(self, problem, seed):
        rng = np.random.default_rng(seed)
        state = problem.init_state(problem.random_configuration(rng))
        before_cfg = state.config.copy()
        before_cost = state.cost
        n = problem.size
        for _ in range(4):
            i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
            problem.swap_delta(state, i, j)
        assert np.array_equal(state.config, before_cfg)
        assert state.cost == before_cost
        # caches intact: fresh deltas still agree with recomputation
        i, j = 0, n - 1
        delta = problem.swap_delta(state, i, j)
        cfg = state.config.copy()
        cfg[i], cfg[j] = cfg[j], cfg[i]
        assert delta == pytest.approx(problem.cost(cfg) - before_cost)

    @given(seed=seeds)
    @prop_settings
    def test_apply_swap_walk_stays_consistent(self, problem, seed):
        rng = np.random.default_rng(seed)
        state = problem.init_state(problem.random_configuration(rng))
        n = problem.size
        for _ in range(10):
            i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
            problem.apply_swap(state, i, j)
            assert state.cost == pytest.approx(problem.cost(state.config))

    @given(seed=seeds)
    @prop_settings
    def test_apply_swap_with_the_priced_delta_is_the_same_commit(
        self, problem, seed
    ):
        """``apply_swap(state, i, j, delta)`` ≡ ``apply_swap(state, i, j)``:
        configuration, cost and every cache slot."""
        rng = np.random.default_rng(seed)
        config = problem.random_configuration(rng)
        handed, priced = problem.init_state(config), problem.init_state(config)
        n = problem.size
        for _ in range(8):
            i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
            delta = problem.swap_delta(handed, i, j)
            problem.apply_swap(handed, i, j, delta)
            problem.apply_swap(priced, i, j)
            assert handed.cost == priced.cost
            assert state_caches(handed) == state_caches(priced)

    @given(seed=seeds)
    @prop_settings
    def test_swap_deltas_vector_matches_pointwise(self, problem, seed):
        rng = np.random.default_rng(seed)
        state = problem.init_state(problem.random_configuration(rng))
        i = int(rng.integers(0, problem.size))
        deltas = problem.swap_deltas(state, i)
        assert deltas.shape == (problem.size,)
        assert deltas[i] == 0.0
        for j in range(problem.size):
            if j != i:
                assert deltas[j] == pytest.approx(problem.swap_delta(state, i, j))

    @given(seed=seeds)
    @prop_settings
    def test_variable_errors_shape_and_sign(self, problem, seed):
        rng = np.random.default_rng(seed)
        state = problem.init_state(problem.random_configuration(rng))
        errors = problem.variable_errors(state)
        assert errors.shape == (problem.size,)
        assert np.all(errors >= 0)

    @given(seed=seeds)
    @prop_settings
    def test_zero_cost_iff_zero_errors(self, problem, seed):
        rng = np.random.default_rng(seed)
        state = problem.init_state(problem.random_configuration(rng))
        errors = problem.variable_errors(state)
        if state.cost == 0:
            assert np.all(errors == 0)
        else:
            assert errors.max() > 0

    @given(seed=seeds)
    @prop_settings
    def test_partial_reset_keeps_state_valid(self, problem, seed):
        rng = np.random.default_rng(seed)
        state = problem.init_state(problem.random_configuration(rng))
        problem.partial_reset(state, 0.4, rng)
        problem.check_configuration(state.config)
        assert state.cost == pytest.approx(problem.cost(state.config))
        # deltas still consistent after a reset resyncs the caches
        delta = problem.swap_delta(state, 0, problem.size - 1)
        cfg = state.config.copy()
        cfg[0], cfg[-1] = cfg[-1], cfg[0]
        assert delta == pytest.approx(problem.cost(cfg) - state.cost)


@pytest.mark.parametrize("problem", PROBLEMS)
class TestConfigurationBasics:
    def test_random_configuration_is_valid(self, problem):
        config = problem.random_configuration(5)
        problem.check_configuration(config)

    def test_random_configuration_deterministic(self, problem):
        a = problem.random_configuration(17)
        b = problem.random_configuration(17)
        assert np.array_equal(a, b)

    def test_wrong_shape_rejected(self, problem):
        from repro.errors import ProblemError

        with pytest.raises(ProblemError):
            problem.check_configuration(np.arange(problem.size + 1))

    def test_name_and_spec(self, problem):
        assert problem.name
        spec = problem.spec()
        assert spec["family"] == problem.family

    def test_default_solver_parameters_are_known_fields(self, problem):
        from repro.core.config import AdaptiveSearchConfig

        # merged_with validates key names
        AdaptiveSearchConfig().merged_with(problem.default_solver_parameters())


@pytest.mark.parametrize(
    "problem",
    [
        # the widest instances the closed-form swap_deltas take (their
        # largest difference sets the top usable mask bit) and the first
        # ones that fall back to the pointwise loop
        pytest.param(AllIntervalProblem(AllIntervalProblem.MASK_MAX_N), id="ai-62"),
        pytest.param(AllIntervalProblem(AllIntervalProblem.MASK_MAX_N + 1), id="ai-63"),
        pytest.param(CostasProblem(CostasProblem.MASK_MAX_N), id="costas-32"),
        pytest.param(CostasProblem(CostasProblem.MASK_MAX_N + 1), id="costas-33"),
    ],
)
def test_swap_deltas_at_and_beyond_the_mask_width(problem):
    rng = np.random.default_rng(7)
    n = problem.size
    # the extreme differences present: identity-like and reversed stretches
    configs = [problem.random_configuration(rng), np.arange(n)[::-1].copy()]
    for config in configs:
        state = problem.init_state(config)
        for i in (0, n // 2, n - 1):
            deltas = problem.swap_deltas(state, i)
            assert deltas.dtype == np.float64 and deltas[i] == 0.0
            for j in range(n):
                assert deltas[j] == problem.swap_delta(state, i, j)
