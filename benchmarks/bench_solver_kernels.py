"""Microbenchmarks of the solver's hot kernels.

Not a paper artifact — these guard against performance regressions in the
per-iteration machinery (variable-error projection, vectorized swap deltas,
incremental swap application) that every other benchmark depends on.
"""

import numpy as np
import pytest

from repro import AdaptiveSearch, AdaptiveSearchConfig, make_problem

KERNEL_PROBLEMS = [
    ("costas", {"n": 12}),
    ("magic_square", {"n": 10}),
    ("all_interval", {"n": 20}),
    ("alpha", {}),
    ("queens", {"n": 100}),
    # declarative model path: exercises the incremental constraint-delta
    # engine (CSR incidence + vectorized swap_errors kernels) instead of
    # hand-written per-problem delta code
    ("magic_square_model", {"n": 7}),
    ("queens_model", {"n": 50}),
]


@pytest.mark.parametrize("family,params", KERNEL_PROBLEMS)
def bench_swap_deltas(benchmark, family, params):
    problem = make_problem(family, **params)
    state = problem.init_state(problem.random_configuration(0))
    i = problem.size // 2
    deltas = benchmark(lambda: problem.swap_deltas(state, i))
    assert deltas.shape == (problem.size,)


@pytest.mark.parametrize("family,params", KERNEL_PROBLEMS)
def bench_variable_errors(benchmark, family, params):
    problem = make_problem(family, **params)
    state = problem.init_state(problem.random_configuration(0))
    errors = benchmark(lambda: problem.variable_errors(state))
    assert errors.shape == (problem.size,)


@pytest.mark.parametrize("family,params", KERNEL_PROBLEMS)
def bench_apply_swap(benchmark, family, params):
    problem = make_problem(family, **params)
    state = problem.init_state(problem.random_configuration(0))
    n = problem.size
    rng = np.random.default_rng(1)

    def swap():
        i, j = rng.integers(0, n, 2)
        problem.apply_swap(state, int(i), int(j))

    benchmark(swap)
    assert state.cost == problem.cost(state.config)


def bench_solver_iteration_rate(benchmark):
    """End-to-end iterations/second of the full engine on magic-square."""
    problem = make_problem("magic_square", n=12)
    cfg = AdaptiveSearchConfig(max_iterations=300)

    def run():
        # magic-12 needs thousands of iterations: the 300-iteration budget
        # is always exhausted, so this times exactly 300 engine iterations
        return AdaptiveSearch(cfg).solve(problem, seed=3)

    result = benchmark.pedantic(run, rounds=5, iterations=1)
    assert result.stats.iterations == 300


# ----------------------------------------------------------------------
# vector-walk kernels: the compiled counterparts of the scalar kernels
# above (lanes.c, one kernel per call), timed per lane so the numbers are
# directly comparable; without the library there is nothing to time
# ----------------------------------------------------------------------
VECTOR_PROBLEMS = [
    ("costas", {"n": 14}),
    ("magic_square", {"n": 30}),
    ("all_interval", {"n": 40}),
]
VECTOR_K = 128


def _vector_fixture(family, params):
    from repro.vector import kernel_backend
    from repro.vector.problems import CompiledLanes

    backend = kernel_backend()
    if backend.name != "compiled":
        pytest.skip(f"lanes.c is not loaded: {backend.error}")
    problem = make_problem(family, **params)
    vp = CompiledLanes(problem, VECTOR_K)
    rng = np.random.default_rng(0)
    configs = np.stack(
        [problem.random_configuration(rng) for _ in range(VECTOR_K)]
    )
    vp.begin_round(configs)
    return problem, vp, configs


@pytest.mark.parametrize("family,params", VECTOR_PROBLEMS)
def bench_vector_errors(benchmark, family, params):
    """Per-variable errors across all lanes (one call)."""
    problem, vp, configs = _vector_fixture(family, params)
    errors = benchmark(lambda: vp.errors())
    assert errors.shape == (VECTOR_K, problem.size)


@pytest.mark.parametrize("family,params", VECTOR_PROBLEMS)
def bench_vector_deltas(benchmark, family, params):
    """Swap deltas for one selected variable per lane (one call)."""
    problem, vp, configs = _vector_fixture(family, params)
    i_sel = np.full(VECTOR_K, problem.size // 2, dtype=np.int64)
    deltas = benchmark(lambda: vp.deltas(i_sel))
    assert deltas.shape == (VECTOR_K, problem.size)


def bench_vector_iteration_rate(benchmark):
    """End-to-end lane-iterations/second of the vector engine.

    Compare against ``bench_solver_iteration_rate`` after dividing the
    vector time by ``VECTOR_K``.  The rates of record are the calibrated
    ``vector.lane_iters_per_cal_s.*`` and ``core.iters_per_cal_s.*`` of
    ``python3 benchmarks/e2e/run.py --workload kernel_scalar --trace 1``.
    """
    from repro.vector.engine import VectorWalkEngine

    problem = make_problem("magic_square", n=12)
    cfg = AdaptiveSearchConfig(max_iterations=300)

    def run():
        engine = VectorWalkEngine(problem, k=VECTOR_K, config=cfg, seed=3)
        engine.run()
        return engine

    engine = benchmark.pedantic(run, rounds=5, iterations=1)
    # a lucky lane may solve early; the bulk must exhaust the budget
    assert int(engine.iterations.max()) == 300


def bench_model_solver_iteration_rate(benchmark):
    """End-to-end iteration rate of the declarative (model-defined) path.

    Same engine as above, but every per-iteration quantity flows through the
    incremental constraint-delta engine rather than hand-written deltas —
    this is the regression guard for the model path's iteration rate.
    """
    problem = make_problem("magic_square_model", n=7)
    cfg = AdaptiveSearchConfig(max_iterations=300)

    def run():
        return AdaptiveSearch(cfg).solve(problem, seed=3)

    result = benchmark.pedantic(run, rounds=5, iterations=1)
    assert result.stats.iterations == 300
