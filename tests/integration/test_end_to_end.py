"""End-to-end integration: solver -> samples -> simulation -> figures.

These tests exercise the full reproduction pipeline at miniature scale and
assert the paper's qualitative results emerge from *measured* data (not
synthetic distributions).
"""

import numpy as np
import pytest

from repro import AdaptiveSearch, AdaptiveSearchConfig, make_problem
from repro.cluster import HA8000, MultiWalkSimulator
from repro.harness.runner import BenchmarkSpec, collect_samples, scaled_times
from repro.parallel import MultiWalkSolver
from repro.stats import best_fit, speedup_curve_from_samples


@pytest.fixture(scope="module")
def costas_samples(tmp_path_factory):
    from repro.harness.cache import SampleCache

    cache = SampleCache(tmp_path_factory.mktemp("cache"))
    # large enough that a walk's wall time is its iterations: on a compiled
    # lane (~1 us an iteration) a costas-9 walk is half fixed set-up
    spec = BenchmarkSpec("costas", {"n": 12})
    cfg = AdaptiveSearchConfig(max_iterations=500_000)
    return collect_samples(spec, 50, seed=0, solver_config=cfg, cache=cache)


class TestMeasuredPipeline:
    def test_all_runs_solve(self, costas_samples):
        assert all(s.solved for s in costas_samples)

    def test_costas_runtimes_look_memoryless(self, costas_samples):
        """The paper's Figure 3 mechanism on our own measurements."""
        times = scaled_times(costas_samples)
        fit = best_fit(times)
        # exponential or shifted-exponential with a tiny floor
        if fit.name == "shifted_exponential":
            loc, scale = fit.params
            assert loc < 0.25 * fit.mean
        else:
            assert fit.name in ("exponential", "lognormal")

    def test_simulated_speedup_grows_with_cores(self, costas_samples):
        times = scaled_times(costas_samples, target_mean_time=10_000.0)
        curve = speedup_curve_from_samples(
            "cap", times, HA8000, [4, 16], n_reps=300, rng=0
        )
        assert curve.speedup_at(16) > curve.speedup_at(4) > 1.5


class TestSimulationMatchesInlineExecutor:
    """The platform simulator and the exact inline multi-walk must agree.

    This is the validation of the hardware substitution promised in
    DESIGN.md: for the same measured walks, min-of-k bootstrap expectations
    match the deterministic inline multi-walk's winner times.
    """

    def test_min_of_k_consistency(self):
        problem = make_problem("costas", n=9)
        cfg = AdaptiveSearchConfig(max_iterations=500_000)

        # exact inline multi-walks at k=8, several master seeds
        inline_times = []
        for seed in range(10):
            result = MultiWalkSolver(cfg, executor="inline").solve(
                problem, 8, seed=seed
            )
            assert result.solved
            inline_times.append(result.wall_time)

        # simulation from independently measured sequential samples
        solver = AdaptiveSearch(cfg)
        seq = [
            solver.solve(problem, seed=1000 + s).stats.wall_time
            for s in range(60)
        ]
        from repro.cluster.topology import Platform

        ideal = Platform(name="ideal", nodes=1, cores_per_node=64)
        sim_mean = MultiWalkSimulator(ideal, 0).simulate_many(
            seq, 8, n_reps=2000
        ).mean()

        inline_mean = np.mean(inline_times)
        # both estimate E[min of 8 iid solving times]; tolerate wide MC +
        # timing noise but require the same order of magnitude
        assert sim_mean == pytest.approx(inline_mean, rel=1.0)


class TestSolveAllPaperBenchmarks:
    @pytest.mark.parametrize(
        "family,params",
        [
            ("all_interval", {"n": 12}),
            ("perfect_square", {}),
            ("magic_square", {"n": 5}),
            ("costas", {"n": 10}),
        ],
    )
    def test_paper_benchmark_solves_and_verifies(self, family, params):
        problem = make_problem(family, **params)
        result = AdaptiveSearch(
            AdaptiveSearchConfig(max_iterations=500_000, time_limit=60)
        ).solve(problem, seed=123)
        assert result.solved
        assert problem.cost(result.config) == 0
