"""The vector engine's equivalence contract against the scalar engine.

A lane seeded with seed ``s`` must produce the *bit-identical* trajectory
of a scalar :class:`~repro.core.solver.AdaptiveSearch` walk with the same
seed and configuration: same final configuration, cost, termination
reason, iteration count, and every bookkeeping counter.  This is the
property that makes mixing scalar and vector executors in one campaign
reproducible, and it is checked here across problem families, seeds, and
configurations (including restart- and reset-heavy regimes).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import AdaptiveSearchConfig
from repro.problems import make_problem
from repro.vector.engine import VectorWalkEngine
from tests.conftest import session_walk

FAMILIES = [
    ("magic_square", {"n": 6}),
    ("costas", {"n": 8}),
    ("all_interval", {"n": 10}),
]

STAT_FIELDS = (
    "iterations",
    "swaps",
    "local_minima",
    "plateau_moves",
    "accepted_local_min_moves",
    "frozen_variables",
    "resets",
    "restarts",
)

prop_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_walks_equal(scalar, vector, context=""):
    """Full-trajectory equality, wall time excluded (the only clock field)."""
    assert scalar.solved == vector.solved, context
    assert scalar.reason == vector.reason, context
    assert scalar.cost == vector.cost, context
    assert np.array_equal(scalar.config, vector.config), context
    for name in STAT_FIELDS:
        a = getattr(scalar.stats, name)
        b = getattr(vector.stats, name)
        assert a == b, f"{context}: stats.{name} {a} != {b}"


class TestScalarEquivalenceK1:
    """k=1 property: one lane IS a scalar walk."""

    @pytest.mark.parametrize("family,params", FAMILIES)
    @prop_settings
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_bit_identical_trajectory(self, family, params, seed):
        config = AdaptiveSearchConfig(max_iterations=2000)
        scalar = session_walk(
            config, make_problem(family, **params), seed
        )
        outcome = VectorWalkEngine(
            make_problem(family, **params), k=1, config=config, seeds=[seed]
        ).run()
        assert_walks_equal(scalar, outcome.walks[0], f"{family} seed={seed}")

    @prop_settings
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        restart_limit=st.integers(min_value=50, max_value=400),
        max_restarts=st.integers(min_value=1, max_value=4),
    )
    def test_restart_and_reset_regime(self, seed, restart_limit, max_restarts):
        """Tight restart budgets force restarts, resets, and exhaustion."""
        config = AdaptiveSearchConfig(
            max_iterations=5000,
            restart_limit=restart_limit,
            max_restarts=max_restarts,
        )
        scalar = session_walk(config, make_problem("magic_square", n=5), seed)
        outcome = VectorWalkEngine(
            make_problem("magic_square", n=5), k=1, config=config, seeds=[seed]
        ).run()
        assert_walks_equal(scalar, outcome.walks[0], f"restart seed={seed}")


class TestLaneIndependence:
    """k>1: every lane equals the scalar walk with that lane's seed."""

    @pytest.mark.parametrize("family,params", FAMILIES)
    def test_lanes_match_scalar_walks(self, family, params):
        seeds = [100, 101, 102, 103, 104]
        config = AdaptiveSearchConfig(max_iterations=1500)
        outcome = VectorWalkEngine(
            make_problem(family, **params),
            k=len(seeds),
            config=config,
            seeds=seeds,
        ).run()
        for lane, seed in enumerate(seeds):
            scalar = session_walk(
                config, make_problem(family, **params), seed
            )
            assert_walks_equal(
                scalar, outcome.walks[lane], f"{family} lane={lane}"
            )

    def test_default_seeding_matches_walk_seeds(self):
        """seed= expands through walk_seeds, the executors' derivation."""
        from repro.parallel.seeding import walk_seeds

        config = AdaptiveSearchConfig(max_iterations=400)
        auto = VectorWalkEngine(
            make_problem("costas", n=7), k=3, config=config, seed=42
        ).run()
        explicit = VectorWalkEngine(
            make_problem("costas", n=7),
            k=3,
            config=config,
            seeds=walk_seeds(3, 42),
        ).run()
        for a, b in zip(auto.walks, explicit.walks):
            assert_walks_equal(a, b, "walk_seeds derivation")
