"""Lanes are scalar walks where the round works hardest.

``test_equivalence.py`` holds lanes to scalar walks under the default
tuning.  Here the batch runs under configurations that keep every rare
branch of the round busy — partial resets, restarts, lanes with every
variable frozen, lanes exhausting their restarts — while other lanes run
on, so lanes leave the batch at different rounds and the batch is rebuilt
at every width on the way down.  A lane's walk must not notice: not the
other lanes, not the width, not the order of the seeds.

All of it was recorded green at the commit that still kept finished lanes
in the batch; the scalar engine (``repro.core``) is the independent
witness throughout.
"""

import dataclasses

import pytest

from repro.core.config import AdaptiveSearchConfig
from repro.core.termination import TerminationReason
from repro.harness.runner import BenchmarkSpec, collect_samples
from repro.problems import make_problem
from repro.vector.engine import VectorWalkEngine
from tests.vector.test_equivalence import assert_walks_equal
from tests.conftest import session_walk

# the two stress configurations of tests/core/test_golden_walks.py ...
CHURN = AdaptiveSearchConfig(
    reset_limit=1, restart_limit=60, freeze_swap=2,
    plateau_is_local_min=False, max_iterations=400,
)
ALL_FROZEN = AdaptiveSearchConfig(
    freeze_loc_min=40, reset_limit=10**6, prob_select_loc_min=0.0,
    max_iterations=250,
)
STRESS_CONFIGS = {
    "churn": CHURN,
    "all_frozen": ALL_FROZEN,
    # ... and one under which lanes exhaust their restarts and retire at
    # different rounds while the others run on
    "exhaust": dataclasses.replace(CHURN, max_restarts=2, max_iterations=4000),
}
SHAPES = [
    ("costas", 10),
    ("all_interval", 12),
    ("magic_square", 5),
    ("costas", 7),
    ("magic_square", 4),
]
SEEDS = list(range(40, 47))


def scalar_walk(family, n, config, seed):
    return session_walk(config, make_problem(family, n=n), seed)


def vector_walks(family, n, config, seeds, first_wins=False):
    return VectorWalkEngine(
        make_problem(family, n=n),
        k=len(seeds),
        config=config,
        seeds=seeds,
        first_wins=first_wins,
    ).run().walks


@pytest.mark.parametrize("family,n", SHAPES)
@pytest.mark.parametrize("stress", sorted(STRESS_CONFIGS))
class TestStressedLanesAreScalarWalks:
    def test_every_lane_to_its_own_end(self, stress, family, n):
        config = STRESS_CONFIGS[stress]
        walks = vector_walks(family, n, config, SEEDS)
        for lane, seed in enumerate(SEEDS):
            assert_walks_equal(
                scalar_walk(family, n, config, seed),
                walks[lane],
                f"{stress} {family}-{n} lane={lane}",
            )

    def test_first_finisher_cuts_the_others_short(self, stress, family, n):
        """A lane that ended on its own is the whole scalar walk; a lane
        the winner cancelled is the scalar walk up to that iteration."""
        config = STRESS_CONFIGS[stress]
        walks = vector_walks(family, n, config, SEEDS, first_wins=True)
        for lane, (seed, walk) in enumerate(zip(SEEDS, walks)):
            context = f"{stress} {family}-{n} first_wins lane={lane}"
            if walk.reason is not TerminationReason.CANCELLED:
                assert_walks_equal(
                    scalar_walk(family, n, config, seed), walk, context
                )
                continue
            assert any(other.solved for other in walks), context
            if walk.stats.iterations == 0:
                continue  # cancelled before its first round
            cut = dataclasses.replace(
                config, max_iterations=walk.stats.iterations
            )
            prefix = scalar_walk(family, n, cut, seed)
            assert prefix.reason is TerminationReason.MAX_ITERATIONS, context
            walk = dataclasses.replace(walk, reason=prefix.reason)
            assert_walks_equal(prefix, walk, context)


class TestWidthInvariance:
    """Lane ``l``'s result depends on its seed and nothing else."""

    @pytest.mark.parametrize(
        "family,n,config",
        [
            ("magic_square", 5, AdaptiveSearchConfig(max_iterations=1500)),
            ("costas", 9, AdaptiveSearchConfig(max_iterations=1500)),
            ("all_interval", 12, STRESS_CONFIGS["exhaust"]),
            ("magic_square", 4, STRESS_CONFIGS["all_frozen"]),
        ],
    )
    def test_alone_together_reversed(self, family, n, config):
        seeds = [11, 12, 13, 14, 15, 16]
        together = vector_walks(family, n, config, seeds)
        backwards = vector_walks(family, n, config, seeds[::-1])[::-1]
        pairs = [
            walk
            for start in range(0, len(seeds), 2)
            for walk in vector_walks(family, n, config, seeds[start : start + 2])
        ]
        for lane, seed in enumerate(seeds):
            (alone,) = vector_walks(family, n, config, [seed])
            for label, walk in (
                ("together", together[lane]),
                ("reversed", backwards[lane]),
                ("in pairs", pairs[lane]),
            ):
                assert_walks_equal(
                    alone, walk, f"{family}-{n} seed={seed} alone vs {label}"
                )
        # the batch did shrink on the way: lanes ended at different rounds
        assert len({walk.stats.iterations for walk in together}) > 1


class TestCollectSamplesThroughLanes:
    def test_ragged_last_batch_draws_the_sequential_samples(self):
        """6 runs, 4 lanes at a time: a full batch and a batch of two."""
        spec = BenchmarkSpec("magic_square", {"n": 5}, metric="iterations")
        sequential = collect_samples(spec, 6, seed=7)
        lanes = collect_samples(spec, 6, seed=7, vector_lanes=4)
        assert [s.iterations for s in lanes] == [
            s.iterations for s in sequential
        ]
        assert [s.solved for s in lanes] == [s.solved for s in sequential]
        assert [s.seed for s in lanes] == [s.seed for s in sequential]
