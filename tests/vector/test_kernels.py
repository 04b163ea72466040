"""The compiled kernels, one vector at a time, against the scalar protocol.

``test_equivalence.py`` pins whole trajectories; this file pins what they
are made of.  ``lanes.c`` answers one kernel per call through
:class:`~repro.vector.problems.CompiledLanes`: on random configurations
and for *every* selected variable, ``errors()[l]`` must equal
``problem.variable_errors``, ``deltas(i_sel)[l]`` must equal
``problem.swap_deltas`` and ``lane_costs()[l]`` must equal
``problem.cost`` on lane ``l``'s configuration — exactly, and again after
swaps and rewritten rows.  The state the fused round keeps incrementally
must equal a rebuild after every round of a run that swaps, resets and
restarts; and at orders past any machine-word mask (costas 34,
all-interval 70, a 34-wide magic square) compiled lanes must still be the
scalar walks.  Those tests skip on a host where ``lanes.c`` could not be
built.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import AdaptiveSearchConfig
from repro.problems import make_problem
from repro.vector import kernel_backend
from repro.vector.engine import VectorWalkEngine
from repro.vector.problems import CompiledLanes, lane_kernel
from tests.vector.test_equivalence import assert_walks_equal
from tests.conftest import session_walk

COMPILED = kernel_backend().name == "compiled"
needs_compiled = pytest.mark.skipif(
    not COMPILED, reason=f"lanes.c is not loaded: {kernel_backend().error}"
)

KERNEL_CASES = [
    ("magic_square", 3),
    ("magic_square", 4),
    ("magic_square", 5),
    ("magic_square", 6),
    ("magic_square", 7),
    ("magic_square", 12),
    ("costas", 6),
    ("costas", 14),
    ("costas", 16),
    ("costas", 17),
    ("all_interval", 8),
    ("all_interval", 18),
]


def random_configs(problem, k, seed):
    rng = np.random.default_rng(seed)
    return np.stack([problem.random_configuration(rng) for _ in range(k)])


def assert_kernels_match(vp, problem, configs, variables=None):
    """``begin_round`` on ``configs``, then every lane against the scalar
    protocol for every selected variable in ``variables`` (default: all;
    lane ``l`` is offset by ``l`` so the lanes never select in step)."""
    k, n = configs.shape
    states = [problem.init_state(configs[lane].copy()) for lane in range(k)]
    vp.begin_round(configs)
    errors = np.array(vp.errors())
    for lane, state in enumerate(states):
        assert np.array_equal(errors[lane], problem.variable_errors(state)), lane
    for i in range(n) if variables is None else variables:
        i_sel = (i + np.arange(k)) % n
        deltas = vp.deltas(i_sel)
        assert deltas.shape == (k, n) and deltas.flags.c_contiguous
        for lane, state in enumerate(states):
            expected = problem.swap_deltas(state, int(i_sel[lane]))
            assert np.array_equal(deltas[lane], expected), (lane, i_sel[lane])
            assert deltas[lane, i_sel[lane]] == 0


def swap_and_notify(vp, configs, lanes, ii, jj):
    """Apply one swap per lane in ``lanes`` and report the rows rewritten
    (only ``lanes_run`` follows a swap incrementally)."""
    n = configs.shape[1]
    lanes, ii, jj = (np.asarray(x, dtype=np.int64) for x in (lanes, ii, jj))
    flat_i, flat_j = lanes * n + ii, lanes * n + jj
    flat = configs.reshape(-1)
    flat[flat_i], flat[flat_j] = flat[flat_j], flat[flat_i]
    vp.notify_rows(lanes.tolist(), configs)


# past any machine-word mask, and a magic square of large line sums
PAST_THE_LIMITS = [("costas", 34), ("all_interval", 70), ("magic_square", 34)]

# the count-table kinds price i's side once and each partner against it; at
# these orders every partner is next to i or at an end of the series
SMALL_ORDERS = [
    (family, n) for family in ("all_interval", "costas") for n in (2, 3, 4, 5)
]


@needs_compiled
class TestCompiledKernels:
    """``lanes.c`` one kernel at a time, through the adapter protocol."""

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("family,n", KERNEL_CASES)
    def test_scalar_protocol_entry_for_entry(self, family, n, k):
        problem = make_problem(family, n=n)
        configs = random_configs(problem, k, seed=3 * n + k)
        compiled = CompiledLanes(problem, k)
        assert_kernels_match(compiled, problem, configs)
        assert compiled.lane_costs(configs).tolist() == [
            problem.cost(row) for row in configs
        ]

    @pytest.mark.parametrize(
        "family,n", KERNEL_CASES + PAST_THE_LIMITS + SMALL_ORDERS
    )
    def test_after_swaps_and_rewritten_rows(self, family, n):
        problem = make_problem(family, n=n)
        k, size = 4, problem.size
        configs = random_configs(problem, k, seed=11 * n)
        vp = CompiledLanes(problem, k)
        some = None if size <= 64 else [0, 1, size // 2, size - 2, size - 1]
        assert_kernels_match(vp, problem, configs, some)
        rng = np.random.default_rng(n)
        ii = rng.integers(0, size, 3)
        jj = (ii + 1 + rng.integers(0, size - 1, 3)) % size
        swap_and_notify(vp, configs, [0, 1, 3], ii, jj)
        # neighbours, and the two ends: the difference between them flips
        swap_and_notify(vp, configs, [2], [0], [1])
        assert_kernels_match(vp, problem, configs, some)
        swap_and_notify(vp, configs, [2], [size - 1], [0])
        configs[1] = problem.random_configuration(rng)
        vp.notify_rows([1], configs)
        assert_kernels_match(vp, problem, configs, some)
        costs = vp.lane_costs(configs)
        assert costs.tolist() == [problem.cost(row) for row in configs]

    def test_rejects_arrays_it_cannot_read(self):
        problem = make_problem("costas", n=8)
        vp = CompiledLanes(problem, 2)
        configs = random_configs(problem, 2, seed=1)
        for bad in (
            configs.astype(np.int32), configs[:, ::-1], configs[:1],
            np.asfortranarray(configs),
        ):
            with pytest.raises(ValueError, match="C-contiguous int64"):
                vp.begin_round(bad)
        vp.begin_round(configs)
        with pytest.raises(ValueError, match="out of range"):
            vp.deltas(np.array([0, 8]))


CHURN = AdaptiveSearchConfig(
    reset_limit=1, restart_limit=60, freeze_swap=2,
    plateau_is_local_min=False, max_iterations=400, max_restarts=3,
)


@needs_compiled
class TestCompiledRound:
    @pytest.mark.parametrize(
        "family,n", [("magic_square", 5), ("costas", 13), ("all_interval", 12)]
    )
    @pytest.mark.parametrize(
        "config", [AdaptiveSearchConfig(max_iterations=300), CHURN],
        ids=["defaults", "churn"],
    )
    def test_incremental_state_is_the_rebuilt_state(self, family, n, config):
        """After every round of a run that swaps, resets, restarts and
        retires lanes: the state ``lanes_run`` kept equals a rebuild from
        the configurations (a lane flagged dirty is rebuilt before it is
        next read), and the cost it kept is the problem's cost."""
        problem = make_problem(family, n=n)
        checked = []

        def check(engine):
            vp = engine.vp
            assert isinstance(vp, CompiledLanes)
            configs = engine._configs
            kept, dirty = vp._state.copy(), vp._dirty.astype(bool)
            fresh = CompiledLanes(problem, len(configs))
            costs = fresh.lane_costs(configs)
            assert np.array_equal(kept[~dirty], fresh._state[~dirty])
            assert np.array_equal(costs, engine._cost)
            checked.append(int(dirty.sum()))

        engine = VectorWalkEngine(
            problem, 5, config, seeds=[1, 2, 3, 4, 5], round_callback=check
        )
        outcome = engine.run()
        assert len(checked) == engine.rounds > 0
        if config is CHURN:  # the rewritten-row paths did run
            assert sum(w.stats.resets for w in outcome.walks) > 0
            assert sum(w.stats.restarts for w in outcome.walks) > 0

    @pytest.mark.parametrize("family,n", PAST_THE_LIMITS)
    def test_lanes_are_scalar_walks_past_the_mask_limits(self, family, n):
        problem = make_problem(family, n=n)
        assert lane_kernel(problem) == "compiled"
        config = dataclasses.replace(CHURN, max_iterations=120)
        seeds = [61, 62, 63]
        engine = VectorWalkEngine(problem, len(seeds), config, seeds=seeds)
        assert isinstance(engine.vp, CompiledLanes)
        walks = engine.run().walks
        for lane, seed in enumerate(seeds):
            scalar = session_walk(
                config, make_problem(family, n=n), seed
            )
            assert_walks_equal(scalar, walks[lane], f"{family}-{n} lane={lane}")

    @pytest.mark.parametrize("family,n", [("all_interval", 100), ("costas", 18)])
    def test_one_lane_is_the_session_at_paper_scale(self, family, n):
        """The orders the benchmark walks stop at 18 variables: one lane of
        all-interval 100 and of costas 18 against the session for a fixed
        budget, field for field and the generator's end state; once on the
        problem's tuning, once churning through resets and restarts."""
        churn = dataclasses.replace(
            CHURN, restart_limit=1000, max_iterations=3000
        )
        for seed, config in (
            (0, AdaptiveSearchConfig(max_iterations=3000)), (1, churn),
        ):
            lane_rng = np.random.default_rng(seed)
            engine = VectorWalkEngine(
                make_problem(family, n=n), 1, config, seeds=[lane_rng]
            )
            assert isinstance(engine.vp, CompiledLanes)
            lane = engine.run().walks[0]
            session_rng = np.random.default_rng(seed)
            witness = session_walk(config, make_problem(family, n=n), session_rng)
            assert witness.stats.iterations == 3000
            assert_walks_equal(witness, lane, f"{family}-{n} seed={seed}")
            assert (
                lane_rng.bit_generator.state == session_rng.bit_generator.state
            )
