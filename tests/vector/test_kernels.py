"""The batched kernels, one vector at a time, against the scalar protocol.

``test_equivalence.py`` pins whole trajectories; this file pins what they
are made of.  For every registered adapter, on random configurations and
for *every* selected variable, ``errors()[l]`` must equal
``problem.variable_errors`` and ``deltas(i_sel)[l]`` must equal
``problem.swap_deltas`` on lane ``l``'s configuration — exactly, and again
after the engine's mutations (swaps, rewritten rows, a retirement).  The
batched tie-breaking must make the picks, and only the draws, of
:mod:`repro.core.selection` on the same generator state.

The compiled kernels of ``lanes.c`` answer the same protocol through
:class:`~repro.vector.problems.CompiledLanes` and are held to the same
scalar reference and, entry for entry, to their NumPy adapter; the state
their fused round keeps incrementally must equal a rebuild after every
round of a run that swaps, resets and restarts; and past the NumPy masks'
limits (costas 34, all-interval 70, and a 34-wide magic square for good
measure) compiled lanes must still be the scalar walks.  Those tests skip
on a host where ``lanes.c`` could not be built.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import AdaptiveSearchConfig
from repro.core.selection import argmin_random_tie, masked_argmax_random_tie
from repro.problems import make_problem
from repro.vector import kernel_backend
from repro.vector.engine import VectorWalkEngine
from repro.vector.problems import (
    CompiledLanes,
    ScalarLaneFallback,
    VectorAllInterval,
    VectorCostas,
    VectorMagicSquare,
    VectorProblem,
    as_vector_problem,
    has_batched_kernels,
    lane_kernel,
)
from repro.vector.selection import argmin_lanes, masked_argmax_lanes
from tests.vector.test_equivalence import assert_walks_equal
from tests.conftest import session_walk

COMPILED = kernel_backend().name == "compiled"
needs_compiled = pytest.mark.skipif(
    not COMPILED, reason=f"lanes.c is not loaded: {kernel_backend().error}"
)

ADAPTER_CASES = [
    ("magic_square", 3),
    ("magic_square", 4),
    ("magic_square", 5),
    ("magic_square", 6),
    ("magic_square", 7),
    ("magic_square", 12),
    ("costas", 6),
    ("costas", 14),
    ("costas", 16),  # 2n - 1 = 31 difference values: the last uint32 mask
    ("costas", 17),  # ... and the first uint64 one
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
    """Apply one swap per lane in ``lanes`` the way the engine does."""
    n = configs.shape[1]
    lanes, ii, jj = (np.asarray(x, dtype=np.int64) for x in (lanes, ii, jj))
    flat_i, flat_j = lanes * n + ii, lanes * n + jj
    flat = configs.reshape(-1)
    flat[flat_i], flat[flat_j] = flat[flat_j], flat[flat_i]
    vp.notify_swaps(lanes, ii, jj, flat_i, flat_j, configs)


class TestAdaptersAgainstScalarProtocol:
    @pytest.mark.parametrize("k", [1, 3, 6])
    @pytest.mark.parametrize("family,n", ADAPTER_CASES)
    def test_every_selected_variable(self, family, n, k):
        """Includes the cells on the diagonal, the anti-diagonal and (odd
        orders' centre) both."""
        problem = make_problem(family, n=n)
        vp = as_vector_problem(problem, k)
        assert vp.batched
        assert_kernels_match(vp, problem, random_configs(problem, k, seed=n + k))

    @pytest.mark.parametrize("family,n", ADAPTER_CASES)
    def test_after_swaps_rewritten_rows_and_a_retirement(self, family, n):
        problem = make_problem(family, n=n)
        k, size = 5, problem.size
        configs = random_configs(problem, k, seed=7 * n)
        vp = as_vector_problem(problem, k)
        assert_kernels_match(vp, problem, configs)
        rng = np.random.default_rng(n)
        # one swap in some lanes, twice over
        for lanes in ([0, 2, 3], [1, 2, 4]):
            ii = rng.integers(0, size, len(lanes))
            jj = (ii + 1 + rng.integers(0, size - 1, len(lanes))) % size
            swap_and_notify(vp, configs, lanes, ii, jj)
        assert_kernels_match(vp, problem, configs)
        # swaps inside one line: cells 0/1 share a row of a magic square,
        # 0/side a column, 0/side+1 the diagonal, the two anti-diagonal
        # corners the anti-diagonal
        side = int(round(size**0.5)) if family == "magic_square" else 2
        swap_and_notify(
            vp, configs, [0, 1, 2, 3],
            [0, 0, 0, side - 1], [1, side, side + 1, side * (side - 1)],
        )
        assert_kernels_match(vp, problem, configs)
        # a partial reset and a restart rewrite whole rows
        configs[1] = problem.random_configuration(rng)
        configs[4, [0, size - 1]] = configs[4, [size - 1, 0]]
        vp.notify_rows([1], configs)
        vp.notify_rows([4], configs)
        swap_and_notify(vp, configs, [1], [2], [0])
        assert_kernels_match(vp, problem, configs)
        # lanes 1 and 3 retire: the engine compresses its matrix and builds
        # a fresh adapter of the same type at the new width
        configs = configs[[0, 2, 4]]
        vp = type(vp)(problem, len(configs))
        assert_kernels_match(vp, problem, configs)
        swap_and_notify(vp, configs, [2], [1], [size - 1])
        assert_kernels_match(vp, problem, configs)

    @pytest.mark.parametrize("order,dtype", [(31, np.int16), (32, np.int32)])
    def test_magic_square_narrow_integer_switch(self, order, dtype):
        """Order 31 is the last whose line terms fit int16; the worst line
        sums (the largest values packed into one row / one column) must
        come out exact on both sides of the switch."""
        problem = make_problem("magic_square", n=order)
        size = problem.size
        packed_rows = np.arange(size, 0, -1)
        packed_cols = packed_rows.reshape(order, order).T.reshape(-1)
        configs = np.stack(
            [packed_rows, packed_cols, random_configs(problem, 1, seed=order)[0]]
        )
        vp = as_vector_problem(problem, len(configs))
        corners_and_centre = [
            0, order - 1, size - order, size - 1, (size - 1) // 2, order + 1,
        ]
        assert_kernels_match(vp, problem, configs, corners_and_centre)
        assert vp.deltas(np.zeros(len(configs), dtype=np.int64)).dtype == dtype
        swap_and_notify(vp, configs, [0, 1, 2], [0, 0, 5], [size - 1, order, 7])
        assert_kernels_match(vp, problem, configs, corners_and_centre)

    def test_fallback_loops_the_scalar_protocol(self):
        problem = make_problem("queens", n=8)
        vp = as_vector_problem(problem, 3)
        assert isinstance(vp, ScalarLaneFallback) and not vp.batched
        assert_kernels_match(vp, problem, random_configs(problem, 3, seed=1))


class TestFitCheck:
    """NumPy adapters: a mask limit, as before.  Compiled: any order."""

    @pytest.mark.parametrize(
        "family,adapter",
        [("costas", VectorCostas), ("all_interval", VectorAllInterval)],
    )
    def test_agrees_with_as_vector_problem_at_the_limit(self, family, adapter):
        limit = adapter.MAX_N
        assert limit == {"costas": 32, "all_interval": 62}[family]
        for n, fits in ((limit, True), (limit + 1, False)):
            problem = make_problem(family, n=n)
            assert adapter.fits(problem) is fits
            vp = as_vector_problem(problem, 2)
            assert vp.batched is fits
            assert isinstance(vp, adapter if fits else ScalarLaneFallback)
            # a lane batch runs on lanes.c where it is loaded, whatever
            # the order; without it the NumPy adapter's limit is the limit
            assert has_batched_kernels(problem) is (COMPILED or fits)
            assert lane_kernel(problem) == (
                "compiled" if COMPILED else "numpy" if fits else "scalar"
            )
        # the largest instance that fits is exact, not merely accepted
        problem = make_problem(family, n=limit)
        assert_kernels_match(
            as_vector_problem(problem, 2),
            problem,
            random_configs(problem, 2, seed=limit),
            variables=[0, limit // 2, limit - 1],
        )

    def test_asking_constructs_nothing(self, monkeypatch):
        def refuse(self, problem, k):
            raise AssertionError("has_batched_kernels built an adapter")

        for adapter in (
            VectorMagicSquare, VectorCostas, VectorAllInterval,
            ScalarLaneFallback, CompiledLanes,
        ):
            monkeypatch.setattr(adapter, "__init__", refuse)
        assert has_batched_kernels(make_problem("magic_square", n=5))
        assert has_batched_kernels(make_problem("costas", n=32))
        assert has_batched_kernels(make_problem("costas", n=33)) is COMPILED
        assert has_batched_kernels(make_problem("all_interval", n=62))
        assert has_batched_kernels(make_problem("all_interval", n=63)) is COMPILED
        assert not has_batched_kernels(make_problem("queens", n=8))
        assert lane_kernel(make_problem("queens", n=8)) == "scalar"

    def test_oversized_instance_cannot_be_forced_onto_the_kernels(self):
        with pytest.raises(ValueError, match="n <= 32"):
            VectorCostas(make_problem("costas", n=33), 2)
        assert VectorProblem.fits(make_problem("queens", n=8))


# past the NumPy masks (MAX_N 32 / 62), and a magic square on int32 sums
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
    @pytest.mark.parametrize("family,n", ADAPTER_CASES)
    def test_scalar_protocol_and_numpy_adapter_entry_for_entry(
        self, family, n, k
    ):
        problem = make_problem(family, n=n)
        configs = random_configs(problem, k, seed=3 * n + k)
        compiled = CompiledLanes(problem, k)
        assert_kernels_match(compiled, problem, configs)
        adapter = as_vector_problem(problem, k)
        assert adapter.batched
        adapter.begin_round(configs)
        compiled.begin_round(configs)
        assert np.array_equal(compiled.errors(), adapter.errors())
        for i in range(problem.size):
            i_sel = (i + np.arange(k)) % problem.size
            assert np.array_equal(compiled.deltas(i_sel), adapter.deltas(i_sel))
        assert np.array_equal(
            compiled.lane_costs(configs), adapter.lane_costs(configs)
        )

    @pytest.mark.parametrize(
        "family,n", ADAPTER_CASES + PAST_THE_LIMITS + SMALL_ORDERS
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

    def test_an_explicit_adapter_pins_the_numpy_round(self):
        problem = make_problem("costas", n=8)
        config = AdaptiveSearchConfig(max_iterations=200)
        pinned = VectorWalkEngine(
            problem, 3, config, seeds=[7, 8, 9],
            vector_problem=as_vector_problem(problem, 3),
        )
        default = VectorWalkEngine(problem, 3, config, seeds=[7, 8, 9])
        assert isinstance(pinned.vp, VectorCostas)
        assert isinstance(default.vp, CompiledLanes)
        for a, b in zip(pinned.run().walks, default.run().walks):
            assert_walks_equal(a, b, "numpy round vs compiled round")


def lane_generators(k, seed):
    """Two identically seeded generator lists: one for the batched helper,
    one for the scalar reference."""
    return (
        [np.random.default_rng([seed, lane]) for lane in range(k)],
        [np.random.default_rng([seed, lane]) for lane in range(k)],
    )


def assert_same_streams(batched, scalar):
    for lane, (a, b) in enumerate(zip(batched, scalar)):
        assert a.bit_generator.state == b.bit_generator.state, lane


class TestBatchedTieBreaking:
    """Same pick, same number of draws as ``repro.core.selection``."""

    @pytest.mark.parametrize("dtype", [np.uint16, np.int32, np.float64])
    @pytest.mark.parametrize("k,n,top", [(1, 9, 3), (6, 18, 4), (7, 144, 40)])
    def test_masked_argmax(self, k, n, top, dtype):
        rng = np.random.default_rng(k * n)
        for trial in range(20):
            values = rng.integers(0, top, size=(k, n)).astype(dtype)
            mask = rng.random((k, n)) < 0.7
            values[0] = 0  # an all-zero lane: the shield value ties the max
            if k > 2:
                values[1, 3] = top + 5  # a unique maximum: no draw
                mask[1, 3] = True
                mask[2] = False  # every variable frozen: no candidate
            batched, scalar = lane_generators(k, trial)
            bounds = np.arange(k + 1) * n
            flat, empty = masked_argmax_lanes(
                values.copy(), mask, bounds, [g.integers for g in batched]
            )
            for lane in range(k):
                if not mask[lane].any():
                    assert lane in empty
                    assert flat[lane] == lane * n  # rides along on variable 0
                    with pytest.raises(ValueError):
                        masked_argmax_random_tie(
                            values[lane], mask[lane], scalar[lane]
                        )
                    continue
                assert lane not in empty
                pick = masked_argmax_random_tie(
                    values[lane], mask[lane], scalar[lane]
                )
                assert flat[lane] == lane * n + pick, (trial, lane)
            assert_same_streams(batched, scalar)
            if k > 2:
                fresh = np.random.default_rng([trial, 1]).bit_generator.state
                assert batched[1].bit_generator.state == fresh
                fresh = np.random.default_rng([trial, 2]).bit_generator.state
                assert batched[2].bit_generator.state == fresh

    @pytest.mark.parametrize("dtype", [np.int16, np.float64])
    @pytest.mark.parametrize("k,n,top", [(1, 9, 3), (6, 18, 4), (7, 144, 40)])
    def test_argmin_with_skipped_lanes(self, k, n, top, dtype):
        rng = np.random.default_rng(k + n)
        for trial in range(20):
            values = rng.integers(-top, top, size=(k, n)).astype(dtype)
            if dtype is np.float64:
                values[0, 0] = np.inf  # the engine's own-column sentinel
            skip = [k - 1] if k > 1 and trial % 2 else []
            batched, scalar = lane_generators(k, trial)
            bounds = np.arange(k + 1) * n
            flat, best = argmin_lanes(
                values, bounds, [g.integers for g in batched], skip
            )
            for lane in range(k):
                if lane in skip:
                    continue  # drew nothing: its scalar twin stays fresh
                pick = argmin_random_tie(values[lane], scalar[lane])
                assert flat[lane] == lane * n + pick, (trial, lane)
                assert best[lane] == values[lane, pick]
            assert_same_streams(batched, scalar)
