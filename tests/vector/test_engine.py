"""Vector engine behavior beyond per-lane equivalence.

First-finisher semantics (the multi-walk contract), cooperative
cancellation through ``round_callback``, the ``executor="vector"``
integration in :class:`~repro.parallel.multiwalk.MultiWalkSolver`
(including the hybrid processes x lanes layout), and the telemetry
lane events.
"""

import numpy as np
import pytest

from repro.core import TerminationReason
from repro.core.config import AdaptiveSearchConfig
from repro.core.solver import AdaptiveSearch
from repro.errors import ParallelError
from repro.parallel.multiwalk import MultiWalkSolver, solve_parallel
from repro.parallel.seeding import walk_seeds
from repro.problems import make_problem
from repro.telemetry import (
    Recorder,
    RingBufferSink,
    get_recorder,
    set_recorder,
)
from repro.vector.engine import VectorWalkEngine
from tests.conftest import session_walk


def magic(n=6):
    return make_problem("magic_square", n=n)


class TestFirstFinisher:
    def test_first_wins_cancels_losers(self):
        config = AdaptiveSearchConfig(max_iterations=50_000)
        outcome = VectorWalkEngine(
            magic(), k=6, config=config, seed=3, first_wins=True
        ).run()
        assert outcome.solved
        winner = outcome.winner_lane
        assert winner is not None
        assert outcome.walks[winner].solved
        for lane, walk in enumerate(outcome.walks):
            if walk.solved:
                continue
            assert walk.reason is TerminationReason.CANCELLED, lane
            # lock-step: a cancelled lane stopped the round the winner
            # solved, so it cannot have done more work than the winner
            assert walk.stats.iterations <= outcome.walks[winner].stats.iterations

    def test_everyone_finishes_without_first_wins(self):
        config = AdaptiveSearchConfig(max_iterations=4000)
        outcome = VectorWalkEngine(
            magic(), k=6, config=config, seed=3, first_wins=False
        ).run()
        for walk in outcome.walks:
            assert walk.reason is not TerminationReason.CANCELLED

    def test_round_callback_false_cancels_all(self):
        config = AdaptiveSearchConfig(max_iterations=50_000)
        outcome = VectorWalkEngine(
            magic(),
            k=3,
            config=config,
            seed=0,
            round_callback=lambda engine: False,
        ).run()
        assert not outcome.solved
        assert all(
            walk.reason is TerminationReason.CANCELLED
            for walk in outcome.walks
        )
        assert all(walk.stats.iterations <= 1 for walk in outcome.walks)

    def test_round_callback_budget(self):
        rounds_seen = []

        def stop_after_20(engine):
            rounds_seen.append(engine.rounds)
            return engine.rounds < 20

        config = AdaptiveSearchConfig(max_iterations=50_000)
        engine = VectorWalkEngine(
            magic(8), k=2, config=config, seed=1,
            round_callback=stop_after_20,
        )
        outcome = engine.run()
        assert not outcome.solved
        assert engine.rounds == 20
        assert rounds_seen == sorted(rounds_seen)


class TestVectorExecutor:
    """executor="vector" through MultiWalkSolver / solve_parallel."""

    def test_winner_walk_matches_inline_trajectory(self):
        config = AdaptiveSearchConfig(max_iterations=20_000)
        vector = solve_parallel(
            magic(5), 4, seed=7, config=config, executor="vector"
        )
        inline = solve_parallel(
            magic(5), 4, seed=7, config=config, executor="inline"
        )
        assert vector.solved and inline.solved
        assert vector.executor == "vector"
        assert vector.n_walkers == 4 and len(vector.walks) == 4
        w = vector.winner.walk_id
        # walk w is the same trajectory under both executors
        assert inline.walks[w].solved
        assert vector.winner.iterations == inline.walks[w].iterations
        assert vector.winner.cost == inline.walks[w].cost
        assert np.array_equal(vector.winner.config, inline.walks[w].config)
        # cancelled lanes were cut short relative to their full inline runs
        for lane, walk in enumerate(vector.walks):
            if walk.reason is TerminationReason.CANCELLED:
                assert walk.iterations <= inline.walks[lane].iterations

    def test_solution_is_valid(self):
        problem = magic(6)
        result = solve_parallel(
            problem,
            3,
            seed=11,
            config=AdaptiveSearchConfig(max_iterations=100_000),
            executor="vector",
        )
        assert result.solved
        assert problem.is_solution(result.config)

    def test_hybrid_lanes_layout(self):
        """lanes below the walk count splits across engine processes; every
        walk keeps its walk_seeds-derived trajectory."""
        config = AdaptiveSearchConfig(max_iterations=3000)
        result = solve_parallel(
            magic(5),
            4,
            seed=13,
            config=config,
            executor="vector",
            lanes=2,
            time_limit=120,
        )
        assert result.executor == "vector"
        assert len(result.walks) == 4
        if result.solved:
            w = result.winner.walk_id
            scalar = session_walk(
                config, magic(5), walk_seeds(4, 13)[w]
            )
            assert scalar.solved
            assert result.winner.iterations == scalar.stats.iterations

    def test_lanes_validation(self):
        with pytest.raises(ParallelError, match="lanes"):
            MultiWalkSolver(executor="vector", lanes=0)


class TestVectorTelemetry:
    def test_lane_events_and_counters(self):
        sink = RingBufferSink()
        previous = get_recorder()
        set_recorder(
            Recorder(enabled=True, sinks=[sink], milestone_every=50)
        )
        try:
            result = solve_parallel(
                magic(5),
                3,
                seed=2,
                config=AdaptiveSearchConfig(max_iterations=20_000),
                executor="vector",
            )
        finally:
            set_recorder(previous)
        assert result.solved
        kinds = [record["event"] for record in sink.records]
        assert kinds.count("walk_start") == 3
        assert kinds.count("walk_finish") == 3
        assert "iteration" in kinds or result.winner.iterations < 50


class CostTrace:
    """Scalar-side witness: (cost, best cost) after every iteration."""

    def __init__(self):
        self.after = {}

    def on_iteration(self, info):
        self.after[info.iteration] = (info.cost, info.best_cost)


def scalar_witnesses(problem_factory, config, seeds):
    traces, results = [], []
    for seed in seeds:
        trace = CostTrace()
        results.append(
            session_walk(
                config, problem_factory(), seed, callbacks=[trace]
            )
        )
        traces.append(trace)
    return traces, results


class TestPerLaneViewsAcrossRetirements:
    """``iterations`` / ``cost`` / ``best_cost`` / ``active`` answer per
    *original* lane whatever the batch has shrunk to: a running lane
    reports its current values, a finished one stays at its final ones."""

    SEEDS = [21, 22, 23, 24, 25, 26]

    def run(self, first_wins):
        config = AdaptiveSearchConfig(max_iterations=3000)
        snapshots = []

        def snapshot(engine):
            snapshots.append(
                (
                    engine.rounds,
                    engine.iterations.copy(),
                    engine.cost.copy(),
                    engine.best_cost.copy(),
                    engine.active.copy(),
                )
            )

        engine = VectorWalkEngine(
            magic(5),
            k=len(self.SEEDS),
            config=config,
            seeds=self.SEEDS,
            first_wins=first_wins,
            round_callback=snapshot,
        )
        generators = list(engine.rngs)
        outcome = engine.run()
        traces, scalars = scalar_witnesses(lambda: magic(5), config, self.SEEDS)
        return engine, outcome, snapshots, traces, scalars, generators

    def test_finished_lanes_stay_at_their_final_values(self):
        engine, outcome, snapshots, traces, scalars, _ = self.run(False)
        final = [walk.stats.iterations for walk in outcome.walks]
        assert final == [s.stats.iterations for s in scalars]
        assert len(set(final)) == len(final)  # six retirements, six widths
        assert len(snapshots) == max(final)
        for rounds, iterations, cost, best, active in snapshots:
            for lane, done_at in enumerate(final):
                # a lane is live through the callback of its last round
                at = min(rounds, done_at)
                assert iterations[lane] == at, (rounds, lane)
                assert active[lane] == (rounds <= done_at), (rounds, lane)
                assert (cost[lane], best[lane]) == traces[lane].after[at]
        # after the run every lane is finished and still answers
        assert not engine.active.any()
        assert engine.iterations.tolist() == final
        assert engine.best_cost.tolist() == [w.cost for w in outcome.walks]
        assert engine.solved_lanes == [
            lane for lane, walk in enumerate(outcome.walks) if walk.solved
        ]

    def test_first_wins_views(self):
        engine, outcome, snapshots, traces, _, _ = self.run(True)
        winner = outcome.winner_lane
        won_at = outcome.walks[winner].stats.iterations
        assert len(snapshots) == won_at
        assert engine.iterations.tolist() == [won_at] * len(self.SEEDS)
        assert engine.cost[winner] == 0
        for lane in range(len(self.SEEDS)):
            assert (
                engine.cost[lane], engine.best_cost[lane]
            ) == traces[lane].after[won_at]

    def test_a_retired_lane_never_draws_again(self):
        """The draws are the contract: a lane's generator must stand, when
        the batch ends, where the scalar walk left it."""
        _, outcome, _, _, _, generators = self.run(False)
        budget = 3000  # a session leaves the iteration budget to its driver
        for seed, generator in zip(self.SEEDS, generators):
            session = AdaptiveSearch().session(magic(5), seed)
            while (left := budget - session.stats.iterations) > 0:
                if session.step(min(64, left)) is not None:
                    break
            assert (
                generator.bit_generator.state == session.rng.bit_generator.state
            )


class TestVectorTelemetryEvents:
    """Milestones and finishes name the same lanes, with the same counts,
    whether or not finished lanes are still rows of the batch."""

    SEEDS = [31, 32, 33, 34, 35]
    WALK_IDS = [10, 12, 14, 16, 18]
    EVERY = 25

    @pytest.mark.parametrize("first_wins", [False, True])
    def test_events_follow_the_scalar_walks(self, first_wins):
        from repro.telemetry.vector import VectorTelemetry

        config = AdaptiveSearchConfig(max_iterations=2000)
        sink = RingBufferSink(capacity=100_000)
        telemetry = VectorTelemetry(
            Recorder(enabled=True, sinks=[sink]),
            trace_id="t",
            job_id=3,
            walk_ids=self.WALK_IDS,
            milestone_every=self.EVERY,
        )
        engine = VectorWalkEngine(
            magic(5),
            k=len(self.SEEDS),
            config=config,
            seeds=self.SEEDS,
            first_wins=first_wins,
            round_callback=telemetry.round_callback,
        )
        telemetry.on_start(engine)
        outcome = engine.run()
        telemetry.on_finish(outcome)

        traces, scalars = scalar_witnesses(lambda: magic(5), config, self.SEEDS)
        final = [walk.stats.iterations for walk in outcome.walks]
        if not first_wins:
            assert final == [s.stats.iterations for s in scalars]
        lane_of = {walk_id: lane for lane, walk_id in enumerate(self.WALK_IDS)}
        records = sink.records
        starts = [r for r in records if r["event"] == "walk_start"]
        assert [r["walk_id"] for r in starts] == self.WALK_IDS
        milestones = [r for r in records if r["event"] == "iteration"]
        expected = {
            (walk_id, at)
            for lane, walk_id in enumerate(self.WALK_IDS)
            for at in range(self.EVERY, final[lane] + 1, self.EVERY)
        }
        assert {(r["walk_id"], r["iteration"]) for r in milestones} == expected
        assert len(milestones) == len(expected)
        for record in milestones:
            assert record["job_id"] == 3 and record["trace_id"] == "t"
            trace = traces[lane_of[record["walk_id"]]]
            assert (record["cost"], record["best_cost"]) == trace.after[
                record["iteration"]
            ]
        finishes = [r for r in records if r["event"] == "walk_finish"]
        assert [r["walk_id"] for r in finishes] == self.WALK_IDS
        for lane, record in enumerate(finishes):
            walk = outcome.walks[lane]
            assert record["iterations"] == final[lane]
            assert record["solved"] == walk.solved
            assert record["cost"] == walk.cost
        registry = telemetry.recorder.registry
        assert registry.counter("vector.rounds").value == engine.rounds
        assert registry.counter("vector.lane_iterations").value == sum(final)
        assert registry.counter("vector.lanes").value == len(self.SEEDS)
