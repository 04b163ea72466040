"""``AdaptiveSearch.solve`` has two engines and one walk.

Where ``lanes.c`` is loaded and has the problem's kernels ``solve`` runs
the walk as a one-lane batch of :class:`~repro.vector.engine.VectorWalkEngine`;
everywhere else it steps :class:`~repro.core.session.AdaptiveSearchSession`.
Nothing a caller passes selects between them, so everything a caller can
pass — observers, a cancelling observer, a pinned first start, a ready
generator — must give the lane exactly what it gives the session
(``tests/conftest.py::session_walk``, the independent witness).
"""

import dataclasses

import numpy as np
import pytest

import repro.vector
from repro import AdaptiveSearch, AdaptiveSearchConfig, make_problem
from repro.core import session as session_module
from repro.core.termination import TerminationReason
from repro.errors import ProblemError
from repro.vector import lane_kernel
from tests.conftest import WalkRecorder, session_walk

SHAPES = [("costas", 10), ("all_interval", 12), ("magic_square", 5)]
CONFIGS = {
    # partial resets every few iterations, plateau moves, swap marks
    "reset_heavy": AdaptiveSearchConfig(
        reset_limit=1, freeze_swap=2, plateau_is_local_min=False,
        max_iterations=300,
    ),
    # a restart every 25 iterations until they run out
    "restart_heavy": AdaptiveSearchConfig(
        restart_limit=25, max_restarts=5, reset_limit=2, max_iterations=300,
    ),
    # every variable frozen at once: iterations that select nothing
    "all_frozen": AdaptiveSearchConfig(
        freeze_loc_min=40, reset_limit=10**6, prob_select_loc_min=0.0,
        max_iterations=150,
    ),
}
SEEDS = [0, 1, 2]

needs_compiled = pytest.mark.skipif(
    lane_kernel(make_problem("costas", n=6)) != "compiled",
    reason="without lanes.c solve steps the session: nothing to compare",
)


def assert_same_walk(lane, witness, context=""):
    assert lane.reason == witness.reason, context
    assert lane.solved == witness.solved and lane.cost == witness.cost, context
    assert np.array_equal(lane.config, witness.config), context
    assert lane.stats == dataclasses.replace(
        witness.stats, wall_time=lane.stats.wall_time
    ), context
    assert lane.solver_name == witness.solver_name == "adaptive_search"
    assert lane.problem_name == witness.problem_name


class EngineSpy:
    """Stands where ``solve`` looks the lane engine up; counts the builds."""

    def __init__(self, monkeypatch):
        self.widths = []
        plain = repro.vector.VectorWalkEngine
        spy = self

        class Spied(plain):
            def __init__(self, problem, k, *args, **kwargs):
                spy.widths.append(k)
                super().__init__(problem, k, *args, **kwargs)

        monkeypatch.setattr(repro.vector, "VectorWalkEngine", Spied)


class TestTheOneDecision:
    @needs_compiled
    @pytest.mark.parametrize("family,n", SHAPES + [("costas", 34)])
    def test_a_compiled_family_runs_as_one_lane(self, monkeypatch, family, n):
        spy = EngineSpy(monkeypatch)
        config = AdaptiveSearchConfig(max_iterations=50)
        result = AdaptiveSearch(config).solve(make_problem(family, n=n), seed=1)
        assert spy.widths == [1]
        assert result.solver_name == "adaptive_search"

    @pytest.mark.parametrize(
        "family,params",
        [("magic_square_model", {"n": 4}), ("queens", {"n": 12})],
    )
    def test_every_other_problem_steps_the_session(
        self, monkeypatch, family, params
    ):
        spy = EngineSpy(monkeypatch)
        runs = []
        plain = session_module.AdaptiveSearchSession.run

        def run(self):
            runs.append(self.problem.name)
            return plain(self)

        monkeypatch.setattr(session_module.AdaptiveSearchSession, "run", run)
        problem = make_problem(family, **params)
        result = AdaptiveSearch().solve(problem, seed=2)
        assert result.solved and runs == [problem.name] and spy.widths == []

    @needs_compiled
    def test_nothing_the_caller_passes_moves_it(self, monkeypatch):
        spy = EngineSpy(monkeypatch)
        problem = make_problem("costas", n=8)
        solver = AdaptiveSearch(AdaptiveSearchConfig(max_iterations=20))
        solver.solve(problem)
        solver.solve(problem, seed=np.random.default_rng(3))
        solver.solve(problem, seed=np.random.SeedSequence(3))
        solver.solve(problem, seed=3, callbacks=[WalkRecorder()])
        solver.solve(
            problem, seed=3,
            initial_configuration=problem.random_configuration(9),
        )
        assert spy.widths == [1] * 5


@needs_compiled
class TestTheLaneIsTheSessionsWalk:
    @pytest.mark.parametrize("family,n", SHAPES)
    @pytest.mark.parametrize("label", sorted(CONFIGS))
    def test_an_observer_sees_the_sessions_stream(self, family, n, label):
        config = CONFIGS[label]
        problem = make_problem(family, n=n)
        kinds = set()
        for seed in SEEDS:
            on_lane, on_session = WalkRecorder(), WalkRecorder()
            lane = AdaptiveSearch(config).solve(
                problem, seed=seed, callbacks=[on_lane]
            )
            witness = session_walk(
                config, problem, seed, callbacks=[on_session]
            )
            context = f"{label} {family} seed {seed}"
            assert on_lane.events == on_session.events, context
            assert_same_walk(lane, witness, context)
            assert on_lane.count("iteration") <= lane.stats.iterations
            kinds.update(event[0] for event in on_lane.events)
        # the configuration does reach what it is here to reach
        wanted = {"start", "iteration", "finish"}
        wanted.add("restart" if label == "restart_heavy" else "reset")
        assert wanted <= kinds

    def test_a_frozen_solid_iteration_is_reported_by_neither(self):
        problem = make_problem("costas", n=10)
        recorder = WalkRecorder()
        lane = AdaptiveSearch(CONFIGS["all_frozen"]).solve(
            problem, seed=1, callbacks=[recorder]
        )
        assert recorder.count("iteration") < lane.stats.iterations

    @pytest.mark.parametrize("family,n", SHAPES)
    @pytest.mark.parametrize("cancel_at", [1, 7, 40])
    def test_a_cancelling_observer_ends_both_at_its_iteration(
        self, family, n, cancel_at
    ):
        config = CONFIGS["reset_heavy"]
        problem = make_problem(family, n=n)
        on_lane = WalkRecorder(cancel_at=cancel_at)
        on_session = WalkRecorder(cancel_at=cancel_at)
        # a silent second member: everyone sees the iteration that cancels
        trailing = WalkRecorder()
        lane = AdaptiveSearch(config).solve(
            problem, seed=4, callbacks=[on_lane, trailing]
        )
        witness = session_walk(config, problem, 4, callbacks=[on_session])
        assert on_lane.events == on_session.events == trailing.events
        assert_same_walk(lane, witness)
        assert lane.reason is TerminationReason.CANCELLED and not lane.solved
        assert lane.stats.iterations == cancel_at
        assert on_lane.events[-1] == ("finish", False, lane.cost)

    @pytest.mark.parametrize("family,n", SHAPES)
    def test_a_pinned_first_start(self, family, n):
        config = CONFIGS["restart_heavy"]
        problem = make_problem(family, n=n)
        start = problem.random_configuration(77)
        kept = start.copy()
        on_lane, on_session = WalkRecorder(), WalkRecorder()
        lane = AdaptiveSearch(config).solve(
            problem, seed=6, callbacks=[on_lane],
            initial_configuration=start,
        )
        witness = session_walk(
            config, problem, 6, callbacks=[on_session],
            initial_configuration=start,
        )
        assert on_lane.events == on_session.events
        assert on_lane.events[0][:2] == ("start", kept.tolist())
        assert_same_walk(lane, witness)
        assert np.array_equal(start, kept)  # the caller's array is its own
        assert lane.stats.restarts > 0  # and restarts re-randomized

    def test_an_invalid_pinned_start_is_refused(self):
        problem = make_problem("costas", n=8)
        with pytest.raises(ProblemError):
            AdaptiveSearch().solve(
                problem, seed=1, initial_configuration=np.zeros(8, dtype=int)
            )
        with pytest.raises(ProblemError):
            AdaptiveSearch().solve(
                problem, seed=1, initial_configuration=np.arange(1, 8)
            )

    @pytest.mark.parametrize("family,n", SHAPES)
    def test_a_ready_generator_is_the_walks_stream(self, family, n):
        config = CONFIGS["reset_heavy"]
        problem = make_problem(family, n=n)
        for_lane, for_session = (np.random.default_rng(11) for _ in range(2))
        for_lane.random(3), for_session.random(3)  # not a fresh stream
        lane = AdaptiveSearch(config).solve(problem, seed=for_lane)
        witness = session_walk(config, problem, for_session)
        assert_same_walk(lane, witness)
        # draw for draw: both callers get their generator back where the
        # walk left it
        assert for_lane.bit_generator.state == for_session.bit_generator.state

    @pytest.mark.parametrize(
        "seed", [5, np.random.SeedSequence(5), np.random.SeedSequence(5).spawn(2)[1]]
    )
    def test_every_seed_type_gives_the_sessions_draws(self, seed):
        config = AdaptiveSearchConfig(max_iterations=400)
        problem = make_problem("all_interval", n=12)
        assert_same_walk(
            AdaptiveSearch(config).solve(problem, seed=seed),
            session_walk(config, problem, seed),
        )
