"""Tests for search callbacks."""

import dataclasses

import numpy as np
import pytest

from repro.core.callbacks import CallbackList, CostTraceCallback, IterationInfo


def info(iteration=1, cost=5.0) -> IterationInfo:
    return IterationInfo(
        iteration=iteration,
        cost=cost,
        best_cost=cost,
        selected_variable=0,
        selected_swap=1,
        delta=-1.0,
        restarts=0,
        resets=0,
    )


class Recorder:
    def __init__(self):
        self.events = []

    def on_start(self, config, cost):
        self.events.append(("start", cost))

    def on_iteration(self, it):
        self.events.append(("iter", it.iteration))

    def on_reset(self, iteration, cost):
        self.events.append(("reset", iteration))

    def on_restart(self, index, cost):
        self.events.append(("restart", index))

    def on_finish(self, solved, cost):
        self.events.append(("finish", solved))


class TestCallbackList:
    def test_fan_out(self):
        a, b = Recorder(), Recorder()
        cbs = CallbackList([a, b])
        cbs.on_start(np.array([0]), 3.0)
        cbs.on_iteration(info())
        cbs.on_finish(True, 0.0)
        assert a.events == b.events
        assert [e[0] for e in a.events] == ["start", "iter", "finish"]

    def test_missing_methods_skipped(self):
        class OnlyIteration:
            def on_iteration(self, it):
                return None

        cbs = CallbackList([OnlyIteration()])
        cbs.on_start(np.array([0]), 1.0)  # no crash
        assert cbs.on_iteration(info()) is True

    def test_cancellation_propagates(self):
        class Canceller:
            def on_iteration(self, it):
                return False

        cbs = CallbackList([Recorder(), Canceller()])
        assert cbs.on_iteration(info()) is False

    def test_none_return_continues(self):
        cbs = CallbackList([Recorder()])
        assert cbs.on_iteration(info()) is True

    def test_add(self):
        cbs = CallbackList()
        r = Recorder()
        cbs.add(r)
        cbs.on_reset(5, 1.0)
        assert r.events == [("reset", 5)]

    def test_hooks_are_looked_up_when_a_member_joins_not_per_call(self):
        lookups = []

        class Probed:
            def __getattr__(self, name):
                lookups.append(name)
                raise AttributeError(name)

        cbs = CallbackList([Probed()])
        cbs.add(Probed())
        joined = len(lookups)
        for _ in range(20):
            assert cbs.on_iteration(info()) is True
        cbs.on_reset(3, 1.0)
        assert len(lookups) == joined
        assert not cbs.observes_iterations

    def test_all_members_see_iteration_even_if_one_cancels(self):
        first = Recorder()

        class Canceller:
            def on_iteration(self, it):
                return False

        cbs = CallbackList([Canceller(), first])
        cbs.on_iteration(info())
        assert first.events == [("iter", 1)]


class TestCostTraceCallback:
    def test_records_start_and_iterations(self):
        trace = CostTraceCallback()
        trace.on_start(np.array([0]), 9.0)
        trace.on_iteration(info(iteration=1, cost=7.0))
        trace.on_iteration(info(iteration=2, cost=6.0))
        assert trace.trace == [(0, 9.0), (1, 7.0), (2, 6.0)]
        assert trace.costs() == [9.0, 7.0, 6.0]

    def test_every_parameter_subsamples(self):
        trace = CostTraceCallback(every=2)
        for it in range(1, 7):
            trace.on_iteration(info(iteration=it, cost=float(it)))
        assert [t for t, _ in trace.trace] == [2, 4, 6]

    def test_invalid_every(self):
        with pytest.raises(ValueError, match="every"):
            CostTraceCallback(every=0)


# what AdaptiveSearchSession handed an observer at the commit before the
# loop stopped building an IterationInfo per iteration (PR 17): magic
# square 4, seed 3, a configuration that resets, restarts and freezes
# within 40 iterations.  Fields in IterationInfo order.
RECORDED_CONFIG = dict(reset_limit=1, restart_limit=25, max_iterations=40)
RECORDED_STREAM = [
    (1, 38.0, 38.0, 9, 4, -12.0, 0, 0),
    (2, 35.0, 35.0, 3, 8, -3.0, 0, 0),
    (3, 38.0, 35.0, 3, 8, 3.0, 0, 0),
    (4, 26.0, 26.0, 9, 11, -12.0, 0, 0),
    (5, 19.0, 19.0, 9, 2, -7.0, 0, 0),
    (6, 17.0, 17.0, 9, 15, -2.0, 0, 0),
    (7, 17.0, 17.0, 9, 10, 0.0, 0, 0),
    (8, 24.0, 17.0, 12, -1, 0.0, 0, 1),
    (9, 21.0, 17.0, 3, 2, -3.0, 0, 1),
    (10, 21.0, 17.0, 10, -1, 0.0, 0, 1),
    (11, 25.0, 17.0, 3, -1, 0.0, 0, 2),
    (12, 25.0, 17.0, 3, -1, 0.0, 0, 2),
    (13, 22.0, 17.0, 9, 13, -3.0, 0, 2),
    (14, 16.0, 16.0, 2, 4, -6.0, 0, 2),
    (15, 14.0, 14.0, 7, 11, -2.0, 0, 2),
    (16, 8.0, 8.0, 15, 0, -6.0, 0, 2),
    (17, 7.0, 7.0, 9, 2, -1.0, 0, 2),
    (18, 7.0, 7.0, 9, -1, 0.0, 0, 2),
    (19, 3.0, 3.0, 15, 10, -4.0, 0, 2),
    (20, 8.0, 3.0, 3, 4, 5.0, 0, 2),
    (21, 9.0, 3.0, 6, 7, 1.0, 0, 2),
    (22, 8.0, 3.0, 7, 6, -1.0, 0, 2),
    (23, 9.0, 3.0, 7, 12, 1.0, 0, 2),
    (24, 43.0, 3.0, 9, -1, 0.0, 0, 3),
    (25, 35.0, 3.0, 9, 8, -8.0, 0, 3),
    (26, 72.0, 3.0, 0, 7, -22.0, 1, 3),
    (27, 41.0, 3.0, 10, 2, -31.0, 1, 3),
    (28, 33.0, 3.0, 15, 6, -8.0, 1, 3),
    (29, 29.0, 3.0, 15, 9, -4.0, 1, 3),
    (30, 29.0, 3.0, 15, 5, 0.0, 1, 3),
    (31, 27.0, 3.0, 5, 13, -2.0, 1, 3),
    (32, 15.0, 3.0, 5, 3, -12.0, 1, 3),
    (33, 9.0, 3.0, 5, 7, -6.0, 1, 3),
    (34, 11.0, 3.0, 12, 14, 2.0, 1, 3),
    (35, 8.0, 3.0, 6, 13, -3.0, 1, 3),
    (36, 8.0, 3.0, 4, 8, 0.0, 1, 3),
    (37, 53.0, 3.0, 13, -1, 0.0, 1, 4),
    (38, 17.0, 3.0, 10, 13, -36.0, 1, 4),
    (39, 8.0, 3.0, 12, 4, -9.0, 1, 4),
    (40, 6.0, 3.0, 12, 5, -2.0, 1, 4),
]


class TestSessionObservation:
    def test_one_observer_sees_the_recorded_stream(self):
        from repro import AdaptiveSearch, AdaptiveSearchConfig, make_problem

        seen = []

        class Observer:
            def on_iteration(self, it):
                seen.append(dataclasses.astuple(it))

        AdaptiveSearch(AdaptiveSearchConfig(**RECORDED_CONFIG)).solve(
            make_problem("magic_square", n=4), seed=3, callbacks=[Observer()]
        )
        assert seen == RECORDED_STREAM

    def test_unobserved_session_never_builds_an_iteration_info(
        self, monkeypatch
    ):
        from repro.core import session as session_module
        from repro.core.config import AdaptiveSearchConfig
        from repro.problems import CostasProblem

        built = []

        def counting_info(**fields):
            built.append(fields["iteration"])
            return IterationInfo(**fields)

        monkeypatch.setattr(session_module, "IterationInfo", counting_info)

        class ResetsOnly:  # an observer, but not of iterations
            def on_reset(self, iteration, cost):
                pass

        for callbacks in (None, [ResetsOnly()]):
            walk = session_module.AdaptiveSearchSession(
                CostasProblem(9), AdaptiveSearchConfig(), seed=1,
                callbacks=callbacks,
            )
            walk.step(50)
            assert walk.stats.iterations > 0 and built == []

        watched = session_module.AdaptiveSearchSession(
            CostasProblem(9), AdaptiveSearchConfig(), seed=1,
            callbacks=[ResetsOnly(), Recorder()],
        )
        watched.step(50)
        assert built == list(range(1, watched.stats.iterations + 1))
