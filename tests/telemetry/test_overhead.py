"""Overhead guard: telemetry OFF must cost nothing, by construction.

With the default (disabled) recorder ``solver_callbacks`` contributes *no*
callbacks, and a walk nobody observes builds no ``IterationInfo`` — on the
session (``tests/core/test_callbacks.py``) and on a lane (here) — so the hot
loop runs the instruction stream it ran before the telemetry subsystem
existed.

What that costs in time is not asserted here: a wall-clock ratio of a few
repetitions is noisier than any threshold worth setting.  It is measured
where ten interleaved pairs measure it, by the e2e benchmark's
``telemetry.overhead_share.served_dispatch``.
"""

from repro.core.callbacks import IterationInfo
from repro.core.config import AdaptiveSearchConfig
from repro.parallel import solve_parallel
from repro.problems import make_problem
from repro.telemetry.recorder import get_recorder
from repro.telemetry.solver import solver_callbacks
from repro.vector import engine as engine_module


def test_disabled_recorder_contributes_no_callbacks():
    assert get_recorder().enabled is False
    assert solver_callbacks() == []


def test_unobserved_lane_walk_never_builds_an_iteration_info(monkeypatch):
    built, reports = [], []

    def counting_info(**fields):
        built.append(fields["iteration"])
        return IterationInfo(**fields)

    plain = engine_module.VectorWalkEngine._report_iterations

    def report(self):
        reports.append(self.rounds)
        return plain(self)

    monkeypatch.setattr(engine_module, "IterationInfo", counting_info)
    monkeypatch.setattr(
        engine_module.VectorWalkEngine, "_report_iterations", report
    )
    config = AdaptiveSearchConfig(max_iterations=50)
    problem = make_problem("costas", n=9)

    def lane(callbacks):
        return engine_module.VectorWalkEngine(
            problem, 1, config, seeds=[1], callbacks=callbacks
        ).run().walks[0]

    class ResetsOnly:  # an observer, but not of iterations
        def on_reset(self, iteration, cost):
            pass

    class Watcher:
        def on_iteration(self, info):
            pass

    # telemetry off: the executors hand ``solve`` no observer, and a round
    # with no observer does not even ask who is listening
    result = solve_parallel(problem, 1, seed=1, config=config, executor="inline")
    assert result.walks[0].iterations > 0
    for callbacks in (None, [None], [[]]):
        assert lane(callbacks).stats.iterations > 0
    assert lane([[ResetsOnly()]]).stats.iterations > 0
    assert built == [] and reports == []

    watched = lane([[ResetsOnly(), Watcher()]])
    assert built == list(range(1, watched.stats.iterations + 1))
