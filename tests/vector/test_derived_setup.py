"""What a problem keeps for its next walk changes no walk.

``Problem.derived`` holds what solvers derive from an instance once: the
merged configuration (``AdaptiveSearchConfig.for_problem``, one entry keyed
by the base configuration's identity) and, where ``lanes.c`` is loaded, the
compiled lane layout with its block words (one entry keyed by
configuration and width).  Every case below shares one instance between
walks that run at once — nested, on two threads, after a pickle round trip,
under a replaced base configuration — and holds each walk, field for field
and with its generator's end state, to the same walk on an instance nobody
else touched.
"""

import pickle
import threading

import numpy as np
import pytest

from repro.core.config import AdaptiveSearchConfig
from repro.core.solver import AdaptiveSearch
from repro.problems import make_problem
from repro.vector import lane_kernel
from repro.vector.engine import VectorWalkEngine
from repro.vector.problems import CompiledLanes
from tests.vector.test_equivalence import assert_walks_equal

FAMILIES = [
    ("magic_square", 6), ("costas", 11), ("all_interval", 12),
    ("magic_square_model", 4),
]
SHORT = AdaptiveSearchConfig(max_iterations=400)
CHURN = AdaptiveSearchConfig(
    reset_limit=1, restart_limit=60, freeze_swap=2,
    plateau_is_local_min=False, max_iterations=300, max_restarts=3,
)


def generators(seeds):
    return [np.random.default_rng(seed) for seed in seeds]


def ended(streams):
    return [stream.bit_generator.state for stream in streams]


def alone(family, n, config, seeds):
    """The reference: one lane per seed on a fresh instance, through the
    engine when there are several and through ``solve`` for one — the walks
    and where each generator ended."""
    streams = generators(seeds)
    problem = make_problem(family, n=n)
    if len(seeds) == 1:
        walks = [AdaptiveSearch(config).solve(problem, streams[0])]
    else:
        engine = VectorWalkEngine(problem, len(seeds), config, seeds=streams)
        walks = engine.run().walks
    return walks, ended(streams)


def assert_alone(reference, walks, streams, context):
    expected, states = reference
    assert len(walks) == len(expected), context
    for lane, (a, b) in enumerate(zip(expected, walks)):
        assert_walks_equal(a, b, f"{context} lane={lane}")
    assert ended(streams) == states, context


@pytest.mark.parametrize("family,n", FAMILIES)
@pytest.mark.parametrize("outer_k", [1, 3])
def test_two_engines_of_one_problem_alive_at_once(family, n, outer_k):
    """A one-lane walk and a three-lane batch of one instance, each with its
    own configuration: the inner one is built before the outer runs and
    runs whole inside the outer's first round."""
    problem = make_problem(family, n=n)
    inner_k = 4 - outer_k
    outer_config, inner_config = (
        (SHORT, CHURN) if outer_k == 1 else (CHURN, SHORT)
    )
    outer_seeds = tuple(11 + lane for lane in range(outer_k))
    inner_seeds = tuple(21 + lane for lane in range(inner_k))
    outer_streams = generators(outer_seeds)
    inner_streams = generators(inner_seeds)
    inner = VectorWalkEngine(
        problem, inner_k, inner_config, seeds=inner_streams
    )
    ran = []

    def run_the_other(engine):
        if not ran:
            ran.append(inner.run().walks)

    outer = VectorWalkEngine(
        problem, outer_k, outer_config, seeds=outer_streams,
        round_callback=run_the_other,
    )
    walks = outer.run().walks
    assert ran, "the outer batch ended before its first round"
    assert_alone(
        alone(family, n, outer_config, outer_seeds), walks, outer_streams,
        f"outer k={outer_k}",
    )
    assert_alone(
        alone(family, n, inner_config, inner_seeds), ran[0], inner_streams,
        f"inner k={inner_k}",
    )
    if lane_kernel(problem) == "compiled":  # the layout was shared
        assert CompiledLanes in problem.derived
        assert isinstance(outer.vp, CompiledLanes)


@pytest.mark.parametrize("family,n", [("magic_square", 12), ("costas", 13)])
def test_two_threads_run_engines_of_one_problem_at_once(family, n):
    """``lanes_run`` releases the GIL: two threads derive the set-up of a
    fresh instance at once, then walk it at once, with two
    configurations."""
    budget = AdaptiveSearchConfig(max_iterations=4000)
    plans = {"one": (budget, (31,)), "three": (CHURN, (41, 42, 43))}
    for _ in range(3):
        problem = make_problem(family, n=n)
        barrier = threading.Barrier(len(plans))
        results, errors = {}, []

        def walk(name, config, seeds):
            try:
                streams = generators(seeds)
                barrier.wait()
                if len(seeds) == 1:
                    walks = [AdaptiveSearch(config).solve(problem, streams[0])]
                else:
                    engine = VectorWalkEngine(
                        problem, len(seeds), config, seeds=streams
                    )
                    walks = engine.run().walks
                results[name] = walks, streams
            except BaseException as err:  # handed to the main thread
                errors.append(err)

        threads = [
            threading.Thread(target=walk, args=(name, *plan))
            for name, plan in plans.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        for name, (config, seeds) in plans.items():
            assert_alone(
                alone(family, n, config, seeds), *results[name], name
            )


@pytest.mark.parametrize("family,n", FAMILIES)
def test_a_problem_pickled_after_a_solve_carries_no_set_up(family, n):
    problem = make_problem(family, n=n)
    before = pickle.dumps(problem)
    first = AdaptiveSearch(SHORT).solve(problem, np.random.default_rng(5))
    assert AdaptiveSearchConfig in problem.derived
    assert pickle.dumps(problem) == before
    copy = pickle.loads(pickle.dumps(problem))
    assert "derived" not in vars(copy)
    stream = np.random.default_rng(5)
    again = AdaptiveSearch(SHORT).solve(copy, stream)
    assert_walks_equal(first, again, "unpickled")
    assert_alone(alone(family, n, SHORT, (5,)), [again], [stream], "unpickled")


@pytest.mark.parametrize("family,n", FAMILIES)
def test_a_replaced_base_configuration_is_the_next_walks(family, n):
    problem = make_problem(family, n=n)
    solver = AdaptiveSearch(SHORT)
    solver.solve(problem, 3)
    solver.base_config = CHURN
    assert solver.effective_config(problem) == CHURN.merged_with(
        problem.default_solver_parameters()
    )
    stream = np.random.default_rng(3)
    walk = solver.solve(problem, stream)
    assert_alone(alone(family, n, CHURN, (3,)), [walk], [stream], "replaced")
    # and back, through an equal configuration that is another object
    solver.base_config = AdaptiveSearchConfig(max_iterations=400)
    stream = np.random.default_rng(3)
    walk = solver.solve(problem, stream)
    assert_alone(alone(family, n, SHORT, (3,)), [walk], [stream], "restored")
