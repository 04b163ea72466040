"""A pool's workers die of SIGTERM, whatever handler their parent had.

The long-running CLI commands turn SIGTERM / SIGINT into
``KeyboardInterrupt`` (``repro.cli._forward_termination_signals``).  A pool
forked while that handler is installed must not inherit it: a worker
resets both signals to their defaults first thing, and the pool blocks them
across the fork so that none lands during the child's start-up.  And the
handler itself lasts as long as its command, no longer.
"""

import signal

import pytest

from repro import cli
from repro.problems import CostasProblem
from repro.service import WorkerPool


def handlers():
    return signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGINT)


@pytest.mark.slow
def test_workers_forked_under_the_cli_handler_die_of_sigterm():
    found = handlers()
    with cli._forward_termination_signals():
        assert handlers() != found
        with WorkerPool(1) as pool:
            pool.register_problem(CostasProblem(7))
            for attempt in range(20):
                # at once: the signal lands while the child is starting up
                victim = pool._workers[0].process
                victim.terminate()
                victim.join(timeout=10.0)
                assert not victim.is_alive(), attempt
                assert victim.exitcode == -signal.SIGTERM, attempt
                pool.respawn(0)
    assert handlers() == found


@pytest.mark.slow
def test_the_service_verb_leaves_the_handlers_as_it_found_them():
    found = handlers()
    code = cli.main(
        ["service", "--family", "costas", "--set", "n=8", "--jobs", "1",
         "--walkers", "2", "--seed", "1", "--workers", "1"]
    )
    assert code == 0
    assert handlers() == found
