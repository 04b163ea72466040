"""The chaos scenario matrix — every named drill must pass from seed 0.

This is the same matrix the CI ``chaos-smoke`` job replays
(``repro chaos all``): each scenario injects one failure mode into a
real in-process cluster and asserts the stack recovered per the failure
model in DESIGN.md.
"""

import multiprocessing as mp
import time

import pytest

from repro.chaos import (
    SCENARIO_NAMES,
    plan_from_dict,
    run_custom,
    run_scenario,
)


def no_service_orphans(grace: float = 15.0) -> bool:
    """True once every pool worker is gone (chaos-killed agents tear
    their pools down asynchronously, so allow a short wind-down)."""
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        if not [
            p
            for p in mp.active_children()
            if p.name.startswith("repro-service")
        ]:
            return True
        time.sleep(0.1)
    return False


@pytest.mark.slow
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_named_scenario_passes(name):
    report = run_scenario(name, seed=0)
    assert report.passed, report.summary()
    # at least one fault actually fired — a drill with no injection
    # would pass vacuously
    assert report.faults, report.summary()
    assert no_service_orphans()


@pytest.mark.slow
def test_custom_plan_from_json_dict():
    """The ``repro chaos --file`` path: an ad-hoc JSON plan runs against
    the standard workload and the job still reaches a terminal status."""
    plan = plan_from_dict(
        {
            "name": "json-kill",
            "seed": 5,
            "faults": [
                {
                    "kind": "node",
                    "action": "kill",
                    "node": "node-0",
                    "after": 0.2,
                }
            ],
        }
    )
    # the default order-10 square is solved (~20 ms on compiled lanes)
    # before the fault is due: an order the walks are still on at 0.2 s
    report = run_custom(plan, problem_size=24)
    assert report.passed, report.summary()
    assert [e["action"] for e in report.faults] == ["kill"]
    assert no_service_orphans()
