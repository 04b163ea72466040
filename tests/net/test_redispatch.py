"""Failure injection: node death, re-dispatch, and pending dispatch.

Node deaths are injected with seeded :mod:`repro.chaos` fault plans: a
``NodeFault("kill", after=...)`` makes the agent abort its TCP
connection with no goodbye at a planned time — indistinguishable from a
crashed host — so the coordinator's failure detector and re-dispatch
path run with no mocks, and the injection schedule is part of the test
instead of a sleep-then-kill race in the test body.  Each scenario gets
its own cluster (aggressive heartbeats, real pools).
"""

import multiprocessing as mp
import time

import pytest

from repro.chaos import FaultPlan, NodeFault
from repro.core.config import AdaptiveSearchConfig
from repro.net import LocalCluster
from repro.problems import make_problem
from repro.service import JobStatus

CFG = AdaptiveSearchConfig(max_iterations=100_000_000)

FAST_DETECT = dict(
    workers_per_node=1, heartbeat_interval=0.1, heartbeat_timeout=1.0
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
class TestNodeDeath:
    def test_kill_one_node_mid_job(self):
        """Acceptance scenario: one node dies mid-job; the job completes
        anyway via re-dispatch to the survivor."""
        plan = FaultPlan(
            [NodeFault("kill", node="node-0", after=0.5)],
            seed=0,
            name="kill-one",
        )
        with LocalCluster(n_nodes=2, chaos=plan, **FAST_DETECT) as cluster:
            client = cluster.client()
            problem = make_problem("magic_square", n=24)
            # a node's two walks advance together as lanes, so the job
            # lasts as long as its *fastest* walk: under seed 29 every walk
            # needs 1.1M+ iterations (≈ 3 s of compiled two-lane rounds at
            # ≈ 1.5 µs a lane-iteration, longer on the NumPy round), which
            # outlives the kill at 0.5s *and* its detection a heartbeat
            # timeout later with room to spare, whichever node runs which
            # two walks
            handle = client.submit(problem, 4, seed=29, config=CFG)
            result = handle.result(timeout=300)
            assert result.status is JobStatus.SOLVED
            assert problem.is_solution(result.config)
            assert result.redispatches >= 1
            assert result.winner_node == "node-1"
            assert cluster.live_node_names() == ["node-1"]
            stats = client.stats()
            assert stats["coordinator"]["nodes_lost"] == 1
            assert stats["coordinator"]["redispatches"] >= 1
        assert [e["action"] for e in plan.log if e["site"] == "node"] == [
            "kill"
        ]
        assert no_service_orphans()

    def test_kill_every_node_fails_loudly(self):
        plan = FaultPlan(
            [
                NodeFault("kill", node="node-0", after=0.3),
                NodeFault("kill", node="node-1", after=0.6),
            ],
            seed=0,
            name="kill-all",
        )
        with LocalCluster(n_nodes=2, chaos=plan, **FAST_DETECT) as cluster:
            client = cluster.client()
            problem = make_problem("magic_square", n=30)  # hours of work
            handle = client.submit(problem, 2, seed=0, config=CFG)
            result = handle.result(timeout=60)
            assert result.status is JobStatus.FAILED
            assert "no surviving nodes" in result.error
        assert no_service_orphans()

    def test_redispatch_budget_exhausted(self):
        """With max_redispatch=0 the first node death fails the job."""
        plan = FaultPlan(
            [NodeFault("kill", node="node-0", after=0.3)],
            seed=0,
            name="budget",
        )
        with LocalCluster(
            n_nodes=2, max_redispatch=0, chaos=plan, **FAST_DETECT
        ) as cluster:
            client = cluster.client()
            problem = make_problem("magic_square", n=30)
            handle = client.submit(problem, 2, seed=0, config=CFG)
            result = handle.result(timeout=60)
            assert result.status is JobStatus.FAILED
            assert "re-dispatch budget" in result.error
        assert no_service_orphans()


@pytest.mark.slow
class TestPendingDispatch:
    def test_job_waits_for_first_node(self):
        """A job submitted to an empty cluster queues, then dispatches as
        soon as the first node joins."""
        with LocalCluster(n_nodes=0, workers_per_node=1) as cluster:
            client = cluster.client()
            problem = make_problem("queens", n=20)
            handle = client.submit(problem, 2, seed=1, config=CFG)
            time.sleep(0.2)
            assert not handle.done()
            stats = client.stats()
            assert stats["coordinator"]["jobs_pending"] == 1
            assert stats["coordinator"]["nodes_connected"] == 0
            cluster.add_agent(name="late-joiner")
            result = handle.result(timeout=120)
            assert result.solved
            assert result.winner_node == "late-joiner"
            assert set(result.nodes.values()) == {"late-joiner"}
        assert no_service_orphans()
