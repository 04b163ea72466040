"""End-to-end distributed solving on an in-process localhost cluster.

One module-scoped 2-node cluster backs most tests (agent pools are real
processes; booting them per test would dominate runtime).  Failure
injection has its own clusters in ``test_redispatch.py``.
"""

import socket

import pytest

from repro.core.config import AdaptiveSearchConfig
from repro.errors import NetError
from repro.harness.runner import BenchmarkSpec, collect_samples
from repro.net import ClusterClient, LocalCluster, parse_address
from repro.net.client import NetJobHandle
from repro.net.protocol import Message, recv_message, send_message
from repro.parallel import MultiWalkSolver, solve_parallel
from repro.problems import make_problem
from repro.service import JobStatus

CFG = AdaptiveSearchConfig(max_iterations=500_000)


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(n_nodes=2, workers_per_node=1) as local:
        yield local


@pytest.fixture(scope="module")
def client(cluster):
    return cluster.client()


@pytest.mark.slow
class TestDistributedSolve:
    def test_solve_magic_square(self, client):
        problem = make_problem("magic_square", n=5)
        result = client.solve(problem, n_walkers=4, seed=11, config=CFG, timeout=120)
        assert result.status is JobStatus.SOLVED
        assert result.solved
        assert problem.is_solution(result.config)
        assert result.winner_node in ("node-0", "node-1")
        assert result.winner.walk_id in range(4)
        assert result.nodes[result.winner.walk_id] == result.winner_node

    def test_winner_trajectory_matches_single_host(self, client):
        """Walk i on the cluster is the same trajectory as walk i inline."""
        problem = make_problem("queens", n=30)
        seed = 4242
        net = client.solve(problem, n_walkers=3, seed=seed, config=CFG, timeout=120)
        assert net.solved
        inline = MultiWalkSolver(CFG, executor="inline").solve(
            problem, 3, seed=seed
        )
        by_id = {w.walk_id: w for w in inline.walks}
        winner = net.winner
        assert by_id[winner.walk_id].iterations == winner.iterations
        assert by_id[winner.walk_id].solved == winner.solved

    def test_unsolved_aggregates_every_walk(self, client):
        problem = make_problem("magic_square", n=12)
        tiny = AdaptiveSearchConfig(max_iterations=5)
        result = client.solve(problem, n_walkers=4, seed=1, config=tiny, timeout=120)
        assert result.status is JobStatus.UNSOLVED
        assert not result.solved
        assert len(result.walks) == 4
        assert sorted(w.walk_id for w in result.walks) == [0, 1, 2, 3]
        # both nodes did work (round-robin split of 4 walks over 2 nodes)
        assert set(result.nodes.values()) == {"node-0", "node-1"}

    def test_concurrent_jobs(self, client):
        problem = make_problem("queens", n=20)
        handles = [
            client.submit(problem, 2, seed=s, config=CFG) for s in range(4)
        ]
        results = [h.result(timeout=120) for h in handles]
        assert all(r.solved for r in results)
        assert len({r.job_id for r in results}) == 4

    def test_stats_frame(self, cluster, client):
        stats = client.stats()
        coord = stats["coordinator"]
        assert coord["jobs_submitted"] >= 1
        assert coord["nodes_connected"] == 2
        names = {node["name"] for node in stats["nodes"]}
        assert names == {"node-0", "node-1"}
        for node in stats["nodes"]:
            assert node["capacity"] == 1
            # heartbeat load is the node service's MetricsSnapshot.to_json()
            assert "walks_completed" in node["load"]
            assert "latency_p95" in node["load"]


@pytest.mark.slow
class TestNetExecutor:
    def test_multiwalk_solver_net(self, cluster, client):
        problem = make_problem("queens", n=25)
        solver = MultiWalkSolver(CFG, executor="net", cluster=client)
        result = solver.solve(problem, 4, seed=5)
        assert result.solved
        assert result.executor == "net"
        assert problem.is_solution(result.config)
        assert result.n_walkers == 4

    def test_net_executor_accepts_address(self, cluster):
        host, port = cluster.address
        problem = make_problem("queens", n=20)
        result = solve_parallel(
            problem, 2, seed=9, config=CFG, executor="net",
            cluster=f"{host}:{port}",
        )
        assert result.solved

    def test_same_quality_as_process_executor(self, cluster, client):
        """Acceptance: localhost 2-node solve == executor="process" quality
        for the same job seed (both solve, both reach cost 0, and the
        winning configuration passes the problem validator)."""
        problem = make_problem("magic_square", n=6)
        seed = 77
        net = MultiWalkSolver(CFG, executor="net", cluster=client).solve(
            problem, 4, seed=seed
        )
        process = MultiWalkSolver(CFG, executor="process").solve(
            problem, 4, seed=seed
        )
        assert net.solved == process.solved == True  # noqa: E712
        assert problem.cost(net.config) == problem.cost(process.config) == 0
        assert problem.is_solution(net.config)

    def test_executor_requires_cluster_argument(self):
        with pytest.raises(Exception, match="cluster"):
            MultiWalkSolver(executor="net")


@pytest.mark.slow
class TestClusterSampling:
    def test_collect_samples_matches_sequential_iterations(self, cluster, client):
        """Cluster-collected samples are bit-identical in iteration counts
        to the sequential path (executor-agnostic sample cache)."""
        spec = BenchmarkSpec("queens", {"n": 16})
        sequential = collect_samples(spec, 6, seed=3, solver_config=CFG)
        clustered = collect_samples(
            spec, 6, seed=3, solver_config=CFG, cluster=client
        )
        assert [s.iterations for s in clustered] == [
            s.iterations for s in sequential
        ]
        assert [s.solved for s in clustered] == [s.solved for s in sequential]

    def test_service_and_cluster_are_exclusive(self, client):
        spec = BenchmarkSpec("queens", {"n": 8})
        with pytest.raises(Exception, match="only one of"):
            collect_samples(spec, 2, service=object(), cluster=client)


class TestHandshake:
    def test_protocol_version_mismatch_rejected(self, cluster):
        sock = socket.create_connection(cluster.address, timeout=10)
        try:
            send_message(
                sock,
                Message("hello", {"role": "client", "protocol": 999}),
            )
            reply = recv_message(sock)
            assert reply is not None
            assert reply.type == "reject"
            assert "mismatch" in reply["error"]
        finally:
            sock.close()

    def test_client_surfaces_rejection(self, cluster, monkeypatch):
        monkeypatch.setattr("repro.net.client.PROTOCOL_VERSION", 999)
        with pytest.raises(NetError, match="rejected"):
            ClusterClient(cluster.address).connect()

    def test_connection_refused_is_a_named_error(self):
        # grab a port the OS just released so the connect is refused,
        # not swallowed by a stray listener
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(NetError, match="cannot reach coordinator"):
            ClusterClient(("127.0.0.1", dead_port)).connect()


class TestParseAddress:
    def test_host_port_string(self):
        assert parse_address("example.org:7710") == ("example.org", 7710)

    def test_tuple_passthrough(self):
        assert parse_address(("127.0.0.1", 80)) == ("127.0.0.1", 80)

    def test_rejects_garbage(self):
        with pytest.raises(NetError, match="host:port"):
            parse_address("no-port-here")
        with pytest.raises(NetError, match="not a cluster address"):
            parse_address(12345)


class TestJobHandleDoneCallback:
    def test_fires_once_on_failure_from_the_finishing_thread(self):
        handle = NetJobHandle(0)
        seen = []
        handle.set_done_callback(seen.append)
        assert seen == []
        handle._fail("client closed")
        assert seen == [handle]
        with pytest.raises(NetError, match="client closed"):
            handle.result(timeout=0)

    def test_fires_immediately_when_already_done(self):
        handle = NetJobHandle(0)
        handle._fail("gone")
        seen = []
        handle.set_done_callback(seen.append)
        assert seen == [handle]
