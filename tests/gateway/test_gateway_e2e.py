"""End-to-end gateway tests over a real in-process cluster.

One module-scoped ``LocalCluster`` + ``LocalGateway`` pair backs every
test (booting real worker pools per test would dominate runtime).  The
HTTP client is the stdlib ``http.client`` — the same closed-loop client
the gateway bench uses.
"""

import base64
import json
import os
import socket
import struct
import sys
import time

import http.client

import pytest

from repro.gateway import Tenant, TenantRegistry
from repro.gateway.testing import LocalGateway
from repro.net import LocalCluster
from repro.net.client import NetJobHandle


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(n_nodes=1, workers_per_node=2) as local:
        yield local


@pytest.fixture(scope="module")
def gateway(cluster):
    tenants = TenantRegistry(
        [
            Tenant("alice", "k-alice", priority_class="premium"),
            Tenant("bob", "k-bob", priority_class="standard"),
            # one token, then a ~17-minute refill: deterministic 429s
            Tenant("slow", "k-slow", rate=0.001, burst=1.0),
        ]
    )
    with LocalGateway(cluster.address, tenants, progress_interval=0.1) as gw:
        yield gw


@pytest.fixture()
def conn(gateway):
    host, port = gateway.address
    connection = http.client.HTTPConnection(host, port, timeout=60)
    yield connection
    connection.close()


def call(conn, method, path, body=None, key=None):
    headers = {}
    if body is not None:
        body = json.dumps(body)
        headers["Content-Type"] = "application/json"
    if key is not None:
        headers["X-API-Key"] = key
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    payload = response.read()
    return response, json.loads(payload) if payload else None


def wait_finished(conn, job_id, key, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        response, snap = call(conn, "GET", f"/v1/jobs/{job_id}", key=key)
        assert response.status == 200
        if snap["status"] not in ("queued", "running"):
            return snap
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


def metric(conn, name):
    conn.request("GET", "/metrics")
    response = conn.getresponse()
    text = response.read().decode()
    assert response.status == 200
    for line in text.splitlines():
        if line.startswith(f"{name} "):
            return float(line.split()[1])
    return 0.0


@pytest.mark.slow
class TestGatewayEndToEnd:
    def test_healthz_is_unauthenticated(self, conn):
        response, body = call(conn, "GET", "/healthz")
        assert response.status == 200
        assert body["status"] == "ok"
        assert "costas" in body["problems"]

    def test_job_endpoints_require_a_key(self, conn):
        response, body = call(
            conn, "POST", "/v1/jobs", body={"problem": "costas"}
        )
        assert response.status == 401
        response, _ = call(
            conn, "POST", "/v1/jobs", body={"problem": "costas"}, key="wrong"
        )
        assert response.status == 401

    def test_submit_poll_result(self, conn):
        response, sub = call(
            conn,
            "POST",
            "/v1/jobs",
            body={
                "problem": "costas",
                "params": {"n": 7},
                "n_walkers": 2,
                "seed": 11,
            },
            key="k-alice",
        )
        assert response.status == 202
        assert sub["status"] in ("queued", "running")
        assert sub["priority"] == 2  # premium
        snap = wait_finished(conn, sub["job_id"], "k-alice")
        assert snap["status"] == "solved"
        result = snap["result"]
        assert result["solved"] is True
        assert result["winner"]["walk_id"] in (0, 1)
        assert len(result["solution"]) == 7

    def test_jobs_invisible_across_tenants(self, conn):
        _, sub = call(
            conn,
            "POST",
            "/v1/jobs",
            body={"problem": "costas", "params": {"n": 6}, "seed": 21,
                  "n_walkers": 1},
            key="k-alice",
        )
        response, _ = call(
            conn, "GET", f"/v1/jobs/{sub['job_id']}", key="k-bob"
        )
        assert response.status == 404  # not-yours == does-not-exist
        response, _ = call(conn, "GET", "/v1/jobs/deadbeef", key="k-alice")
        assert response.status == 404

    def test_rate_limit_answers_429_with_retry_after(self, conn):
        body = {
            "problem": "costas",
            "params": {"n": 6},
            "n_walkers": 1,
            "seed": 31,
        }
        response, _ = call(conn, "POST", "/v1/jobs", body=body, key="k-slow")
        assert response.status in (200, 202)
        response, payload = call(
            conn, "POST", "/v1/jobs", body=body, key="k-slow"
        )
        assert response.status == 429
        assert int(response.getheader("Retry-After")) >= 1
        assert "rate" in payload["error"]

    def test_identical_submissions_coalesce_across_tenants(self, conn):
        """The satellite contract: two tenants, one cluster job, both get
        the result."""
        submitted_before = metric(conn, "gateway_jobs_submitted_total")
        body = {
            "problem": "magic_square",
            "params": {"n": 6},
            "n_walkers": 2,
            "seed": 41,
        }
        r1, first = call(conn, "POST", "/v1/jobs", body=body, key="k-alice")
        assert r1.status == 202
        r2, second = call(conn, "POST", "/v1/jobs", body=body, key="k-bob")
        if r2.status == 202 and second.get("deduped"):
            assert second["job_id"] == first["job_id"]
        else:
            # the first job finished before the second arrived: the
            # result cache must have answered instead of re-running
            assert r2.status == 200 and second.get("cached")
        alice = wait_finished(conn, first["job_id"], "k-alice")
        bob = wait_finished(conn, second["job_id"], "k-bob")
        assert alice["result"] == bob["result"]
        assert alice["result"]["solved"] is True
        # exactly one cluster submission between the two requests
        assert metric(conn, "gateway_jobs_submitted_total") == (
            submitted_before + 1
        )

    def test_completed_result_cache_hit(self, conn):
        body = {
            "problem": "costas",
            "params": {"n": 7},
            "n_walkers": 2,
            "seed": 51,
        }
        _, sub = call(conn, "POST", "/v1/jobs", body=body, key="k-alice")
        wait_finished(conn, sub["job_id"], "k-alice")
        hits_before = metric(conn, "gateway_cache_hits_total")
        response, again = call(conn, "POST", "/v1/jobs", body=body, key="k-bob")
        assert response.status == 200
        assert again["cached"] is True
        assert again["result"]["solved"] is True
        assert again["job_id"] != sub["job_id"]  # fresh gateway job record
        assert metric(conn, "gateway_cache_hits_total") == hits_before + 1

    def test_param_order_hits_the_same_cache_entry(self, conn):
        a = {
            "problem": "langford",
            "params": {"n": 8, "s": 2},
            "n_walkers": 1,
            "seed": 61,
        }
        _, sub = call(conn, "POST", "/v1/jobs", body=a, key="k-alice")
        wait_finished(conn, sub["job_id"], "k-alice")
        b = dict(a, params={"s": 2, "n": 8})  # reordered params
        response, again = call(conn, "POST", "/v1/jobs", body=b, key="k-alice")
        assert response.status == 200
        assert again["cached"] is True

    def test_overload_sheds_with_429(self, gateway, conn):
        admission = gateway.gateway.admission
        saved = admission.inflight
        admission.inflight = admission.limit_for(2)
        try:
            response, payload = call(
                conn,
                "POST",
                "/v1/jobs",
                body={
                    "problem": "costas",
                    "params": {"n": 6},
                    "n_walkers": 1,
                    "seed": 71,
                },
                key="k-alice",
            )
            assert response.status == 429
            assert int(response.getheader("Retry-After")) >= 1
            assert "capacity" in payload["error"]
        finally:
            admission.inflight = saved

    def test_cancel_is_gateway_side(self, conn):
        _, sub = call(
            conn,
            "POST",
            "/v1/jobs",
            body={
                "problem": "magic_square",
                "params": {"n": 14},
                "n_walkers": 1,
                "seed": 81,
                "deadline": 5.0,
            },
            key="k-alice",
        )
        response, snap = call(
            conn, "DELETE", f"/v1/jobs/{sub['job_id']}", key="k-alice"
        )
        assert response.status == 200
        assert snap["status"] == "cancelled"
        response, snap = call(
            conn, "GET", f"/v1/jobs/{sub['job_id']}", key="k-alice"
        )
        assert snap["status"] == "cancelled"

    def test_planned_walker_count_when_unspecified(self, conn):
        response, sub = call(
            conn,
            "POST",
            "/v1/jobs",
            body={"problem": "costas", "params": {"n": 6}, "seed": 91},
            key="k-alice",
        )
        assert response.status in (200, 202)
        assert sub.get("planned", False) or sub.get("cached", False)
        assert sub["n_walkers"] >= 1

    def test_bad_submissions_answer_400(self, conn):
        cases = [
            {"params": {"n": 6}},  # no problem name
            {"problem": "no_such_family", "params": {}},
            {"problem": "costas", "params": {"n": 6}, "n_walkers": 0},
            {"problem": "costas", "params": {"n": 6}, "n_walkers": 100000},
            {"problem": "costas", "params": {"bogus_param": 1}},
            {"problem": "costas", "config": {"bogus_field": 1}},
            {"problem": "costas", "seed": "not-an-int"},
        ]
        for body in cases:
            response, payload = call(
                conn, "POST", "/v1/jobs", body=body, key="k-alice"
            )
            assert response.status == 400, body
            assert "error" in payload

    def test_websocket_streams_job_events(self, gateway, conn):
        _, sub = call(
            conn,
            "POST",
            "/v1/jobs",
            body={
                "problem": "costas",
                "params": {"n": 7},
                "n_walkers": 2,
                "seed": 101,
            },
            key="k-alice",
        )
        events = self._read_ws_events(
            gateway.address, sub["job_id"], "k-alice"
        )
        names = [event["event"] for event in events]
        assert names[0] == "queued"
        assert "dispatched" in names
        assert names[-1] == "solved"
        assert all(event["job_id"] == sub["job_id"] for event in events)

    def test_events_endpoint_without_upgrade_is_426(self, conn):
        _, sub = call(
            conn,
            "POST",
            "/v1/jobs",
            body={"problem": "costas", "params": {"n": 6}, "seed": 111,
                  "n_walkers": 1},
            key="k-alice",
        )
        response, _ = call(
            conn, "GET", f"/v1/jobs/{sub['job_id']}/events", key="k-alice"
        )
        assert response.status == 426

    # ------------------------------------------------------------------
    @staticmethod
    def _read_ws_events(address, job_id, key, timeout=120.0):
        """A minimal raw-socket WebSocket client: upgrade, then read
        unmasked server text frames until the close frame."""
        host, port = address
        nonce = base64.b64encode(os.urandom(16)).decode()
        sock = socket.create_connection((host, port), timeout=timeout)
        try:
            sock.sendall(
                (
                    f"GET /v1/jobs/{job_id}/events?key={key} HTTP/1.1\r\n"
                    f"Host: {host}\r\n"
                    "Upgrade: websocket\r\n"
                    "Connection: Upgrade\r\n"
                    f"Sec-WebSocket-Key: {nonce}\r\n"
                    "Sec-WebSocket-Version: 13\r\n\r\n"
                ).encode()
            )
            buffer = b""
            while b"\r\n\r\n" not in buffer:
                chunk = sock.recv(4096)
                assert chunk, "connection closed during handshake"
                buffer += chunk
            head, buffer = buffer.split(b"\r\n\r\n", 1)
            assert b" 101 " in head.split(b"\r\n", 1)[0]

            def read_exactly(n, buffer):
                while len(buffer) < n:
                    chunk = sock.recv(4096)
                    assert chunk, "connection closed mid-frame"
                    buffer += chunk
                return buffer[:n], buffer[n:]

            events = []
            while True:
                header, buffer = read_exactly(2, buffer)
                opcode = header[0] & 0x0F
                length = header[1] & 0x7F
                if length == 126:
                    raw, buffer = read_exactly(2, buffer)
                    (length,) = struct.unpack("!H", raw)
                elif length == 127:
                    raw, buffer = read_exactly(8, buffer)
                    (length,) = struct.unpack("!Q", raw)
                payload, buffer = read_exactly(length, buffer)
                if opcode == 0x8:  # close
                    return events
                if opcode == 0x1:  # text
                    events.append(json.loads(payload.decode()))
        finally:
            sock.close()


def threads_parked_in_handle_result():
    """Frames of ``NetJobHandle.result`` on any thread of this process."""
    parked = []
    for frame in sys._current_frames().values():
        while frame is not None:
            if frame.f_code is NetJobHandle.result.__code__:
                parked.append(frame)
            frame = frame.f_back
    return parked


@pytest.mark.slow
class TestNoThreadPerJob:
    """Waiting for a job costs the gateway a loop future, not a thread.

    Each test boots a private anonymous gateway on the shared cluster:
    they count the gateway's own tasks and fail its client."""

    #: a single walk that runs out its one-second budget unsolved
    LONG = {
        "problem": "costas",
        "params": {"n": 18},
        "n_walkers": 1,
        "config": {"time_limit": 1.0},
    }

    def test_more_jobs_in_flight_than_executor_threads(self, cluster):
        """Regression: every in-flight job used to park one thread of the
        loop's default executor (``min(32, cpu_count + 4)`` threads) in
        ``handle.result``, so the next first-time POST queued behind them
        for its own ``to_thread(client.submit)`` — seconds, not ms."""
        in_flight = min(32, os.cpu_count() + 4) + 2  # cpu_count + 6 here
        tenants = TenantRegistry(
            [Tenant("bulk", "k-bulk", max_inflight=in_flight + 1)]
        )
        with LocalGateway(cluster.address, tenants) as gw:
            connection = http.client.HTTPConnection(*gw.address, timeout=60)
            try:
                job_ids = []
                for seed in range(in_flight + 1):
                    started = time.monotonic()
                    response, sub = call(
                        connection, "POST", "/v1/jobs",
                        body=dict(self.LONG, seed=1000 + seed), key="k-bulk",
                    )
                    answered = time.monotonic() - started
                    assert response.status == 202
                    job_ids.append(sub["job_id"])
                # the POST made with `in_flight` jobs already waiting
                assert answered < 0.25
                assert threads_parked_in_handle_result() == []
                for job_id in job_ids:
                    snap = wait_finished(connection, job_id, "k-bulk")
                    assert snap["status"] == "unsolved"
            finally:
                connection.close()

    def test_progress_task_ends_with_its_job(self, cluster):
        # default progress_interval (0.5 s): a milestone task left to
        # notice the finish by itself would outlive the job by that long
        with LocalGateway(cluster.address) as gw:
            connection = http.client.HTTPConnection(*gw.address, timeout=60)
            try:
                assert len(gw.gateway._tasks) == 0
                _, sub = call(
                    connection, "POST", "/v1/jobs",
                    body={"problem": "costas", "params": {"n": 7},
                          "n_walkers": 1, "seed": 131},
                    key="any",
                )
                snap = wait_finished(connection, sub["job_id"], "any")
                assert snap["status"] == "solved"
                time.sleep(0.05)  # a few loop turns for the done-callbacks
                assert len(gw.gateway._tasks) == 0
            finally:
                connection.close()

    def test_closing_the_client_fails_pending_jobs(self, cluster):
        with LocalGateway(cluster.address) as gw:
            connection = http.client.HTTPConnection(*gw.address, timeout=60)
            try:
                _, sub = call(
                    connection, "POST", "/v1/jobs",
                    body=dict(self.LONG, seed=141), key="any",
                )
                gw.gateway.client.close()
                snap = wait_finished(connection, sub["job_id"], "any", 10.0)
                assert snap["status"] == "failed"
                assert "closed" in snap["error"]
            finally:
                connection.close()
