"""End-to-end adaptive scheduling: a gateway that learns from its own jobs.

The acceptance test for `repro.autoscale`: two identical *planned*
submissions (no ``n_walkers``), one against a cold predictor and one after
the predictor has been warmed purely by wall times streamed from real
completed jobs, must plan different walker counts — proof that the
observe → refit → predict → act loop closes through the serving stack.
"""

import json
import time

import http.client

import pytest

from repro.autoscale import ModelStore, Predictor
from repro.gateway.testing import LocalGateway
from repro.net import LocalCluster

#: deliberately not a power of two — every learned plan (the efficiency
#: and deadline rules only emit powers of two) is distinguishable from it
COLD_PLAN = 3


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(n_nodes=1, workers_per_node=2) as local:
        yield local


def call(conn, method, path, body=None):
    headers = {"X-API-Key": "anon"}
    if body is not None:
        body = json.dumps(body)
        headers["Content-Type"] = "application/json"
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    payload = response.read()
    return response, json.loads(payload) if payload else None


def wait_finished(conn, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        response, snap = call(conn, "GET", f"/v1/jobs/{job_id}")
        assert response.status == 200
        if snap["status"] not in ("queued", "running"):
            return snap
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


def submit_planned(conn):
    """A plan-for-me submission; unseeded, so never cached or coalesced."""
    response, sub = call(
        conn,
        "POST",
        "/v1/jobs",
        body={"problem": "costas", "params": {"n": 6}},
    )
    assert response.status == 202
    assert sub["planned"] is True
    return sub


@pytest.mark.slow
class TestAutoscaleEndToEnd:
    def test_warmed_predictor_changes_the_plan(self, cluster, tmp_path):
        store_path = tmp_path / "models.json"
        predictor = Predictor(
            ModelStore(store_path, min_samples=4, refit_interval=2),
            default_walkers=COLD_PLAN,
            max_walkers=16,
        )
        with LocalGateway(
            cluster.address, predictor=predictor, progress_interval=0.1
        ) as gw:
            host, port = gw.address
            conn = http.client.HTTPConnection(host, port, timeout=60)
            try:
                # 1. cold start: the planner has no evidence, the identical
                # job gets the static default
                cold = submit_planned(conn)
                assert cold["n_walkers"] == COLD_PLAN
                wait_finished(conn, cold["job_id"])

                # 2. warm the models ONLY by running real jobs through the
                # gateway — every solved result streams its winner wall
                # time into the predictor.  A worker occasionally dies
                # under full-suite load; only solved jobs teach the
                # predictor, so retry until 8 of them have landed
                solved, attempts = 0, 0
                while solved < 8:
                    assert attempts < 16, "too many warm-up jobs failed"
                    attempts += 1
                    response, sub = call(
                        conn,
                        "POST",
                        "/v1/jobs",
                        body={
                            "problem": "costas",
                            "params": {"n": 6},
                            "n_walkers": 2,
                        },
                    )
                    assert response.status == 202
                    snap = wait_finished(conn, sub["job_id"])
                    if snap["status"] == "solved":
                        solved += 1

                # 3. the same submission now plans from the learned model
                warm = submit_planned(conn)
                assert warm["n_walkers"] != COLD_PLAN
                wait_finished(conn, warm["job_id"])

                # the learned state is visible on the health endpoint
                response, health = call(conn, "GET", "/healthz")
                assert response.status == 200
                assert "costas/6" in health["autoscale"]
            finally:
                conn.close()

        # 4. the gateway persisted its models on stop; a fresh gateway
        # warm-starts from the file and plans what that file says, not
        # like a cold start.  (Not "what the warm gateway planned": the
        # warm job's own wall time lands after its plan was read, and one
        # more sample can move the plan.)
        assert store_path.exists()

        def from_file():
            return Predictor(
                ModelStore.open(store_path, min_samples=4, refit_interval=2),
                default_walkers=COLD_PLAN,
                max_walkers=16,
            )

        persisted_plan = from_file().choose_walkers("costas", 6)
        assert persisted_plan != COLD_PLAN
        revived = from_file()
        with LocalGateway(
            cluster.address, predictor=revived, progress_interval=0.1
        ) as gw:
            host, port = gw.address
            conn = http.client.HTTPConnection(host, port, timeout=60)
            try:
                restarted = submit_planned(conn)
                assert restarted["n_walkers"] == persisted_plan
                wait_finished(conn, restarted["job_id"])
            finally:
                conn.close()
