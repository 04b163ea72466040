"""A dispatch says what its lanes run on.

``JobDispatch.kernel`` is set where the scheduler decides the slice width:
``"compiled"`` (``lanes.c``; a one-walk slice of a problem it covers is one
compiled lane), ``"numpy"`` (its build is not there, or has no kernels for
the problem) or ``"scalar"`` (one walk on the session) — so
``repro trace`` can answer "why was this slice slow" on a host whose build
failed, and ``repro service`` / ``repro node`` say which host that is.
"""

import pytest

from repro.cli import main
from repro.core.config import AdaptiveSearchConfig
from repro.problems import make_problem
from repro.service import Job, SolverService
from repro.telemetry.events import TraceContext
from repro.telemetry.recorder import Recorder
from repro.telemetry.sinks import RingBufferSink
from repro.telemetry.timeline import analyze_trace, render_timeline
from repro.vector import kernel_backend, lane_kernel

TINY = AdaptiveSearchConfig(max_iterations=5)


def traced_dispatches(problem, n_walkers):
    ring = RingBufferSink()
    with SolverService(2, recorder=Recorder(sinks=[ring], proc="node")) as traced:
        traced.submit_job(
            Job(
                problem, n_walkers, 3, config=TINY,
                trace=TraceContext("feedfacefeedface", 7),
            )
        ).result(60)
    records = ring.records
    return [r for r in records if r["event"] == "job_dispatch"], records


@pytest.mark.slow
class TestDispatchNamesItsKernel:
    def test_lane_slices_run_what_the_host_has(self):
        problem = make_problem("magic_square", n=6)
        backend = kernel_backend().name
        assert lane_kernel(problem) == backend
        dispatches, records = traced_dispatches(problem, 8)
        assert [d["lanes"] for d in dispatches] == [4, 4]
        assert [d["kernel"] for d in dispatches] == [backend, backend]
        timeline = render_timeline(records, analyze_trace(records))
        assert f"as 4 lanes -> worker 0 kernel={backend}" in timeline

    def test_one_walk_slices_say_what_runs_them(self):
        """A one-walk slice is ``AdaptiveSearch.solve``: one compiled lane
        for a problem ``lanes.c`` covers, the scalar session for a problem
        without lane kernels at any width — and on a host without the
        library for both (a NumPy round at k = 1 loses to the session)."""
        compiled = kernel_backend().name == "compiled"
        for problem, n_walkers, lanes, kernel in (
            (make_problem("magic_square", n=6), 2, *(
                (1, "compiled") if compiled else (0, "scalar")
            )),
            (make_problem("queens", n=20), 6, 0, "scalar"),
        ):
            dispatches, records = traced_dispatches(problem, n_walkers)
            assert [d["lanes"] for d in dispatches] == [lanes] * n_walkers
            assert {d["kernel"] for d in dispatches} == {kernel}
            timeline = render_timeline(records, analyze_trace(records))
            if lanes:
                assert "walks=0 as 1 lane -> worker 0 kernel=compiled" in timeline
            else:
                assert "dispatch job=7 walk=0 -> worker" in timeline

    def test_past_the_mask_limit_lanes_need_the_compiled_kernels(self):
        """costas 34 is beyond the NumPy adapter's 64-bit masks: lanes
        where ``lanes.c`` is loaded, one scalar walk per task where not."""
        problem = make_problem("costas", n=34)
        dispatches, _ = traced_dispatches(problem, 6)
        if kernel_backend().name == "compiled":
            assert [d["lanes"] for d in dispatches] == [3, 3]
            assert {d["kernel"] for d in dispatches} == {"compiled"}
        else:
            assert [d["lanes"] for d in dispatches] == [0] * 6
            assert {d["kernel"] for d in dispatches} == {"scalar"}


@pytest.mark.slow
def test_service_verb_logs_the_backend_once(capsys):
    code = main(
        ["service", "--family", "costas", "--set", "n=8", "--jobs", "1",
         "--walkers", "2", "--seed", "1", "--workers", "1"]
    )
    assert code == 0
    lines = [
        line for line in capsys.readouterr().err.splitlines()
        if line.startswith("lane kernels: ")
    ]
    assert len(lines) == 1
    assert lines[0].startswith(f"lane kernels: {kernel_backend().name}")


def test_node_verb_logs_the_backend_at_start_up(capsys, monkeypatch):
    import asyncio

    monkeypatch.setattr(asyncio, "run", lambda coro, **kwargs: coro.close())
    assert main(["node", "--connect", "127.0.0.1:1", "--workers", "1"]) == 0
    err = capsys.readouterr().err
    assert err.count("lane kernels: ") == 1
    assert f"lane kernels: {kernel_backend().name}" in err
