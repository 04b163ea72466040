"""Signal handling of the long-running CLI commands (real subprocesses).

``repro service`` maps SIGINT and SIGTERM onto one cleanup path that
cancels outstanding jobs and reaps every worker process before exiting
with status 130.  These tests drive the real ``python -m repro`` entry
point and verify, via ``--pid-file``, that no worker survives the signal.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

REPO_SRC = Path(__file__).resolve().parents[1] / "src"


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _wait_for_pids(pid_file: Path, timeout: float = 60.0) -> list[int]:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pid_file.exists():
            text = pid_file.read_text()
            if text.strip():
                return [int(line) for line in text.split()]
        time.sleep(0.05)
    raise AssertionError("pid file never appeared; the service did not start")


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other owner
        return True
    return True


@pytest.mark.parametrize(
    "signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
)
def test_service_signal_reaps_workers(tmp_path, signum):
    pid_file = tmp_path / "workers.pid"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "service",
            # unseeded scalar walks that have to outlast the 0.5 s below:
            # order 40 is minutes of work under any seed (order 14 can be
            # done in under a second)
            "--family", "magic_square", "--set", "n=40",
            "--workers", "2", "--jobs", "2",
            "--pid-file", str(pid_file),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_subprocess_env(),
    )
    try:
        worker_pids = _wait_for_pids(pid_file)
        assert len(worker_pids) == 2
        assert all(_alive(pid) for pid in worker_pids)
        time.sleep(0.5)  # let the jobs actually start running
        proc.send_signal(signum)
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:  # pragma: no cover - defensive cleanup
            proc.kill()
            proc.communicate()
    assert proc.returncode == 130, f"stdout:\n{stdout}\nstderr:\n{stderr}"
    assert "interrupted" in stderr
    # every worker process was reaped before the service exited
    for pid in worker_pids:
        assert not _alive(pid), f"worker {pid} survived the shutdown"
