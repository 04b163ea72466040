"""The generator's side of the served stack: the server child process and
the one closed-loop HTTP tenant that drives it.

:class:`Server` owns ``server.py`` as a subprocess in a process group of
its own, so that every exit path — a finished run, a failed job, an
exception in the harness — reaps the server, its pool workers and their
sockets, and one workload cannot poison the next.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Optional

from spans import Spans, span

__all__ = [
    "Server",
    "Tenant",
    "Answer",
    "API_KEY",
    "cpu_seconds",
    "adopt_orphans",
    "reap_children",
    "pin_to_first_cpu",
    "every_cpu",
]

HERE = Path(__file__).resolve().parent

#: the only key the server child's gateway accepts
API_KEY = "e2e-bench"

_BOOT_TIMEOUT_S = 120.0
_STOP_TIMEOUT_S = 30.0
_JOB_TIMEOUT_S = 60.0
_POLL_INTERVAL_S = 0.002


#: the CPUs this process may use, as found at import
_CPUS = os.sched_getaffinity(0)


def pin_to_first_cpu() -> None:
    """Keep the calling thread — the generator, its spins and every
    in-process job — on one CPU; ``server.py`` joins it there.

    The two vCPUs of this VM run at speeds that differ by up to 25 % for
    seconds at a time (measured: spins alternating between them), and a
    request/response ping-pong across them pays a wake-up whose cost
    changes with the host's mood: left to the scheduler, the same list
    cost 2.7 ms of server CPU per trivial request in one hour and 4.3 ms in
    the next.  On one CPU the reference spin measures the speed of exactly
    the CPU the serial path runs on.  Pool workers stay free to use every
    CPU."""
    os.sched_setaffinity(0, {min(_CPUS)})


@contextmanager
def every_cpu() -> Iterator[None]:
    """Lift the pin while starting processes that must inherit every CPU
    (a worker pool), then restore it."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, _CPUS)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def cpu_seconds(pid: int) -> float:
    """On-CPU time of every thread of ``pid``, from the scheduler's own
    nanosecond clock (``utime``/``stime`` in ``/proc/<pid>/stat`` are
    sampled at 100 Hz and cannot resolve one job)."""
    total_ns = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            schedstat = Path(f"/proc/{pid}/task/{task}/schedstat").read_text()
        except FileNotFoundError:  # the thread ended while we were listing
            continue
        total_ns += int(schedstat.split()[0])
    return total_ns / 1e9


_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the one that inherits every descendant whose own
    parent has died (``prctl(PR_SET_CHILD_SUBREAPER)``).

    When ``server.py`` exits, its pool workers and its multiprocessing
    resource tracker are still on their way out; as orphans they would go
    to pid 1 and the run could end before they have — seen as a
    ``[python3] <defunct>`` that outlived the run by a second under a
    pid 1 that reaps late.  Adopted, they are children of this process,
    which can wait for each of them."""
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _children() -> list[int]:
    """Pids whose parent is this process (zombies included)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:  # ended while we were listing
            continue
        # pid (comm) state ppid ...; comm may hold spaces and parentheses
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(int(entry))
    return found


def reap_children() -> None:
    """The last thing a run does: kill every child this process still has,
    adopted ones included, and wait until each has ended."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:  # ends on its own once its pipe is closed
        getattr(tracker._resource_tracker, "_stop", lambda: None)()
    while True:
        for pid in _children():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(-1, 0)  # a killed child may leave us its own children
        except ChildProcessError:
            return


def _wait_for_group(pgid: int) -> None:
    """Wait until nothing of the (killed) process group ``pgid`` is left,
    not even a zombie."""
    while True:  # its members are our children, born so or adopted
        try:
            os.waitpid(-pgid, 0)
        except ChildProcessError:
            break
    deadline = time.monotonic() + _STOP_TIMEOUT_S
    while True:  # returns at once unless adopt_orphans() was not called
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"process group {pgid} of the server did not end")
        time.sleep(0.01)


class Server:
    """``server.py`` as a child: boot, CPU and memory, teardown."""

    def __init__(self, log: Path, trace_dir: Optional[Path] = None) -> None:
        self.log = log
        self.trace_dir = trace_dir
        self.hello: dict[str, Any] = {}
        self.stderr_lines = 0
        self._proc: Optional[subprocess.Popen] = None

    def start(self) -> "Server":
        self.log.parent.mkdir(parents=True, exist_ok=True)
        command = [
            sys.executable, str(HERE / "server.py"),
            "--worker-cpus", ",".join(str(cpu) for cpu in sorted(_CPUS)),
        ]
        if self.trace_dir is not None:
            command += ["--trace-dir", str(self.trace_dir)]
        with self.log.open("wb") as log:
            self._proc = subprocess.Popen(
                command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=log,
                start_new_session=True,  # own group: stop() can kill it whole
            )
        try:
            self.hello = json.loads(self._read_hello())
        except BaseException:
            self.stop()
            raise
        return self

    def _read_hello(self) -> bytes:
        assert self._proc is not None and self._proc.stdout is not None
        ready, _, _ = select.select([self._proc.stdout], [], [], _BOOT_TIMEOUT_S)
        line = self._proc.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError(
                f"server did not come up; see {self.log} "
                f"(exit code {self._proc.poll()})"
            )
        return line

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        return self.hello["host"], self.hello["port"]

    @property
    def cluster_address(self) -> tuple[str, int]:
        return tuple(self.hello["cluster"])

    @property
    def pids(self) -> list[int]:
        return [self.hello["pid"], *self.hello["worker_pids"]]

    def cpu(self) -> tuple[float, list[float]]:
        """CPU seconds so far of the server process and of each pool
        worker (a ``calib.RemoteCpu``)."""
        return (
            cpu_seconds(self.hello["pid"]),
            [cpu_seconds(pid) for pid in self.hello["worker_pids"]],
        )

    def peak_rss_mb(self) -> float:
        """Sum of the peak resident sets (``VmHWM``) of server + workers."""
        total_kb = 0
        for pid in self.pids:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Ask for shutdown, wait, then make sure nothing is left."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            if proc.stdin is not None:
                proc.stdin.close()
            proc.wait(timeout=_STOP_TIMEOUT_S)
        except (subprocess.TimeoutExpired, OSError):
            pass
        finally:
            try:
                # the leader may be gone while a pool worker or the
                # resource tracker lingers; its pid is the group's id
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
            _wait_for_group(proc.pid)
        self.stderr_lines = len(self.log.read_bytes().splitlines())

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


@dataclass
class Answer:
    """How the gateway answered one request."""

    kind: str  # "miss" (202 then finished), "hit" (200 cached) or "error"
    status: int
    snapshot: dict[str, Any]
    polls: int = 0


class Tenant:
    """One tenant: one thread, one keep-alive connection, closed loop."""

    def __init__(self, address: tuple[str, int]) -> None:
        self._conn = http.client.HTTPConnection(*address, timeout=_JOB_TIMEOUT_S)
        self._headers = {
            "Content-Type": "application/json",
            "X-API-Key": API_KEY,
        }

    def _call(self, method: str, path: str, body: Optional[str] = None):
        self._conn.request(method, path, body=body, headers=self._headers)
        response = self._conn.getresponse()
        return response.status, json.loads(response.read())

    def run(
        self,
        body: dict,
        spans: Optional[Spans] = None,
        job: str = "",
        parent: Optional[int] = None,
    ) -> Answer:
        """Submit ``body`` and wait for its job to finish."""
        with span(spans, "gateway.post", job, parent):
            status, payload = self._call("POST", "/v1/jobs", json.dumps(body))
        if status == 200 and payload.get("cached"):
            return Answer("hit", status, payload)
        if status != 202:
            return Answer("error", status, payload)
        path = f"/v1/jobs/{payload['job_id']}"
        deadline = time.perf_counter() + _JOB_TIMEOUT_S
        polls = 0
        with span(spans, "gateway.poll", job, parent):
            while True:
                status, snapshot = self._call("GET", path)
                polls += 1
                if status != 200:
                    return Answer("error", status, snapshot, polls)
                if snapshot["status"] not in ("queued", "running"):
                    return Answer("miss", status, snapshot, polls)
                if time.perf_counter() > deadline:
                    return Answer("error", 0, snapshot, polls)
                time.sleep(_POLL_INTERVAL_S)

    def metrics(self) -> dict[str, float]:
        """``GET /metrics`` parsed into ``{name: value}``."""
        self._conn.request("GET", "/metrics", headers=self._headers)
        text = self._conn.getresponse().read().decode()
        values: dict[str, float] = {}
        for line in text.splitlines():
            parts = line.split()
            if len(parts) == 2 and not line.startswith("#"):
                try:
                    values[parts[0]] = float(parts[1])
                except ValueError:
                    pass
        return values

    def close(self) -> None:
        self._conn.close()
