"""Synchronous cluster client.

:class:`ClusterClient` is the blocking, thread-safe front door to a running
coordinator — the piece that ``MultiWalkSolver(executor="net")``,
``collect_samples(cluster=...)`` and ``repro submit`` build on.  It speaks
the same framed protocol as the asyncio side but over a plain socket: one
daemon reader thread demultiplexes ``job_accepted`` / ``job_result`` /
``stats`` frames into per-request futures, so any number of jobs can be in
flight concurrently from any number of caller threads.

Seed handling mirrors the other executors exactly: ``submit`` derives the
per-walk :class:`~numpy.random.SeedSequence` list with
:func:`repro.parallel.seeding.walk_seeds` (or takes an explicit list) and
ships it whole; the *coordinator* partitions walk indices across nodes.
A cluster solve with job seed ``s`` therefore races the identical walk
trajectories as ``solve_parallel(..., seed=s)`` on one host.

Resilience (``reconnect=True``): every submit carries a UUID
``client_key`` and keeps its wire frame around; when the coordinator
connection drops, the reader thread redials with exponential backoff plus
jitter and *resubmits* every unanswered job under its original key.  The
coordinator deduplicates on the key — it re-attaches the client to the
still-running job or replays the cached result, so a coordinator restart
(or a network blip) costs a client nothing but latency.  Stats waiters
are not replayed; they fail fast on disconnect.
"""

from __future__ import annotations

import itertools
import random
import socket
import threading
import time
import uuid
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.coop import CoopConfig
from repro.core.config import AdaptiveSearchConfig
from repro.errors import NetError
from repro.net.protocol import (
    PROTOCOL_VERSION,
    Message,
    pickle_blob,
    recv_message,
    send_message,
)
from repro.net.results import NetJobResult, job_result_from_message
from repro.parallel.seeding import walk_seeds
from repro.problems.base import Problem
from repro.telemetry.events import JobFinish, JobSubmit, new_trace_id
from repro.telemetry.recorder import Recorder, get_recorder
from repro.util.rng import SeedLike

__all__ = [
    "ClusterClient",
    "NetJobHandle",
    "parse_address",
    "parse_addresses",
]


def parse_address(address: Any) -> tuple[str, int]:
    """Coerce ``"host:port"`` strings or 2-tuples into ``(host, port)``."""
    if isinstance(address, str):
        host, sep, port_text = address.rpartition(":")
        if not sep or not host or not port_text.isdigit():
            raise NetError(
                f"expected an address like 'host:port', got {address!r}"
            )
        return (host, int(port_text))
    try:
        host, port = address
        return (str(host), int(port))
    except (TypeError, ValueError):
        raise NetError(f"not a cluster address: {address!r}") from None


def parse_addresses(value: Any) -> list[tuple[str, int]]:
    """Coerce one address or an ordered list into ``[(host, port), ...]``.

    Accepts everything :func:`parse_address` does, plus a comma-separated
    ``"a:1,b:2"`` string and sequences of addresses.  Order is
    significant — the first entry is the preferred (leader) coordinator,
    later entries are failover standbys.
    """
    if isinstance(value, str):
        parts = [part.strip() for part in value.split(",") if part.strip()]
        if not parts:
            raise NetError(f"no coordinator address in {value!r}")
        return [parse_address(part) for part in parts]
    try:
        return [parse_address(value)]  # a single (host, port) pair?
    except NetError:
        pass
    try:
        items = list(value)
    except TypeError:
        raise NetError(f"not a cluster address list: {value!r}") from None
    if not items:
        raise NetError("empty coordinator address list")
    return [parse_address(item) for item in items]


class NetJobHandle:
    """Future-style handle on one submitted cluster job (thread-safe)."""

    def __init__(self, request_id: int) -> None:
        self.request_id = request_id
        self.job_id: Optional[int] = None
        self.trace_id: str = ""
        #: idempotency key; the coordinator dedupes resubmissions on it
        self.client_key: str = ""
        self._event = threading.Event()
        self._result: Optional[NetJobResult] = None
        self._error: Optional[str] = None
        self._callback_lock = threading.Lock()
        self._done_callback: Callable[["NetJobHandle"], None] | None = None
        self._submitted_wall = 0.0
        #: original submit frame, kept for replay after a reconnect
        self._submit_fields: dict[str, Any] = {}
        self._submit_blob: Optional[bytes] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> NetJobResult:
        """Block until the coordinator answers; raises on timeout/failure."""
        if not self._event.wait(timeout):
            raise NetError(
                f"timed out after {timeout}s waiting for cluster job "
                f"(request {self.request_id})"
            )
        if self._result is None:
            raise NetError(self._error or "cluster job failed")
        return self._result

    def set_done_callback(
        self, callback: Callable[["NetJobHandle"], None]
    ) -> None:
        """Call ``callback(handle)`` once, when the job is answered or
        failed (a closed client fails its pending jobs): from the client's
        reader thread — or from this call, if the job is already done.
        Lets an event loop await a job without parking a thread in
        :meth:`result`; the callback must neither block nor raise."""
        with self._callback_lock:
            if not self._event.is_set():
                self._done_callback = callback
                return
        callback(self)

    def _complete(self, result: NetJobResult) -> None:
        self._result = result
        self._finish()

    def _fail(self, error: str) -> None:
        self._error = error
        self._finish()

    def _finish(self) -> None:
        with self._callback_lock:
            self._event.set()
            callback, self._done_callback = self._done_callback, None
        if callback is not None:
            callback(self)


class ClusterClient:
    """Blocking client connection to a coordinator.

    Usable as a context manager; ``connect()`` is implicit on first use.

    Parameters
    ----------
    address:
        coordinator endpoint — ``(host, port)`` or ``"host:port"`` — or
        an *ordered* list of them (``"a:1,b:2"`` or a sequence): the
        first is the preferred (leader) coordinator, the rest are hot
        standbys tried in order whenever the preferred one is down, both
        at first connect and on every redial (protocol v7 re-homing).
    connect_timeout:
        seconds allowed for TCP connect + handshake.
    reconnect:
        survive coordinator restarts *and failovers*: redial with backoff
        on connection loss — cycling the address list — and resubmit
        unanswered jobs under their ``client_key`` (see module
        docstring).  The coordinator also keeps this client's jobs
        running while it is away instead of cancelling them.
    reconnect_backoff / reconnect_max_delay / max_reconnect_attempts:
        backoff schedule of the redial loop.  Waits use *decorrelated
        jitter* (each delay drawn uniformly from ``[backoff, 3 x
        previous]``, capped at ``reconnect_max_delay``), so a fleet of
        clients orphaned by the same dead leader spreads its redials
        instead of thundering-herding the freshly promoted standby.
    recorder:
        telemetry recorder for client-side submit/finish events; defaults
        to the process recorder (disabled unless configured).  Every
        submit carries a fresh trace id on the wire regardless, so
        coordinator/node-side tracing works even from an un-instrumented
        client.
    """

    def __init__(
        self,
        address: Any,
        *,
        connect_timeout: float = 10.0,
        reconnect: bool = False,
        reconnect_backoff: float = 0.05,
        reconnect_max_delay: float = 2.0,
        max_reconnect_attempts: int = 20,
        recorder: Recorder | None = None,
    ) -> None:
        self.addresses = parse_addresses(address)
        self._addr_index = 0
        #: the address currently (or most recently) connected to
        self.address = self.addresses[0]
        self.connect_timeout = connect_timeout
        self.reconnect = reconnect
        self.reconnect_backoff = reconnect_backoff
        self.reconnect_max_delay = reconnect_max_delay
        self.max_reconnect_attempts = max_reconnect_attempts
        self.recorder = recorder if recorder is not None else get_recorder()
        self._sock: socket.socket | None = None
        self._reader: threading.Thread | None = None
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._connected = threading.Event()
        self._request_ids = itertools.count()
        self._by_request: dict[int, NetJobHandle] = {}
        self._stats_waiters: dict[int, tuple[threading.Event, list]] = {}
        self._closed = False
        self.reconnects = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _dial(self) -> socket.socket:
        """Connect + handshake against the first reachable coordinator.

        Tries the ordered address list starting from the one last used
        (the preferred leader on first connect), so one ``_dial`` is one
        full pass over every known coordinator before giving up.
        """
        errors: list[str] = []
        for offset in range(len(self.addresses)):
            index = (self._addr_index + offset) % len(self.addresses)
            try:
                sock = self._dial_one(self.addresses[index])
            except NetError as err:
                errors.append(str(err))
                continue
            self._addr_index = index
            self.address = self.addresses[index]
            return sock
        raise NetError(
            "no coordinator reachable: " + "; ".join(errors)
        )

    def _dial_one(self, address: tuple[str, int]) -> socket.socket:
        """TCP connect + handshake; returns the ready socket."""
        host, port = address
        try:
            sock = socket.create_connection(
                address, timeout=self.connect_timeout
            )
        except OSError as err:
            raise NetError(
                f"cannot reach coordinator at {host}:{port}: {err}"
            ) from None
        try:
            send_message(
                sock,
                Message(
                    "hello",
                    {
                        "role": "client",
                        "protocol": PROTOCOL_VERSION,
                        "reconnect": self.reconnect,
                    },
                ),
            )
            welcome = recv_message(sock)
        except NetError:
            sock.close()
            raise
        except OSError as err:
            sock.close()
            raise NetError(
                f"handshake with coordinator at {host}:{port} failed: {err}"
            ) from None
        if welcome is None or welcome.type != "welcome":
            detail = welcome.get("error") if welcome is not None else "EOF"
            sock.close()
            raise NetError(f"coordinator rejected client: {detail}")
        sock.settimeout(None)
        return sock

    def connect(self) -> "ClusterClient":
        """Dial and handshake (idempotent)."""
        if self._sock is not None:
            return self
        if self._closed:
            raise NetError("cluster client is closed")
        if (
            self.reconnect
            and self._reader is not None
            and self._reader.is_alive()
        ):
            # the read loop is already redialing: piggyback on it rather
            # than racing a second concurrent pass over the shared
            # address cursor (which can skip the live standby entirely).
            # The reconnect loop is itself bounded (max attempts), so
            # waiting for the reader thread is waiting on a finite thing.
            while self._reader.is_alive():
                if self._connected.wait(0.2) and self._sock is not None:
                    return self
            raise NetError(
                "cluster client is not connected (reconnect gave up)"
            )
        self._sock = self._dial()
        self._connected.set()
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-net-client", daemon=True
        )
        self._reader.start()
        return self

    def close(self) -> None:
        """Drop the connection; outstanding handles fail (idempotent)."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            sock = self._sock
            self._sock = None
        self._connected.set()  # release any sender waiting on a reconnect
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        if self._reader is not None and self._reader is not threading.current_thread():
            self._reader.join(timeout=5.0)
        self._fail_all("client closed")

    def __enter__(self) -> "ClusterClient":
        return self.connect()

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # client surface
    # ------------------------------------------------------------------
    def submit(
        self,
        problem: Problem,
        n_walkers: int = 1,
        seed: SeedLike = None,
        *,
        config: AdaptiveSearchConfig | None = None,
        seeds: Sequence[np.random.SeedSequence] | None = None,
        deadline: float | None = None,
        client_key: str | None = None,
        priority: int = 0,
        coop: CoopConfig | dict | None = None,
    ) -> NetJobHandle:
        """Submit one multi-walk job to the cluster; returns immediately.

        ``deadline`` (seconds) is enforced coordinator-side: an overdue
        job comes back ``TIMED_OUT`` and ``degraded`` with best-so-far
        outcomes.  ``client_key`` defaults to a fresh UUID — supply your
        own to make retries across *client* restarts idempotent too.
        ``priority`` (protocol v5) orders the coordinator's pending queue
        and each node's local dispatch queue — higher runs sooner; the
        default 0 preserves plain FIFO.  ``coop`` (protocol v6) turns the
        job cooperative: each node slice becomes an island exchanging
        elites per the :class:`~repro.coop.CoopConfig` topology; a
        ``coop`` without a seed inherits this job's integer ``seed`` (or a
        random one), so a fixed job seed replays the exact migrations.
        """
        self.connect()
        coop_wire: Optional[dict[str, Any]] = None
        if coop is not None:
            coop_config = (
                coop
                if isinstance(coop, CoopConfig)
                else CoopConfig.from_wire(coop)
            )
            if coop_config.seed is None:
                entropy = np.random.SeedSequence(
                    seed if isinstance(seed, (int, np.integer)) else None
                ).entropy
                coop_config = coop_config.with_seed(int(entropy))
            coop_wire = coop_config.to_wire()
        if seeds is not None:
            seed_list = list(seeds)
            if len(seed_list) != n_walkers:
                raise NetError(
                    f"got {len(seed_list)} explicit seeds for "
                    f"{n_walkers} walkers"
                )
        else:
            seed_list = walk_seeds(n_walkers, seed)
        # pickle eagerly, in the caller's frame: an un-picklable problem
        # must fail fast here with the offending type named, not surface
        # as a remote crash loop
        try:
            blob = pickle_blob(
                {
                    "problem": problem,
                    "config": config,
                    "seeds": seed_list,
                }
            )
        except Exception as err:
            raise NetError(
                f"problem {type(problem).__name__!r} is not picklable and "
                f"cannot be submitted to the cluster: {err}"
            ) from err
        with self._state_lock:
            request_id = next(self._request_ids)
            handle = NetJobHandle(request_id)
            handle.trace_id = new_trace_id()
            handle.client_key = client_key or uuid.uuid4().hex
            handle._submitted_wall = time.time()
            handle._submit_fields = {
                "n_walkers": n_walkers,
                "trace_id": handle.trace_id,
                "client_key": handle.client_key,
                "deadline": deadline,
                "priority": int(priority),
            }
            if coop_wire is not None:
                handle._submit_fields["coop"] = coop_wire
            handle._submit_blob = blob
            self._by_request[request_id] = handle
        if self.recorder.enabled:
            self.recorder.emit(
                JobSubmit(
                    trace_id=handle.trace_id,
                    n_walkers=n_walkers,
                    problem=getattr(problem, "name", type(problem).__name__),
                )
            )
        self._send(
            Message(
                "submit",
                {"request_id": request_id, **handle._submit_fields},
                blob=blob,
            )
        )
        return handle

    def solve(
        self,
        problem: Problem,
        n_walkers: int = 1,
        seed: SeedLike = None,
        *,
        timeout: float | None = None,
        **kwargs: Any,
    ) -> NetJobResult:
        """Submit and block until the cluster answers."""
        return self.submit(problem, n_walkers, seed, **kwargs).result(timeout)

    def stats(self, timeout: float | None = 10.0) -> dict[str, Any]:
        """Cluster-wide stats: coordinator counters + per-node load."""
        self.connect()
        with self._state_lock:
            request_id = next(self._request_ids)
            event = threading.Event()
            box: list = []
            self._stats_waiters[request_id] = (event, box)
        self._send(Message("stats", {"request_id": request_id}))
        if not event.wait(timeout):
            with self._state_lock:
                self._stats_waiters.pop(request_id, None)
            raise NetError(f"stats request timed out after {timeout}s")
        if not box:
            raise NetError("connection lost before the stats reply arrived")
        return box[0]

    # ------------------------------------------------------------------
    def _send(self, message: Message) -> None:
        if self.reconnect and not self._closed:
            # ride out an in-progress reconnect instead of failing the call
            self._connected.wait(self.connect_timeout)
        sock = self._sock
        if sock is None:
            raise NetError("cluster client is not connected")
        try:
            with self._send_lock:
                send_message(sock, message)
        except OSError as err:
            raise NetError(f"lost coordinator connection: {err}") from None

    def _read_loop(self) -> None:
        while True:
            sock = self._sock
            error = "coordinator closed the connection"
            try:
                while sock is not None:
                    message = recv_message(sock)
                    if message is None:
                        break
                    self._on_message(message)
            except (OSError, NetError) as err:
                if not self._closed:
                    error = f"coordinator connection failed: {err}"
            if self._closed or not self.reconnect:
                self._fail_all(error)
                return
            # connection lost but resilience is on: fail only the stats
            # waiters (not replayable), then redial and resubmit jobs
            self._connected.clear()
            with self._state_lock:
                self._sock = None
                stats_waiters = list(self._stats_waiters.values())
                self._stats_waiters.clear()
            for event, _ in stats_waiters:
                event.set()
            if not self._reconnect():
                self._fail_all(
                    f"{error}; reconnect gave up after "
                    f"{self.max_reconnect_attempts} attempts"
                )
                return

    def _reconnect(self) -> bool:
        """Redial with decorrelated-jitter backoff; replay in-flight jobs.

        Each wait is drawn uniformly from ``[base, 3 x previous]`` (AWS
        "decorrelated jitter"), capped at ``reconnect_max_delay`` —
        grows like exponential backoff on average but desynchronizes a
        fleet of clients that all lost the same leader, so a freshly
        promoted standby sees a trickle instead of a stampede.  Every
        attempt cycles the whole address list (see :meth:`_dial`).
        """
        delay = self.reconnect_backoff
        for _ in range(self.max_reconnect_attempts):
            if self._closed:
                return False
            time.sleep(delay)
            delay = min(
                self.reconnect_max_delay,
                random.uniform(self.reconnect_backoff, delay * 3),
            )
            try:
                sock = self._dial()
            except NetError:
                continue
            with self._state_lock:
                if self._closed:
                    sock.close()
                    return False
                self._sock = sock
            self.reconnects += 1
            self._connected.set()
            self._resubmit_inflight()
            return True
        return False

    def _resubmit_inflight(self) -> None:
        """Resubmit every unanswered job under its original client_key.

        Fresh request ids, identical keys and payloads: the coordinator
        either re-attaches us to the still-running job or replays the
        finished result — never a second run.
        """
        with self._state_lock:
            handles = [
                h for h in self._by_request.values()
                if h._submit_blob is not None
            ]
            self._by_request.clear()
            for handle in handles:
                handle.request_id = next(self._request_ids)
                self._by_request[handle.request_id] = handle
        for handle in handles:
            try:
                self._send(
                    Message(
                        "submit",
                        {
                            "request_id": handle.request_id,
                            **handle._submit_fields,
                        },
                        blob=handle._submit_blob,
                    )
                )
            except NetError:
                # the new connection died already; the read loop notices
                # and the next reconnect cycle replays again
                return

    def _on_message(self, message: Message) -> None:
        if message.type == "job_accepted":
            with self._state_lock:
                handle = self._by_request.get(message["request_id"])
            if handle is not None:
                handle.job_id = message["job_id"]
        elif message.type == "job_result":
            with self._state_lock:
                handle = self._by_request.pop(message["request_id"], None)
            if handle is not None:
                result = job_result_from_message(message)
                if self.recorder.enabled:
                    self.recorder.emit(
                        JobFinish(
                            trace_id=handle.trace_id,
                            job_id=result.job_id,
                            status=result.status.value,
                            latency=time.time() - handle._submitted_wall,
                        )
                    )
                handle._complete(result)
        elif message.type == "stats":
            with self._state_lock:
                waiter = self._stats_waiters.pop(message.get("request_id"), None)
            if waiter is not None:
                event, box = waiter
                box.append(
                    {
                        "coordinator": message["coordinator"],
                        "nodes": message["nodes"],
                    }
                )
                event.set()
        elif message.type == "error":
            with self._state_lock:
                handle = self._by_request.pop(message.get("request_id"), None)
            if handle is not None:
                handle._fail(message.get("error") or "coordinator error")

    def _fail_all(self, error: str) -> None:
        with self._state_lock:
            handles = list(self._by_request.values())
            self._by_request.clear()
            stats_waiters = list(self._stats_waiters.values())
            self._stats_waiters.clear()
        for handle in handles:
            handle._fail(error)
        for event, _ in stats_waiters:
            event.set()
