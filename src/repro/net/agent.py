"""The node agent: one cluster member's execution engine.

A :class:`NodeAgent` dials out to the coordinator, introduces itself with a
versioned handshake, and then turns ``assign`` frames into real work on its
local warm :class:`~repro.service.SolverService` (the PR 2 persistent
worker pool — workers are spawned once per agent, problems are shipped to
each worker once per job, and walks start warm).  One ``assign`` becomes
one local job whose walks go by their cluster-wide ids and carry their
exact :class:`~numpy.random.SeedSequence` — the local scheduler deals them
over the pool (as vector lanes where the problem has compiled lane kernels), and
a walk executes the identical trajectory it would have executed on any
other node or on a single host.

Back-traffic is two streams multiplexed on the one connection:

- one ``walk_result`` frame per walk, streamed as the local job's slices
  finish, not batched at its end (the coordinator's first-finisher-wins
  decision needs the earliest solve as soon as it exists, and a straggler
  must not hold its finished siblings back).  The pump that sends them is
  woken by the completion itself — the local scheduler thread (or an
  island thread) sets the pump's event through
  ``loop.call_soon_threadsafe`` the moment a slice reports — so a result
  leaves the node without waiting on any timer, and an idle agent's pump
  does not run at all; and
- periodic ``heartbeat`` frames carrying the local service's
  :meth:`~repro.service.metrics.MetricsSnapshot.to_json` load snapshot,
  which double as the liveness signal for the coordinator's failure
  detector.

Cancellation: a ``cancel(job_id, generation)`` frame cancels every local
walk of that job with assignment generation ``<= generation`` (the
job-generation token at cluster scope); results of walks that were
cancelled locally are *not* reported — and should one slip out anyway the
coordinator discards it as stale.  Crash handling is layered: a slice of
walks that crashes locally is retried by the local service's
:class:`~repro.service.jobs.RetryPolicy`; only when that budget is spent
does the agent report the assign's unfinished walks as failed, and only
the *node* dying moves work to another machine (the coordinator's
re-dispatch).  A hedged or re-dispatched walk arrives as a later assign
of its own and is simply another local job.
"""

from __future__ import annotations

import asyncio
import queue
import random
import threading
import time
from typing import Any, Optional

import numpy as np

from repro.coop import CoopConfig, IslandRunner, MigrantBatch
from repro.core.config import AdaptiveSearchConfig
from repro.core.termination import TerminationReason
from repro.errors import NetError
from repro.net.protocol import (
    PROTOCOL_VERSION,
    Message,
    pickle_blob,
    read_message,
    unpickle_blob,
    write_message,
)
from repro.net.results import outcome_to_message
from repro.service.jobs import Job, JobStatus
from repro.service.scheduler import SolverService
from repro.telemetry.events import TraceContext
from repro.telemetry.recorder import Recorder

__all__ = ["NodeAgent"]


class _Assign:
    """One assign frame's walks, running as one local job."""

    def __init__(
        self, job_id: int, generation: int, walk_ids: list[int], handle: Any
    ) -> None:
        self.job_id = job_id
        self.generation = generation
        self.walk_ids = walk_ids
        self.handle = handle  # the local JobHandle
        self.reported = 0  # how many of handle.outcomes() were handled
        self.cancelled = False


class _Island:
    """One hosted island (protocol v6 cooperative assignment).

    Unlike independent walks — which become a job on the warm worker
    pool — an island is one dedicated thread driving resumable
    sessions in synchronized rounds: the round barrier needs all of the
    island's walkers advancing together, which the pool's independent
    completion model cannot express.
    """

    def __init__(
        self, job_id: int, island: int, generation: int, walk_ids: list[int]
    ) -> None:
        self.job_id = job_id
        self.island = island
        self.generation = generation
        self.walk_ids = walk_ids
        self.inbox: "queue.Queue[MigrantBatch]" = queue.Queue()
        self.cancel = threading.Event()
        self.thread: threading.Thread | None = None
        self.outcome: Any = None
        self.error: str | None = None
        #: set by the island thread as its last act, before it wakes the pump
        self.finished = False
        self.reported = False


class NodeAgent:
    """Connects a warm worker pool to a coordinator.

    Parameters
    ----------
    host / port:
        coordinator address to dial.  ``host`` may instead be an ordered
        address list (``"a:1,b:2"`` or a sequence of addresses, with
        ``port`` omitted): the first entry is the preferred (leader)
        coordinator, later entries are hot standbys tried in order.
    reconnect:
        re-home instead of dying when the coordinator connection drops:
        local work is discarded (the promoted coordinator re-dispatches
        every unfinished walk under a bumped generation anyway), the
        ordered address list is redialed with decorrelated-jitter
        backoff, and the agent rejoins as a fresh node.  Off by default —
        a plain agent still tears down on disconnect.
    reconnect_backoff / reconnect_max_delay / max_reconnect_attempts:
        the redial schedule (same shape as
        :class:`~repro.net.client.ClusterClient`).
    lease_timeout:
        seconds of total inbound silence after which the coordinator is
        presumed dead and re-homing begins (requires ``reconnect=True``
        and a v7 coordinator, which renews the lease every watchdog
        tick).  This catches the leader deaths a FIN never reports:
        when worker processes forked after connect still hold the
        socket's fd, closing it in the dead leader delivers no EOF at
        all.  ``None`` (default) disables the watchdog.
    n_workers:
        size of the local warm pool (reported as capacity in the
        handshake; ignored when ``service`` is supplied).
    name:
        node name shown in coordinator stats and result attribution.
    heartbeat_interval:
        seconds between heartbeat frames (keep well under the
        coordinator's ``heartbeat_timeout``).
    poll_every / mp_context:
        forwarded to the owned local service.
    service:
        an existing started :class:`SolverService` to borrow instead of
        owning one (tests share a pool across in-process agents).
    chaos:
        optional :class:`~repro.chaos.plan.FaultPlan`; node faults
        (``kill`` / ``partition`` / ``stall``) matching this agent's name
        are enacted from the heartbeat loop, and the plan is forwarded to
        the owned local service for walk-fault injection.
    recorder:
        telemetry recorder handed to the *owned* local service, so traced
        assignments produce dispatch/walk events in this node's trace file
        (ignored when ``service`` is supplied — the borrowed service keeps
        its own recorder).
    """

    def __init__(
        self,
        host: Any,
        port: int | None = None,
        *,
        n_workers: int = 2,
        name: Optional[str] = None,
        heartbeat_interval: float = 1.0,
        reconnect: bool = False,
        reconnect_backoff: float = 0.05,
        reconnect_max_delay: float = 2.0,
        max_reconnect_attempts: int = 20,
        lease_timeout: float | None = None,
        poll_every: int = 32,
        mp_context: str | None = None,
        service: SolverService | None = None,
        chaos: Any = None,
        recorder: Recorder | None = None,
    ) -> None:
        from repro.net.client import parse_addresses

        if heartbeat_interval <= 0:
            raise NetError(
                f"heartbeat_interval must be > 0, got {heartbeat_interval}"
            )
        if port is not None:
            self.addresses = [(str(host), int(port))]
        else:
            self.addresses = parse_addresses(host)
        self._addr_index = 0
        self.host, self.port = self.addresses[0]
        self.reconnect = reconnect
        self.reconnect_backoff = reconnect_backoff
        self.reconnect_max_delay = reconnect_max_delay
        self.max_reconnect_attempts = max_reconnect_attempts
        if lease_timeout is not None and lease_timeout <= 0:
            raise NetError(
                f"lease_timeout must be > 0, got {lease_timeout}"
            )
        self.lease_timeout = lease_timeout
        # bounds the hello/welcome exchange per address during (re)dial;
        # kept short when a lease window is configured so a wedged
        # endpoint costs about one failover's worth of waiting, not more
        self.handshake_timeout = (
            5.0 if lease_timeout is None else max(1.0, lease_timeout)
        )
        self.reconnects = 0
        self.name = name or f"agent-{id(self) & 0xFFFF:04x}"
        self.heartbeat_interval = heartbeat_interval
        self._service = service
        self._owns_service = service is None
        self.chaos = chaos
        if chaos is not None:
            chaos.arm()
        self.recorder = recorder
        self._service_kwargs = {
            "n_workers": n_workers,
            "poll_every": poll_every,
            "mp_context": mp_context,
            "recorder": recorder,
            "chaos": chaos,
        }
        self._last_load: dict[str, Any] | None = None
        self.n_workers = service.n_workers if service is not None else n_workers

        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._send_lock = asyncio.Lock()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._tasks: list[asyncio.Task] = []
        #: (job_id, generation, first walk id) -> in-flight assign
        self._assigns: dict[tuple[int, int, int], _Assign] = {}
        #: (job_id, island id) -> hosted island thread (protocol v6)
        self._islands: dict[tuple[int, int], _Island] = {}
        self._cancelled: dict[int, int] = {}  # job_id -> max cancelled gen
        #: protocol v4: problems received so far, by content digest — an
        #: assign naming a cached digest carries no problem payload at all
        self._problem_cache: dict[str, Any] = {}
        self._stopped = False
        #: set (from any thread, via :meth:`_wake_pump`) whenever the pump
        #: may have something to report
        self._wake = asyncio.Event()
        self.closed = asyncio.Event()
        self.node_id: int | None = None
        self._last_rx = 0.0
        self._rehoming = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Connect, handshake, start the worker pool and the agent tasks."""
        self._loop = asyncio.get_running_loop()
        await self._connect()
        if self._service is None:
            self._service = await asyncio.to_thread(
                lambda: SolverService(**self._service_kwargs).start()
            )
        self._start_tasks()

    async def _connect(self) -> None:
        """Dial + handshake against the first reachable coordinator.

        Cycles the ordered address list starting from the last good
        entry, so one call is one full pass over every known coordinator.
        """
        errors: list[str] = []
        for offset in range(len(self.addresses)):
            index = (self._addr_index + offset) % len(self.addresses)
            host, port = self.addresses[index]
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except OSError as err:
                errors.append(f"{host}:{port}: {err}")
                continue
            try:
                # a bounded handshake matters: a dead leader's listening
                # socket can stay half-alive (fds inherited by forked
                # workers), so connect succeeds but no welcome ever comes
                async def _handshake() -> Message | None:
                    await write_message(
                        writer,
                        Message(
                            "hello",
                            {
                                "role": "node",
                                "name": self.name,
                                "capacity": self.n_workers,
                                "protocol": PROTOCOL_VERSION,
                            },
                        ),
                    )
                    return await read_message(reader)

                welcome = await asyncio.wait_for(
                    _handshake(), self.handshake_timeout
                )
            except (
                NetError,
                ConnectionError,
                OSError,
                asyncio.TimeoutError,
            ) as err:
                if writer.transport is not None:
                    writer.transport.abort()
                errors.append(
                    f"{host}:{port}: {err or 'handshake timed out'}"
                )
                continue
            if welcome is None or welcome.type != "welcome":
                detail = welcome.get("error") if welcome is not None else "EOF"
                writer.close()
                errors.append(f"{host}:{port}: rejected: {detail}")
                continue
            self._addr_index = index
            self.host, self.port = host, port
            self._reader, self._writer = reader, writer
            self.node_id = welcome.get("node_id")
            self._last_rx = time.monotonic()
            return
        raise NetError(
            f"node {self.name} found no reachable coordinator: "
            + "; ".join(errors)
        )

    def _start_tasks(self) -> None:
        self._tasks = [
            asyncio.ensure_future(self._read_loop()),
            asyncio.ensure_future(self._heartbeat_loop()),
            asyncio.ensure_future(self._pump_loop()),
        ]
        if self.reconnect and self.lease_timeout is not None:
            self._tasks.append(
                asyncio.ensure_future(self._lease_watch_loop())
            )

    async def run(self) -> None:
        """Convenience for the CLI: start, then serve until disconnected."""
        await self.start()
        await self.closed.wait()

    async def stop(self) -> None:
        """Graceful teardown: close the connection, shut the pool down."""
        await self._teardown(abort=False)

    async def kill(self) -> None:
        """Abrupt death for failure-injection tests: the connection is
        aborted without a goodbye and in-flight walks are cancelled, so the
        coordinator sees exactly what a crashed host looks like."""
        await self._teardown(abort=True)

    async def _teardown(self, *, abort: bool) -> None:
        if self._stopped:
            return
        self._stopped = True
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks = []
        if self._writer is not None:
            if abort and self._writer.transport is not None:
                self._writer.transport.abort()
            else:
                self._writer.close()
        for assign in self._assigns.values():
            assign.handle.cancel()
        self._assigns.clear()
        for island_state in self._islands.values():
            island_state.cancel.set()
        for island_state in self._islands.values():
            if island_state.thread is not None:
                # the island loop polls its cancel event every <= 50ms, so
                # a short join is enough; a wedged thread is daemonic and
                # must not block teardown
                await asyncio.to_thread(island_state.thread.join, 1.0)
        self._islands.clear()
        if self._owns_service and self._service is not None:
            await asyncio.to_thread(
                self._service.shutdown, wait_jobs=False
            )
        self.closed.set()

    # ------------------------------------------------------------------
    # coordinator -> node
    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                message = await read_message(self._reader)
                if message is None:
                    break
                self._last_rx = time.monotonic()
                if message.type == "assign":
                    self._on_assign(message)
                elif message.type == "cancel":
                    self._on_cancel(message)
                elif message.type == "elite_push":
                    self._on_elite_push(message)
                elif message.type == "shutdown":
                    break
        except (NetError, ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            raise
        finally:
            if not self._stopped:
                asyncio.ensure_future(self._handle_disconnect())

    async def _lease_watch_loop(self) -> None:
        """Presume the coordinator dead after ``lease_timeout`` of silence.

        A v7 coordinator renews its lease on every heartbeat-watchdog
        tick, so *any* inbound frame resets the clock.  This is the only
        reliable death signal when the socket's fd is also held by
        processes forked after connect (workers inherit it), because the
        dead leader's close then never produces an EOF on our side.
        """
        assert self.lease_timeout is not None
        interval = min(0.25, self.lease_timeout / 4)
        while True:
            await asyncio.sleep(interval)
            if self._stopped:
                return
            if time.monotonic() - self._last_rx > self.lease_timeout:
                asyncio.ensure_future(self._handle_disconnect())
                return

    async def _handle_disconnect(self) -> None:
        """The coordinator connection dropped: re-home or tear down.

        Re-homing (``reconnect=True``, protocol v7) drops all local work
        first — whichever coordinator we join next re-dispatches every
        unfinished walk under a bumped generation, so anything this agent
        kept running would only ever report stale; the exactly-one-winner
        dedup makes the discard safe.  Then the ordered address list is
        redialed with decorrelated-jitter backoff (desynchronizing a
        whole fleet orphaned by the same dead leader) and the agent
        rejoins as a fresh node with a full load snapshot.
        """
        if self._stopped or not self.reconnect:
            await self.stop()
            return
        if self._rehoming:
            # the lease watcher and the cancelled read loop's finally can
            # both land here for the same drop — only the first proceeds
            return
        self._rehoming = True
        try:
            current = asyncio.current_task()
            for task in self._tasks:
                if task is not current:
                    task.cancel()
            self._tasks = []
            if (
                self._writer is not None
                and self._writer.transport is not None
            ):
                self._writer.transport.abort()
            for assign in self._assigns.values():
                assign.handle.cancel()
            self._assigns.clear()
            for island_state in self._islands.values():
                island_state.cancel.set()
            self._islands.clear()
            self._cancelled.clear()
            # the new coordinator has no baseline: send a full load
            # snapshot on the first heartbeat after re-homing
            self._last_load = None
            delay = self.reconnect_backoff
            for _ in range(self.max_reconnect_attempts):
                if self._stopped:
                    return
                await asyncio.sleep(delay)
                delay = min(
                    self.reconnect_max_delay,
                    random.uniform(self.reconnect_backoff, delay * 3),
                )
                try:
                    await self._connect()
                except NetError:
                    continue
                self.reconnects += 1
                self._start_tasks()
                return
            await self.stop()
        finally:
            self._rehoming = False

    def _on_assign(self, message: Message) -> None:
        job_id = message["job_id"]
        generation = message["generation"]
        if self._cancelled.get(job_id, -1) >= generation:
            return  # assignment raced a cancel we already processed
        payload = unpickle_blob(message.blob)
        digest = payload.get("problem_digest")
        if "problem" in payload:
            problem = payload["problem"]
            if digest:
                self._problem_cache[digest] = problem
        else:
            try:
                problem = self._problem_cache[digest]
            except KeyError:  # pragma: no cover - protocol guard
                raise NetError(
                    f"assign references unknown problem digest {digest!r}"
                ) from None
        config = payload.get("config")
        seeds = payload["seeds"]
        trace_id = message.get("trace_id") or ""
        if message.get("coop") is not None:
            # protocol v6: a cooperative assignment is one island, not a
            # bag of independent walks
            self._start_island(message, problem, config, seeds, trace_id)
            return
        # protocol v5: the cluster-level priority orders this node's own
        # dispatch queue too, so a premium job overtakes queued batch work
        priority = int(message.get("priority", 0) or 0)
        held = {
            walk_id
            for assign in self._assigns.values()
            if (assign.job_id, assign.generation) == (job_id, generation)
            for walk_id in assign.walk_ids
        }
        walk_ids = [w for w in message["walk_ids"] if w not in held]
        if not walk_ids:
            return  # duplicate assign (idempotent)
        assert self._service is not None
        # the walks keep their cluster-wide ids inside the local job, and
        # the trace context carries the cluster job id, so the local
        # scheduler and pool workers stamp cluster-scope events
        handle = self._service.submit_job(
            Job(
                problem=problem,
                n_walkers=len(walk_ids),
                seeds=[seeds[walk_id] for walk_id in walk_ids],
                walk_ids=walk_ids,
                config=config,
                priority=priority,
                trace=TraceContext(trace_id, job_id) if trace_id else None,
            )
        )
        self._assigns[(job_id, generation, walk_ids[0])] = _Assign(
            job_id, generation, walk_ids, handle
        )
        handle.notify(self._wake_pump)

    # ------------------------------------------------------------------
    # cooperative islands (protocol v6)
    # ------------------------------------------------------------------
    def _start_island(
        self,
        message: Message,
        problem: Any,
        config: Any,
        seeds: dict[int, Any],
        trace_id: str,
    ) -> None:
        """Host one island on a dedicated thread (idempotent per id)."""
        job_id = message["job_id"]
        island_id = int(message["island"])
        key = (job_id, island_id)
        if key in self._islands:
            return  # duplicate assign
        walk_ids = [int(w) for w in message["walk_ids"]]
        state = _Island(job_id, island_id, message["generation"], walk_ids)
        runner = IslandRunner(
            problem,
            config if config is not None else AdaptiveSearchConfig(),
            CoopConfig.from_wire(message["coop"]),
            island=island_id,
            walk_ids=walk_ids,
            seeds=[seeds[walk_id] for walk_id in walk_ids],
            send_report=self._make_report_sender(job_id, island_id),
            inbox=state.inbox,
            cancel=state.cancel,
            recorder=self.recorder,
            trace_id=trace_id,
            job_id=job_id,
        )

        def _run() -> None:
            try:
                state.outcome = runner.run()
            except Exception as err:  # noqa: BLE001 - reported upstream
                state.error = f"island {island_id} crashed: {err!r}"
            finally:
                state.finished = True
                self._wake_pump()

        state.thread = threading.Thread(
            target=_run,
            name=f"{self.name}-island-{job_id}-{island_id}",
            daemon=True,
        )
        self._islands[key] = state
        state.thread.start()

    def _make_report_sender(self, job_id: int, island_id: int) -> Any:
        """A thread-safe ``send_report`` callable for one island.

        Called from the island thread; the frame is scheduled onto the
        agent's event loop (fire-and-forget — a send failure looks like a
        lost push to the island, which times out and continues)."""

        def send_report(round_index: int, cost: float, config: Any) -> None:
            report = Message(
                "elite_report",
                {
                    "job_id": job_id,
                    "island": island_id,
                    "round_index": int(round_index),
                    "cost": float(cost),
                },
                blob=pickle_blob(np.asarray(config, dtype=np.int64)),
            )
            loop = self._loop
            if loop is None or loop.is_closed():
                return
            try:
                asyncio.run_coroutine_threadsafe(
                    self._send_quietly(report), loop
                )
            except RuntimeError:
                pass  # loop shut down mid-report: island will time out

        return send_report

    def _on_elite_push(self, message: Message) -> None:
        """Route a relayed migrant batch into its island's inbox."""
        key = (message["job_id"], message.get("island"))
        state = self._islands.get(key)
        if state is None or state.cancel.is_set():
            return  # island finished/cancelled: push arrived too late
        metas = message.get("migrants") or []
        raws = unpickle_blob(message.blob) if message.blob is not None else []
        migrants = []
        for meta, raw in zip(metas, raws):
            try:
                config = unpickle_blob(raw)
            except Exception:
                continue  # one corrupt migrant must not kill the batch
            migrants.append(
                (
                    int(meta.get("from", -1)),
                    float(meta.get("cost", 0.0)),
                    config,
                )
            )
        state.inbox.put(
            MigrantBatch(
                round_index=int(message.get("round_index", 0)),
                migrants=tuple(migrants),
            )
        )

    async def _report_island(self, state: _Island) -> None:
        """Ship one finished island's stats, then its walk outcomes.

        Order matters: ``island_stats`` first, so a winning island's
        adoption/migration counters are folded into the job-level coop
        summary before the solved walk triggers the job finish.  Cancelled
        islands report nothing — their counters died with the job.
        """
        try:
            if state.error is not None:
                for walk_id in state.walk_ids:
                    await self._send(
                        Message(
                            "walk_result",
                            {
                                "job_id": state.job_id,
                                "generation": state.generation,
                                "walk_id": walk_id,
                                "error": state.error,
                            },
                        )
                    )
                return
            outcome = state.outcome
            if outcome is None or outcome.cancelled:
                return
            await self._send(
                Message(
                    "island_stats",
                    {
                        "job_id": state.job_id,
                        "island": state.island,
                        "rounds": outcome.rounds,
                        "reports_sent": outcome.stats.get("reports_sent", 0),
                        "adoptions": outcome.stats.get("adoptions", 0),
                        "migrations_in": outcome.stats.get(
                            "migrations_in", 0
                        ),
                        "migrations_lost": outcome.stats.get(
                            "migrations_lost", 0
                        ),
                    },
                )
            )
            for walk in outcome.walks:
                await self._send(
                    outcome_to_message(
                        state.job_id, state.generation, walk
                    )
                )
        except (ConnectionError, OSError):
            pass  # the read loop will notice and tear the agent down

    def _on_cancel(self, message: Message) -> None:
        job_id = message["job_id"]
        generation = message["generation"]
        previous = self._cancelled.get(job_id, -1)
        self._cancelled[job_id] = max(previous, generation)
        for assign in self._assigns.values():
            if assign.job_id == job_id and assign.generation <= generation:
                assign.cancelled = True
                assign.handle.cancel()
        for (island_job, _), island_state in self._islands.items():
            if island_job == job_id and island_state.generation <= generation:
                island_state.cancel.set()
        # protocol v2: acknowledge after the local cancels are requested,
        # echoing sent_at verbatim so the coordinator measures the round
        # trip on its own clock (and trace_id so the ack stays correlated
        # even though the job is usually finished coordinator-side by now)
        if message.get("sent_at") is not None:
            ack = Message(
                "cancel_ack",
                {
                    "job_id": job_id,
                    "generation": generation,
                    "sent_at": message["sent_at"],
                    "trace_id": message.get("trace_id") or "",
                    "node": self.name,
                },
            )
            asyncio.ensure_future(self._send_quietly(ack))

    async def _send_quietly(self, message: Message) -> None:
        try:
            await self._send(message)
        except (ConnectionError, OSError):
            pass  # the read loop notices the broken pipe and tears down

    # ------------------------------------------------------------------
    # node -> coordinator
    # ------------------------------------------------------------------
    async def _send(self, message: Message) -> None:
        assert self._writer is not None
        async with self._send_lock:
            await write_message(self._writer, message)

    def _node_state(self) -> str:
        """This node's chaos state ("ok" when no plan targets it)."""
        if self.chaos is None:
            return "ok"
        return self.chaos.node_state(self.name)

    async def _heartbeat_loop(self) -> None:
        assert self._service is not None
        while True:
            state = self._node_state()
            if state == "kill":
                # abrupt death, scheduled so this task can be cancelled
                # from inside the teardown it triggers
                asyncio.ensure_future(self.kill())
                return
            if state in ("partition", "stall"):
                # silent: the coordinator's failure detector sees exactly
                # a hung/unreachable host (no heartbeat, connection alive)
                await asyncio.sleep(self.heartbeat_interval)
                continue
            load = self._service.metrics.to_json()
            if self._last_load is None:
                # first beat (and after any reconnect-from-scratch): the
                # full snapshot establishes the coordinator's baseline
                fields: dict[str, Any] = {"load": load}
            else:
                # protocol v2: subsequent beats carry only changed keys
                fields = {
                    "load_delta": {
                        key: value
                        for key, value in load.items()
                        if self._last_load.get(key) != value
                    }
                }
            self._last_load = load
            fields["running_walks"] = self._outstanding_walks()
            # protocol v3: per-walk progress rides in the heartbeat and
            # feeds the coordinator's straggler detector
            fields["progress"] = self._service.walk_progress()
            try:
                await self._send(Message("heartbeat", fields))
            except (ConnectionError, OSError):
                return
            await asyncio.sleep(self.heartbeat_interval)

    def _outstanding_walks(self) -> int:
        pool_walks = sum(
            len(assign.walk_ids) - assign.reported
            for assign in self._assigns.values()
            if not assign.cancelled and not assign.handle.done()
        )
        island_walks = sum(
            len(i.walk_ids)
            for i in self._islands.values()
            if not i.cancel.is_set()
            and not i.finished
        )
        return pool_walks + island_walks

    def _wake_pump(self) -> None:
        """Run the pump now.  Thread-safe: the local scheduler thread calls
        it after every slice report and on job completion
        (:meth:`JobHandle.notify`), an island thread as it ends."""
        loop = self._loop
        assert loop is not None  # assigns and islands only exist once started
        try:
            loop.call_soon_threadsafe(self._wake.set)
        except RuntimeError:
            pass  # loop already closed: nobody is left to report to

    async def _pump_loop(self) -> None:
        """Stream finished walks to the coordinator as they complete: one
        pass per wake-up (see :meth:`_wake_pump`), none while idle."""
        while True:
            await self._wake.wait()
            # cleared before the scan: a report landing mid-pass re-arms it
            self._wake.clear()
            if self._node_state() == "partition":
                # hold results back (not marked reported): the plan's heal
                # time re-arms the pump and they flow that moment
                asyncio.get_running_loop().call_later(
                    self.chaos.node_fault_remaining(self.name),
                    self._wake.set,
                )
                continue
            for key in list(self._assigns):
                assign = self._assigns.get(key)
                if assign is None:
                    continue
                # read done() first: the reports of a finished job are all
                # in outcomes() by then
                done = assign.handle.done()
                if done:
                    del self._assigns[key]
                if not assign.cancelled:
                    await self._report_assign(assign, done)
            for key in list(self._islands):
                island_state = self._islands.get(key)
                if (
                    island_state is None
                    or island_state.reported
                    or not island_state.finished
                ):
                    continue
                island_state.reported = True
                await self._report_island(island_state)
                del self._islands[key]

    async def _report_assign(self, assign: _Assign, done: bool) -> None:
        """Stream the walk reports that arrived since the last pump pass;
        once the local job is ``done``, settle the walks that never
        reported."""
        outcomes = assign.handle.outcomes()
        fresh = outcomes[assign.reported:]
        assign.reported = len(outcomes)
        try:
            for outcome in fresh:
                # a cancelled walk lost (to a fellow lane's solve, or to a
                # cancel that raced the report): it has nothing to say
                if outcome.reason is not TerminationReason.CANCELLED:
                    await self._send(
                        outcome_to_message(
                            assign.job_id, assign.generation, outcome
                        )
                    )
            if not done:
                return
            result = assign.handle.result(timeout=0)
            if result.status in (JobStatus.SOLVED, JobStatus.CANCELLED):
                return  # whoever is still missing was stopped, not failed
            # the local retry budget is spent: every walk left has failed
            # on this node
            finished = {outcome.walk_id for outcome in outcomes}
            for walk_id in assign.walk_ids:
                if walk_id in finished:
                    continue
                await self._send(
                    Message(
                        "walk_result",
                        {
                            "job_id": assign.job_id,
                            "generation": assign.generation,
                            "walk_id": walk_id,
                            "error": result.error
                            or f"walk ended {result.status.value} "
                            "with no outcome",
                        },
                    )
                )
        except (ConnectionError, OSError):
            pass  # the read loop will notice and tear the agent down
