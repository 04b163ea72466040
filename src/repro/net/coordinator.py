"""The cluster coordinator.

One asyncio TCP server owning all cluster-wide policy:

- **node registry** — agents connect in (``hello role=node``), carry a
  worker capacity, and prove liveness with periodic heartbeat frames; a
  node is declared dead on connection loss *or* heartbeat silence beyond
  ``heartbeat_timeout`` (the slow path catches hung-but-connected hosts);
- **job registry** — clients submit multi-walk jobs (problem + explicit
  per-walk seed list); walk indices are partitioned round-robin across the
  live nodes with :func:`repro.parallel.seeding.partition_walks`, so a
  cluster run is walk-for-walk the same set of trajectories as a
  single-host run with the same job seed;
- **first-finisher-wins across nodes** — the first solved walk report wins
  the job; the coordinator broadcasts ``cancel`` to every node holding a
  slice (the cluster-scope version of the PR 2 in-pool generation tokens)
  and answers the client immediately while losing walks drain remotely;
- **re-dispatch** — a dead node's unfinished walk indices are re-assigned
  to the survivors under a bumped job generation, at most
  ``max_redispatch`` times per job, after which the job fails loudly;
- **crash recovery** — with a ``journal_path``, every accepted job is
  written ahead to a JSONL journal (see :mod:`repro.net.journal`); a
  restarted coordinator replays the journal, re-creates every unfinished
  job under a strictly larger generation (stale pre-crash reports stay
  dropped) and re-dispatches it once nodes rejoin;
- **idempotent resubmission** — submits may carry a client-supplied
  ``client_key``; resubmitting the same key re-attaches the (reconnected)
  client to the still-running job, or replays the cached result if the
  job finished while the client was away — never a duplicate run;
- **straggler hedging** — per-walk progress ships in node heartbeats;
  once most of a job's walks are done, a walk that is both old and slow
  relative to the finished median is *hedged*: a second copy of the same
  seed and generation goes to another node, first copy wins, the loser is
  dropped as stale (off by default, ``hedge_factor=None``);
- **graceful degradation** — deadline expiry or unrecoverable cluster
  loss finishes the job with ``degraded=True`` and every outcome
  aggregated so far (best-so-far configuration) instead of raising;
- **aggregation & stats** — walk outcomes are folded into one
  :class:`~repro.net.results.NetJobResult`; a ``stats`` request returns
  coordinator counters plus every node's last heartbeat load (the
  per-node :meth:`MetricsSnapshot.to_json` snapshot).

The coordinator executes no walks itself — like the paper's OpenMPI
launcher it is pure control plane, which is why a single asyncio task per
connection is plenty even at large node counts.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import math
import time
from collections import OrderedDict, deque
from typing import Any, Optional

from repro.coop import CoopConfig, migration_routes
from repro.errors import CoopError, NetError
from repro.net.journal import (
    JobJournal,
    checkpoint_record,
    decode_payload,
    finish_record,
    generation_record,
    replay_journal,
    submit_record,
)
from repro.net.protocol import (
    PROTOCOL_VERSION,
    Message,
    pickle_blob,
    read_message,
    unpickle_blob,
    write_message,
)
from repro.net.results import (
    NetJobResult,
    job_result_to_message,
    outcome_from_message,
)
from repro.parallel.seeding import partition_walks
from repro.service.jobs import JobStatus
from repro.telemetry.events import (
    AssignEvent,
    CancelAck,
    CancelBroadcast,
    EliteReport,
    FirstSolve,
    HedgeDispatch,
    JobDispatch,
    JobFinish,
    JobSubmit,
    Migration,
)
from repro.telemetry.recorder import Recorder, get_recorder

__all__ = ["Coordinator"]

#: cancel round trips retained for the stats frame (ring buffer)
_MAX_CANCEL_SAMPLES = 1024

#: finished results cached for client_key replay (bounded LRU)
_MAX_FINISHED_CACHE = 256

#: per-connection write-queue depth before the slow-consumer policy kicks
#: in: droppable frames are discarded, job frames backpressure the sender
_MAX_SEND_QUEUE = 256

#: frame types a slow consumer may lose without breaking correctness —
#: telemetry and liveness hints, re-sent periodically anyway.  Job frames
#: (assign/cancel/job_result/replica_record/...) are NEVER dropped: a full
#: queue backpressures the coordinator task instead, which bounds leader
#: memory while preserving delivery.
_DROPPABLE_FRAMES = frozenset({"stats", "lease"})


class _Conn:
    """One connection with a bounded, serialized write queue.

    Many coordinator tasks may send concurrently; all writes funnel
    through one drain task per connection, so a stalled peer socket can
    hold at most ``max_queue`` frames of leader memory.  When the queue
    is full, frames in :data:`_DROPPABLE_FRAMES` are dropped and counted
    (``on_drop`` feeds the metrics registry); everything else waits.
    Write errors surface in the drain task, which aborts the connection —
    the per-connection reader task then runs the usual loss path.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        max_queue: int = _MAX_SEND_QUEUE,
        on_drop: Any = None,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self._send_lock = asyncio.Lock()
        self.closed = False
        #: a resilient client (hello ``reconnect=True``) keeps its jobs
        #: running on disconnect instead of having them cancelled
        self.resilient = False
        self.dropped_frames = 0
        self._on_drop = on_drop
        self._queue: asyncio.Queue[Message] = asyncio.Queue(maxsize=max_queue)
        self._writer_task: asyncio.Task | None = None

    async def send(self, message: Message) -> None:
        if self.closed:
            return
        if self._writer_task is None:
            self._writer_task = asyncio.ensure_future(self._drain_loop())
        if self._queue.full() and message.type in _DROPPABLE_FRAMES:
            self.dropped_frames += 1
            if self._on_drop is not None:
                self._on_drop(message.type)
            return
        await self._queue.put(message)

    async def _drain_loop(self) -> None:
        while True:
            message = await self._queue.get()
            try:
                async with self._send_lock:
                    await write_message(self.writer, message)
            except (NetError, ConnectionError, OSError):
                self.abort()
                return
            finally:
                # also runs on cancellation mid-write, so drain() waiters
                # are always released
                self._queue.task_done()

    async def drain(self) -> None:
        """Wait until every queued frame hit the transport (or the
        connection died — abort releases waiters either way)."""
        try:
            await asyncio.wait_for(self._queue.join(), timeout=5.0)
        except asyncio.TimeoutError:  # pragma: no cover - defensive
            pass

    async def close(self) -> None:
        """Graceful end: flush the queue, retire the writer task, FIN.

        For peers that must still read what was queued (a ``reject``):
        the RST of :meth:`abort` may discard a buffered frame first.
        """
        if self.closed:
            return
        await self.drain()
        self._retire()
        await self.wait_closed()
        self.writer.close()

    def abort(self) -> None:
        if not self.closed:
            self._retire()
            transport = self.writer.transport
            if transport is not None:
                transport.abort()

    def _retire(self) -> None:
        self.closed = True
        if self._writer_task is not None:
            self._writer_task.cancel()
        # release any drain() waiters: the unsent tail is gone anyway
        while True:
            try:
                self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            self._queue.task_done()

    async def wait_closed(self) -> None:
        """Wait out the cancelled writer task: a task still pending when
        its loop goes away is destroyed with a warning, never finished."""
        if self._writer_task is not None:
            await asyncio.gather(self._writer_task, return_exceptions=True)


class _Node:
    """Registry entry for one connected node agent."""

    def __init__(
        self,
        node_id: int,
        name: str,
        capacity: int,
        conn: _Conn,
    ) -> None:
        self.node_id = node_id
        self.name = name
        self.capacity = capacity
        self.conn = conn
        self.last_heartbeat = time.monotonic()
        self.load: dict[str, Any] = {}
        #: job_id -> walk ids currently assigned to this node
        self.assigned: dict[int, set[int]] = {}
        #: protocol v4: problem digests this connection has already
        #: received — later assigns ship a digest reference instead of the
        #: pickled problem (reset naturally on reconnect: new _Node)
        self.known_problems: set[str] = set()
        self.lost = False


class _CoopState:
    """Coordinator-side bookkeeping for one cooperative (island) job.

    The coordinator's role in a migration round is a *barrier relay*:
    every active island sends one ``elite_report`` per round and then
    waits; once every active island has an unconsumed report the
    coordinator routes them through the job's topology and answers every
    reporting island with exactly one ``elite_push`` (possibly carrying
    no migrants) — a uniform protocol with deterministic content.  The
    barrier counts *reports per island*, not matching round numbers, so
    an island re-created by a re-dispatch (whose local round counter
    restarts at 1) still participates instead of wedging the relay.
    Islands that die or finish shrink the expected set, and an island
    whose push is lost times out locally and continues (degradation,
    never deadlock).
    """

    def __init__(self, config: CoopConfig) -> None:
        self.config = config
        #: island id -> {"node": node_id, "walks": set, "generation": int}
        self.islands: dict[int, dict[str, Any]] = {}
        self.done: set[int] = set()  # sent island_stats (finished cleanly)
        self.lost: set[int] = set()  # hosting node died
        self.next_island = 0
        #: island id -> (island-local round index, cost, raw pickled
        #: config bytes) — at most one unconsumed report per island
        self.pending: dict[int, tuple[int, float, bytes]] = {}
        self.best_cost = math.inf
        self.stats = {
            "elite_reports": 0,
            "rounds_relayed": 0,
            "rounds_dropped": 0,
            "migrations_relayed": 0,
            "pushes_failed": 0,
            "island_reports": 0,
            "island_adoptions": 0,
            "island_migrations_in": 0,
            "island_migrations_lost": 0,
        }

    def active_islands(self) -> set[int]:
        """Islands still expected to report (live node, not finished)."""
        return {
            island
            for island in self.islands
            if island not in self.done and island not in self.lost
        }


class _NetJob:
    """Registry entry for one in-flight cluster job."""

    def __init__(
        self,
        job_id: int,
        request_id: int,
        client: Optional[_Conn],
        problem: Any,
        config: Any,
        seeds: list[Any],
        submitted_at: float,
        trace_id: str = "",
        client_key: str = "",
        priority: int = 0,
        coop: Optional[dict] = None,
    ) -> None:
        self.job_id = job_id
        self.trace_id = trace_id
        self.request_id = request_id
        #: ``None`` while the owning client is disconnected (resilient
        #: client away, or job recovered from the journal)
        self.client = client
        self.client_key = client_key
        #: protocol v5: orders the pending-dispatch queue (higher first)
        #: and travels in assign frames so node-local schedulers agree
        self.priority = priority
        self.problem = problem
        self.config = config
        self.seeds = seeds
        self.submitted_at = submitted_at
        self.deadline_at: Optional[float] = None
        self.generation = 0
        self.outstanding: set[int] = set(range(len(seeds)))
        self.outcomes: dict[int, Any] = {}
        self.nodes: dict[int, str] = {}
        self.winner: Any = None
        self.winner_node: Optional[str] = None
        self.redispatches = 0
        self.error: Optional[str] = None
        self.degraded = False
        #: straggler bookkeeping: last dispatch time and heartbeat progress
        #: per outstanding walk, wall times of finished walks, hedge caps
        self.dispatched_at: dict[int, float] = {}
        self.progress: dict[int, dict[str, Any]] = {}
        self.completed_walls: list[float] = []
        self.hedged: dict[int, int] = {}
        self.hedge_count = 0
        self._problem_digest: Optional[str] = None
        #: protocol v6: the validated coop wire dict (None = independent
        #: multi-walk) and the live island/migration bookkeeping
        self.coop = coop
        self.coop_state = (
            _CoopState(CoopConfig.from_wire(coop)) if coop is not None else None
        )

    @property
    def problem_digest(self) -> str:
        """Content digest of this job's problem (computed once)."""
        if self._problem_digest is None:
            from repro.parallel.shm import problem_digest

            self._problem_digest = problem_digest(self.problem)
        return self._problem_digest


class Coordinator:
    """Asyncio TCP coordinator for distributed multi-walk solving.

    Parameters
    ----------
    host / port:
        bind address; ``port=0`` picks a free port (read it back from
        :attr:`address` after :meth:`start` — how every test wires up).
    heartbeat_timeout:
        seconds of heartbeat silence after which a connected node is
        declared dead (connection loss is detected immediately regardless).
    check_interval:
        watchdog period for heartbeat scanning.
    max_redispatch:
        how many times one job's slices may be moved off dead nodes before
        the job fails.
    journal_path:
        when set, a :class:`~repro.net.journal.JobJournal` write-ahead log
        is kept there and replayed on :meth:`start` — unfinished jobs of a
        crashed predecessor are re-created and re-dispatched.
    journal_max_bytes:
        size trigger for journal rotation: once a ``finish`` append leaves
        the file over this many bytes it is compacted down to the
        unfinished jobs (``None`` = never rotate).
    hedge_factor:
        straggler hedging threshold: once at least half of a job's walks
        completed, an outstanding walk older than
        ``hedge_factor x median(finished wall times)`` (and slower than
        half the median iteration rate, when progress is known) gets a
        second copy on another node.  ``None`` disables hedging.
    max_hedges / min_hedge_delay:
        per-job cap on hedged copies, and the floor below which no walk is
        considered a straggler regardless of the median.
    predictor / hedge_quantile:
        a live :class:`~repro.autoscale.Predictor` upgrades hedging from
        the fixed multiplier to a *quantile trigger*: every solved walk's
        wall time streams into the predictor's runtime models, and an
        outstanding walk is hedged as soon as it outlives the fitted
        ``hedge_quantile`` (default p95) for its problem family — no need
        to wait for half of *this* job to finish, because the threshold
        comes from history.  Families the predictor has no model for yet
        fall back to the ``hedge_factor`` rule (when enabled) and their
        walks warm the model for next time.
    chaos:
        optional :class:`~repro.chaos.plan.FaultPlan` consulted at the
        ``submit`` / ``dispatch`` / ``walk_result`` / ``finish`` lifecycle
        points; a firing plan crashes the coordinator there (the
        in-process ``kill -9``).
    recorder:
        telemetry recorder for dispatch/cancel events; defaults to the
        process recorder (disabled unless configured).  Cancel round-trip
        stats are collected regardless — they feed the ``stats`` frame.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        heartbeat_timeout: float = 5.0,
        check_interval: float = 0.25,
        max_redispatch: int = 2,
        journal_path: Any = None,
        journal_max_bytes: int | None = None,
        hedge_factor: float | None = None,
        max_hedges: int = 2,
        min_hedge_delay: float = 0.25,
        predictor: Any = None,
        hedge_quantile: float | None = None,
        chaos: Any = None,
        recorder: Recorder | None = None,
    ) -> None:
        if heartbeat_timeout <= 0:
            raise NetError(
                f"heartbeat_timeout must be > 0, got {heartbeat_timeout}"
            )
        if max_redispatch < 0:
            raise NetError(
                f"max_redispatch must be >= 0, got {max_redispatch}"
            )
        if hedge_factor is not None and hedge_factor <= 0:
            raise NetError(f"hedge_factor must be > 0, got {hedge_factor}")
        if max_hedges < 0:
            raise NetError(f"max_hedges must be >= 0, got {max_hedges}")
        if hedge_quantile is not None and not 0.0 < hedge_quantile < 1.0:
            raise NetError(
                f"hedge_quantile must be in (0, 1), got {hedge_quantile}"
            )
        if hedge_quantile is not None and predictor is None:
            raise NetError("hedge_quantile requires a predictor")
        self.host = host
        self.port = port
        self.heartbeat_timeout = heartbeat_timeout
        self.check_interval = check_interval
        self.max_redispatch = max_redispatch
        self.journal_path = journal_path
        self.journal_max_bytes = journal_max_bytes
        self.hedge_factor = hedge_factor
        self.max_hedges = max_hedges
        self.min_hedge_delay = min_hedge_delay
        self.predictor = predictor
        self.hedge_quantile = hedge_quantile
        self.chaos = chaos
        if chaos is not None:
            chaos.arm()

        self._server: asyncio.AbstractServer | None = None
        self._watchdog: asyncio.Task | None = None
        self._journal: JobJournal | None = None
        self.crashed = False
        self._node_ids = itertools.count()
        self._job_ids = itertools.count()
        self._nodes: dict[int, _Node] = {}
        self._jobs: dict[int, _NetJob] = {}
        self._dispatch_offset = 0  # rotates the first node across dispatches
        self._pending: list[int] = []  # job ids waiting for a first node
        #: every accepted connection, from handshake to handler exit
        self._conns: set[_Conn] = set()
        self._clients: set[_Conn] = set()
        #: attached hot standbys tailing the journal stream
        self._replicas: set[_Conn] = set()
        #: highest job id ever issued (snapshot checkpoint high-water mark)
        self._max_job_id = -1
        #: client_key -> job_id of the still-running job with that key
        self._client_keys: dict[str, int] = {}
        #: client_key -> finished NetJobResult, for idempotent resubmission
        self._finished_by_key: OrderedDict[str, NetJobResult] = OrderedDict()
        self.recorder = recorder if recorder is not None else get_recorder()
        #: recent cancel round trips, coordinator-clock seconds (see the
        #: protocol v2 notes: sent_at is echoed back, so this is true RTT)
        self.cancel_latencies: deque[float] = deque(maxlen=_MAX_CANCEL_SAMPLES)
        self.counters = {
            "jobs_submitted": 0,
            "jobs_completed": 0,
            "jobs_solved": 0,
            "jobs_failed": 0,
            "jobs_cancelled": 0,
            "walks_dispatched": 0,
            "walk_results": 0,
            "stale_results": 0,
            "redispatches": 0,
            "nodes_joined": 0,
            "nodes_lost": 0,
            "cancels_sent": 0,
            "cancel_acks": 0,
            "hedges": 0,
            "hedges_quantile": 0,
            "recovered_jobs": 0,
            "reattached_clients": 0,
            "assigns_sent": 0,
            "assign_bytes": 0,
            "problems_shipped": 0,
            "repeat_assigns": 0,
            "repeat_assign_bytes": 0,
            "coop_jobs": 0,
            "elite_reports": 0,
            "migrations_relayed": 0,
            "migrations_lost": 0,
            "islands_lost": 0,
            "frames_dropped": 0,
            "replicas_joined": 0,
            "replica_records_streamed": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the actual (host, port)."""
        if self.journal_path is not None:
            self._recover_from_journal()
            self._journal = JobJournal(
                self.journal_path, max_bytes=self.journal_max_bytes
            )
            for job in self._jobs.values():
                # re-journal the recovered generation so a second crash
                # still starts above every assignment ever made
                self._journal.log_generation(job.job_id, job.generation)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._watchdog = asyncio.ensure_future(self._watch_heartbeats())
        return self.address

    def _recover_from_journal(self) -> None:
        """Replay the journal into fresh, undispatched job entries."""
        entries, max_job_id = replay_journal(self.journal_path)
        if max_job_id >= 0:
            self._job_ids = itertools.count(max_job_id + 1)
            self._max_job_id = max_job_id
        now = time.monotonic()
        for job_id in sorted(entries):
            entry = entries[job_id]
            try:
                payload = unpickle_blob(decode_payload(entry))
                seeds = list(payload["seeds"])
            except Exception:
                continue  # corrupt entry: skip it, recover the rest
            if not seeds:
                continue
            coop = entry.get("coop")
            if coop is not None:
                try:
                    CoopConfig.from_wire(coop)
                except CoopError:
                    # a corrupt coop dict must not lose the job: recover
                    # it as plain independent multi-walk instead
                    coop = None
            job = _NetJob(
                job_id=job_id,
                request_id=0,
                client=None,
                problem=payload["problem"],
                config=payload.get("config"),
                seeds=seeds,
                submitted_at=now,
                trace_id=entry.get("trace_id") or "",
                client_key=entry.get("client_key") or "",
                priority=int(entry.get("priority", 0) or 0),
                coop=coop,
            )
            # strictly above every journaled assignment: pre-crash reports
            # from surviving nodes stay stale (recovery invariant 2)
            job.generation = int(entry.get("generation", 0)) + 1
            deadline = entry.get("deadline")
            if deadline is not None:
                job.deadline_at = now + float(deadline)
            self._jobs[job_id] = job
            self._pending.append(job_id)
            if job.client_key:
                self._client_keys[job.client_key] = job_id
            self.counters["recovered_jobs"] += 1

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def node_names(self) -> list[str]:
        return sorted(n.name for n in self._nodes.values() if not n.lost)

    async def stop(self) -> None:
        """Close the server and every connection (idempotent)."""
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        await self._abort_connections()
        self._nodes.clear()
        self._clients.clear()
        self._replicas.clear()

    async def crash(self) -> None:
        """Die abruptly: no cancels, no client answers, no journal fsync.

        The in-process stand-in for ``kill -9`` — every connection is
        reset, the journal fd is dropped without a final sync, and all
        in-memory job state evaporates.  Recovery must come exclusively
        from the journal (which is exactly what the chaos tests assert).
        """
        self.crashed = True
        if self._journal is not None:
            self._journal.abort()
            self._journal = None
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None
        if self._server is not None:
            self._server.close()
            self._server = None
        await self._abort_connections()
        self._nodes.clear()
        self._clients.clear()
        self._replicas.clear()
        self._jobs.clear()
        self._pending.clear()
        self._client_keys.clear()

    async def _abort_connections(self) -> None:
        """Reset every connection and see its writer task finished."""
        conns = list(self._conns)
        for conn in conns:
            conn.abort()
        await asyncio.gather(*(conn.wait_closed() for conn in conns))

    async def _maybe_crash(self, point: str) -> bool:
        """Crash here if the chaos plan says so; True when we did."""
        if self.chaos is None or self.crashed:
            return self.crashed
        if not self.chaos.coordinator_crash(point):
            return False
        await self.crash()
        return True

    async def serve_forever(self) -> None:
        """Block until cancelled (the ``repro coordinator`` CLI loop)."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Conn(reader, writer, on_drop=self._on_frame_dropped)
        self._conns.add(conn)
        try:
            await self._serve_connection(conn)
        finally:
            self._conns.discard(conn)

    async def _serve_connection(self, conn: _Conn) -> None:
        """Handshake, then run the peer's role loop until it goes away."""
        try:
            hello = await read_message(conn.reader)
        except NetError:
            conn.abort()
            return
        if hello is None or hello.type != "hello":
            conn.abort()
            return
        # peers are built from one tree: one version, no window
        peer_version = hello.get("protocol")
        if type(peer_version) is not int or peer_version != PROTOCOL_VERSION:
            await conn.send(
                Message(
                    "reject",
                    {
                        "protocol": PROTOCOL_VERSION,
                        "error": (
                            f"protocol version mismatch: coordinator speaks "
                            f"{PROTOCOL_VERSION}, peer sent {peer_version!r}"
                        ),
                    },
                )
            )
            await conn.close()
            return
        role = hello.get("role")
        if role == "node":
            await self._run_node(conn, hello)
        elif role == "client":
            await self._run_client(conn, hello)
        elif role == "replica":
            await self._run_replica(conn)
        else:
            conn.abort()

    def _on_frame_dropped(self, frame_type: str) -> None:
        """Slow-consumer policy fired: account one discarded frame."""
        self.counters["frames_dropped"] += 1
        self.recorder.registry.counter("net.dropped_frames").inc()

    async def _run_node(self, conn: _Conn, hello: Message) -> None:
        node_id = next(self._node_ids)
        node = _Node(
            node_id=node_id,
            name=hello.get("name") or f"node-{node_id}",
            capacity=int(hello.get("capacity", 1)),
            conn=conn,
        )
        self._nodes[node_id] = node
        self.counters["nodes_joined"] += 1
        await conn.send(
            Message(
                "welcome",
                {"protocol": PROTOCOL_VERSION, "node_id": node_id},
            )
        )
        await self._flush_pending()
        try:
            while True:
                message = await read_message(conn.reader)
                if message is None:
                    break
                if message.type == "heartbeat":
                    node.last_heartbeat = time.monotonic()
                    if message.get("load") is not None:
                        node.load = message["load"]
                    elif message.get("load_delta") is not None:
                        # protocol v2 delta scheme: only changed keys travel
                        node.load.update(message["load_delta"])
                    progress = message.get("progress")
                    if progress:
                        self._ingest_progress(node, progress)
                elif message.type == "walk_result":
                    node.last_heartbeat = time.monotonic()
                    await self._on_walk_result(node, message)
                elif message.type == "elite_report":
                    node.last_heartbeat = time.monotonic()
                    await self._on_elite_report(node, message)
                elif message.type == "island_stats":
                    node.last_heartbeat = time.monotonic()
                    await self._on_island_stats(node, message)
                elif message.type == "cancel_ack":
                    node.last_heartbeat = time.monotonic()
                    self._on_cancel_ack(node, message)
        except (NetError, ConnectionError, OSError):
            pass
        finally:
            await self._node_lost(node, "connection lost")

    def _ingest_progress(self, node: _Node, progress: Any) -> None:
        """Fold heartbeat progress entries into their jobs (v3 frames)."""
        now = time.monotonic()
        for entry in progress:
            if not isinstance(entry, dict):
                continue
            job = self._jobs.get(entry.get("job_id"))
            if job is None:
                continue
            walk_id = entry.get("walk_id")
            if walk_id in job.outstanding:
                job.progress[walk_id] = {
                    "iterations": int(entry.get("iterations", 0)),
                    "elapsed": float(entry.get("elapsed", 0.0)),
                    "node": node.name,
                    "at": now,
                }

    async def _run_client(self, conn: _Conn, hello: Message) -> None:
        conn.resilient = bool(hello.get("reconnect", False))
        self._clients.add(conn)
        await conn.send(Message("welcome", {"protocol": PROTOCOL_VERSION}))
        try:
            while True:
                message = await read_message(conn.reader)
                if message is None:
                    break
                if message.type == "submit":
                    await self._on_submit(conn, message)
                elif message.type == "stats":
                    await conn.send(self._stats_message(message.get("request_id")))
        except (NetError, ConnectionError, OSError):
            pass
        finally:
            self._clients.discard(conn)
            conn.abort()
            await self._abandon_client_jobs(conn)

    # ------------------------------------------------------------------
    # replication (protocol v7 hot standby)
    # ------------------------------------------------------------------
    async def _run_replica(self, conn: _Conn) -> None:
        """Serve one hot standby: snapshot, then tail the journal stream.

        The standby is a read-only peer — after the snapshot it only ever
        receives ``replica_record`` and ``lease`` frames; anything it
        sends (nothing, today) is ignored until EOF.
        """
        await conn.send(Message("welcome", {"protocol": PROTOCOL_VERSION}))
        # register + snapshot with no await in between: a concurrent
        # submit can only queue its tee record *behind* the snapshot frame
        # (per-connection FIFO), so the standby never misses a record nor
        # sees one that predates its snapshot
        self._replicas.add(conn)
        self.counters["replicas_joined"] += 1
        snapshot = Message(
            "replica_snapshot", {"records": self._snapshot_records()}
        )
        await conn.send(snapshot)
        try:
            while True:
                message = await read_message(conn.reader)
                if message is None:
                    break
        except (NetError, ConnectionError, OSError):
            pass
        finally:
            self._replicas.discard(conn)
            conn.abort()

    def _snapshot_records(self) -> list[dict[str, Any]]:
        """Journal-style records reconstructing every live job.

        The same shape :func:`repro.net.journal.replay_journal` folds —
        a checkpoint with the job-id high-water mark (a promoted standby
        must never reuse an id a cached result may still reference), then
        one ``submit`` per live job plus its ``generation`` when above 0.
        Deadlines are re-based to the *remaining* budget so a standby
        promoted later does not grant dead jobs a second life.
        """
        now = time.monotonic()
        records: list[dict[str, Any]] = [checkpoint_record(self._max_job_id)]
        for job_id in sorted(self._jobs):
            job = self._jobs[job_id]
            deadline = None
            if job.deadline_at is not None:
                deadline = max(0.0, job.deadline_at - now)
            records.append(
                submit_record(
                    job_id,
                    client_key=job.client_key,
                    trace_id=job.trace_id,
                    n_walkers=len(job.seeds),
                    deadline=deadline,
                    payload=pickle_blob(
                        {
                            "problem": job.problem,
                            "config": job.config,
                            "seeds": job.seeds,
                        }
                    ),
                    priority=job.priority,
                    coop=job.coop,
                )
            )
            if job.generation:
                records.append(generation_record(job_id, job.generation))
        return records

    async def _replicate(self, record: dict[str, Any]) -> None:
        """Tee one journal record to every attached hot standby.

        ``replica_record`` frames are job frames — never dropped by the
        slow-consumer policy; a wedged standby backpressures the leader's
        own task instead of ballooning its memory.  Streams regardless of
        whether the leader keeps a journal file of its own.
        """
        if not self._replicas:
            return
        message = Message("replica_record", {"record": record})
        for replica in list(self._replicas):
            if replica.closed:
                self._replicas.discard(replica)
                continue
            await replica.send(message)
            self.counters["replica_records_streamed"] += 1

    # ------------------------------------------------------------------
    # submission and dispatch
    # ------------------------------------------------------------------
    async def _on_submit(self, client: _Conn, message: Message) -> None:
        if await self._maybe_crash("submit"):
            return
        payload = unpickle_blob(message.blob)
        seeds = list(payload["seeds"])
        if not seeds:
            await client.send(
                Message(
                    "error",
                    {
                        "request_id": message.get("request_id"),
                        "error": "submit carries no walk seeds",
                    },
                )
            )
            return
        client_key = message.get("client_key") or ""
        request_id = message.get("request_id", 0)
        if client_key:
            # idempotent resubmission: the same key either replays the
            # finished result or re-attaches to the still-running job —
            # it never starts a second copy of the work
            cached = self._finished_by_key.get(client_key)
            if cached is not None:
                await client.send(
                    Message(
                        "job_accepted",
                        {"request_id": request_id, "job_id": cached.job_id},
                    )
                )
                await client.send(job_result_to_message(cached, request_id))
                return
            active_id = self._client_keys.get(client_key)
            if active_id is not None and active_id in self._jobs:
                job = self._jobs[active_id]
                job.client = client
                job.request_id = request_id
                self.counters["reattached_clients"] += 1
                await client.send(
                    Message(
                        "job_accepted",
                        {"request_id": request_id, "job_id": active_id},
                    )
                )
                return
        coop = message.get("coop")
        if coop is not None:
            # the coop wire dict comes from outside: validate before use
            try:
                coop_config = CoopConfig.from_wire(coop)
            except CoopError as err:
                await client.send(
                    Message(
                        "error",
                        {
                            "request_id": request_id,
                            "error": f"invalid coop config: {err}",
                        },
                    )
                )
                return
            if coop_config.seed is None:
                await client.send(
                    Message(
                        "error",
                        {
                            "request_id": request_id,
                            "error": (
                                "cooperative submit carries no coop seed "
                                "(the client derives it from the job seed)"
                            ),
                        },
                    )
                )
                return
            coop = coop_config.to_wire()
            self.counters["coop_jobs"] += 1
        job_id = next(self._job_ids)
        self._max_job_id = max(self._max_job_id, job_id)
        job = _NetJob(
            job_id=job_id,
            request_id=request_id,
            client=client,
            problem=payload["problem"],
            config=payload.get("config"),
            seeds=seeds,
            submitted_at=time.monotonic(),
            trace_id=message.get("trace_id") or "",
            client_key=client_key,
            priority=int(message.get("priority", 0) or 0),
            coop=coop,
        )
        deadline = message.get("deadline")
        if deadline is not None:
            job.deadline_at = job.submitted_at + float(deadline)
        self._jobs[job_id] = job
        if client_key:
            self._client_keys[client_key] = job_id
        if self._journal is not None:
            # write-ahead: the job is durable before the client hears
            # "accepted" and before any node sees a slice of it
            self._journal.log_submit(
                job_id,
                client_key=client_key,
                trace_id=job.trace_id,
                n_walkers=len(seeds),
                deadline=deadline,
                payload=message.blob or b"",
                priority=job.priority,
                coop=coop,
            )
        await self._replicate(
            submit_record(
                job_id,
                client_key=client_key,
                trace_id=job.trace_id,
                n_walkers=len(seeds),
                deadline=deadline,
                payload=message.blob or b"",
                priority=job.priority,
                coop=coop,
            )
        )
        self.counters["jobs_submitted"] += 1
        if self.recorder.enabled:
            self.recorder.emit(
                JobSubmit(
                    trace_id=job.trace_id,
                    job_id=job_id,
                    n_walkers=len(seeds),
                    problem=getattr(
                        job.problem, "name", type(job.problem).__name__
                    ),
                )
            )
        await client.send(
            Message(
                "job_accepted",
                {"request_id": job.request_id, "job_id": job_id},
            )
        )
        live = self._live_nodes()
        if not live:
            self._pending.append(job_id)
            return
        await self._dispatch(job, sorted(job.outstanding), live)

    def _live_nodes(self) -> list[_Node]:
        return [
            n for n in self._nodes.values() if not n.lost and not n.conn.closed
        ]

    async def _flush_pending(self) -> None:
        """Dispatch jobs that were waiting for a first node to join."""
        if not self._pending:
            return
        live = self._live_nodes()
        if not live:
            return
        pending, self._pending = self._pending, []
        # protocol v5: drain the backlog highest-priority first; equal
        # priorities keep their submission order (job ids are monotonic),
        # so an all-default backlog stays plain FIFO
        pending.sort(
            key=lambda job_id: (
                -(self._jobs[job_id].priority if job_id in self._jobs else 0),
                job_id,
            )
        )
        for job_id in pending:
            job = self._jobs.get(job_id)
            if job is not None:
                await self._dispatch(job, sorted(job.outstanding), live)

    async def _dispatch(
        self, job: _NetJob, walk_ids: list[int], nodes: list[_Node]
    ) -> None:
        """Partition ``walk_ids`` round-robin over ``nodes`` and ship slices.

        The starting node rotates across dispatch calls so a stream of
        jobs smaller than the cluster (e.g. the single-walk jobs of
        ``collect_samples(cluster=...)``) spreads over every node instead
        of piling onto the first one.  Rotation moves only *where* a walk
        runs; its seed — and hence trajectory — travels with the walk id.
        """
        if await self._maybe_crash("dispatch"):
            return
        start = self._dispatch_offset % len(nodes)
        self._dispatch_offset += 1
        nodes = nodes[start:] + nodes[:start]
        slices = partition_walks(len(walk_ids), len(nodes))
        now = time.monotonic()
        for node, index_slice in zip(nodes, slices):
            slice_ids = [walk_ids[i] for i in index_slice]
            if not slice_ids:
                continue
            island_id: Optional[int] = None
            if job.coop_state is not None:
                # one island per node-slice; ids are never reused, so a
                # replacement island after a re-dispatch is a *new*
                # identity and stale elite reports stay unambiguous
                state = job.coop_state
                island_id = state.next_island
                state.next_island += 1
                state.islands[island_id] = {
                    "node": node.node_id,
                    "walks": set(slice_ids),
                    "generation": job.generation,
                }
            node.assigned.setdefault(job.job_id, set()).update(slice_ids)
            for walk_id in slice_ids:
                job.dispatched_at[walk_id] = now
            self.counters["walks_dispatched"] += len(slice_ids)
            if self.recorder.enabled:
                self.recorder.emit(
                    AssignEvent(
                        trace_id=job.trace_id,
                        job_id=job.job_id,
                        node=node.name,
                        walk_ids=tuple(slice_ids),
                        generation=job.generation,
                    )
                )
                for walk_id in slice_ids:
                    self.recorder.emit(
                        JobDispatch(
                            trace_id=job.trace_id,
                            job_id=job.job_id,
                            walk_id=walk_id,
                            node=node.name,
                        )
                    )
            fields: dict[str, Any] = {
                "job_id": job.job_id,
                "generation": job.generation,
                "walk_ids": slice_ids,
                "trace_id": job.trace_id,
                "priority": job.priority,
            }
            if island_id is not None:
                fields["coop"] = job.coop
                fields["island"] = island_id
            try:
                await node.conn.send(
                    Message(
                        "assign",
                        fields,
                        blob=self._assign_blob(job, node, slice_ids),
                    )
                )
            except (ConnectionError, OSError):
                # the node died mid-assign; the reader task notices the
                # same broken pipe and re-dispatch happens there
                node.conn.abort()

    def _assign_blob(
        self, job: _NetJob, node: _Node, slice_ids: list[int]
    ) -> bytes:
        """Build one assign payload, shipping the problem at most once.

        Protocol v4: the payload always names the problem by content
        digest; the pickled problem itself rides along only the first time
        this connection sees that digest (re-dispatches, hedges and later
        jobs over the same problem are then near-empty frames).  The known
        set lives on the connection, so a reconnected node transparently
        receives the problem again.
        """
        digest = job.problem_digest
        payload: dict[str, Any] = {
            "problem_digest": digest,
            "config": job.config,
            "seeds": {walk_id: job.seeds[walk_id] for walk_id in slice_ids},
        }
        first_ship = digest not in node.known_problems
        if first_ship:
            payload["problem"] = job.problem
            node.known_problems.add(digest)
            self.counters["problems_shipped"] += 1
        blob = pickle_blob(payload)
        self.counters["assigns_sent"] += 1
        self.counters["assign_bytes"] += len(blob)
        if not first_ship:
            self.counters["repeat_assigns"] += 1
            self.counters["repeat_assign_bytes"] += len(blob)
        return blob

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    async def _on_walk_result(self, node: _Node, message: Message) -> None:
        if await self._maybe_crash("walk_result"):
            return
        self.counters["walk_results"] += 1
        job = self._jobs.get(message["job_id"])
        walk_id = message["walk_id"]
        if job is None or walk_id not in job.outstanding:
            # late loser after a cancel, a zombie assignment generation, or
            # the losing copy of a hedged walk: the outstanding-membership
            # check means stale reports are simply dropped here, never
            # double-counted
            self.counters["stale_results"] += 1
            return
        # a hedged walk may be assigned on several nodes; clear them all
        for holder in self._nodes.values():
            holder.assigned.get(job.job_id, set()).discard(walk_id)
        job.outstanding.discard(walk_id)
        job.progress.pop(walk_id, None)
        job.nodes[walk_id] = node.name
        if message.get("error") is not None:
            # the walk failed remotely even after the node's local retries
            job.error = message["error"]
            if not job.outstanding and job.winner is None:
                await self._finish(job, JobStatus.FAILED)
            return
        outcome = outcome_from_message(message)
        job.outcomes[walk_id] = outcome
        job.completed_walls.append(outcome.wall_time)
        if self.predictor is not None and outcome.solved:
            # every solved walk teaches the runtime models; unsolved walks
            # are censored observations (cancelled losers, iteration caps)
            # and would bias the fit, so they stay out
            self._observe_walk(job, outcome.wall_time)
        if outcome.solved and job.winner is None:
            job.winner = outcome
            job.winner_node = node.name
            if self.recorder.enabled:
                self.recorder.emit(
                    FirstSolve(
                        trace_id=job.trace_id,
                        job_id=job.job_id,
                        walk_id=walk_id,
                        node=node.name,
                        wall_time=outcome.wall_time,
                    )
                )
            await self._broadcast_cancel(job)
            await self._finish(job, JobStatus.SOLVED)
        elif not job.outstanding:
            await self._finish(
                job, JobStatus.FAILED if job.error else JobStatus.UNSOLVED
            )

    def _observe_walk(self, job: _NetJob, wall_time: float) -> None:
        """Feed one solved walk's wall time into the predictor's models."""
        family = getattr(job.problem, "family", None)
        if not family:
            return
        size = getattr(job.problem, "size", None)
        try:
            self.predictor.observe(
                family,
                wall_time,
                size=int(size) if size is not None else None,
            )
        except (TypeError, ValueError):
            pass  # a malformed problem shape must never kill the reader

    # ------------------------------------------------------------------
    # cooperative search: elite migration relay (protocol v6)
    # ------------------------------------------------------------------
    async def _on_elite_report(self, node: _Node, message: Message) -> None:
        """Buffer one island's elite for the barrier relay."""
        self.counters["elite_reports"] += 1
        job = self._jobs.get(message.get("job_id"))
        if job is None or job.coop_state is None:
            self.counters["stale_results"] += 1
            return
        state = job.coop_state
        island = message.get("island")
        if (
            island not in state.islands
            or island in state.done
            or island in state.lost
            or message.blob is None
        ):
            # an island id from a pre-redispatch assignment (ids are never
            # reused) or a malformed frame: drop, never mis-route
            self.counters["stale_results"] += 1
            return
        round_index = int(message.get("round_index", 0))
        cost = float(message["cost"])
        state.stats["elite_reports"] += 1
        if cost < state.best_cost:
            state.best_cost = cost
        # at most one unconsumed report per island: a newer report simply
        # replaces one that never completed a barrier (its island timed
        # out locally and moved on)
        state.pending[island] = (round_index, cost, message.blob)
        if self.recorder.enabled:
            self.recorder.emit(
                EliteReport(
                    trace_id=job.trace_id,
                    job_id=job.job_id,
                    island=island,
                    round_index=round_index,
                    cost=cost,
                    node=node.name,
                )
            )
        await self._relay_rounds(job)

    async def _relay_rounds(self, job: _NetJob) -> None:
        """Relay every migration round whose barrier is now complete.

        Called whenever the barrier inputs change: a report arrived, an
        island finished (``island_stats``), or a hosting node died — the
        last two *shrink* the expected set, which can complete a round
        that was waiting on the shrunk-away island.
        """
        state = job.coop_state
        if state is None:
            return
        # reports from islands that died or finished while buffered can
        # never be pushed back — drop them and account the loss
        for island in list(state.pending):
            if island in state.done or island in state.lost:
                del state.pending[island]
                state.stats["rounds_dropped"] += 1
                self.counters["migrations_lost"] += 1
        active = state.active_islands()
        if not active or not active <= set(state.pending):
            return
        reports = {island: state.pending.pop(island) for island in active}
        await self._relay_round(job, reports)

    async def _relay_round(
        self, job: _NetJob, reports: dict[int, tuple[int, float, bytes]]
    ) -> None:
        """Route one complete round's elites and push the migrant batches.

        Everything here is a pure function of the (sorted) reports and the
        relay counter, so two runs with the same seed and topology produce
        bit-identical migration logs — the determinism the trace-diff test
        asserts.  The coordinator never unpickles a configuration: the raw
        report blobs are forwarded verbatim inside the push blob.
        """
        state = job.coop_state
        assert state is not None
        relay_index = state.stats["rounds_relayed"] + 1
        participants = sorted(reports)
        best_island = min(participants, key=lambda i: (reports[i][1], i))
        try:
            routes = migration_routes(
                state.config.topology,
                participants,
                round_index=relay_index,
                group_size=state.config.group_size,
                best_island=best_island,
            )
        except CoopError:  # pragma: no cover - defensive: topologies are
            state.stats["rounds_dropped"] += 1  # validated at submit
            return
        state.stats["rounds_relayed"] += 1
        for target in participants:
            sources = routes.get(target, [])
            entry = state.islands.get(target)
            node = self._nodes.get(entry["node"]) if entry else None
            if node is None or node.lost or node.conn.closed:
                state.stats["pushes_failed"] += 1
                self.counters["migrations_lost"] += len(sources)
                continue
            push = Message(
                "elite_push",
                {
                    "job_id": job.job_id,
                    "island": target,
                    # echo the *target's own* reported round index so the
                    # island's inbox matches it against its current round
                    "round_index": reports[target][0],
                    "migrants": [
                        {"from": source, "cost": reports[source][1]}
                        for source in sources
                    ],
                },
                blob=(
                    pickle_blob([reports[source][2] for source in sources])
                    if sources
                    else None
                ),
            )
            try:
                await node.conn.send(push)
            except (ConnectionError, OSError):
                node.conn.abort()
                state.stats["pushes_failed"] += 1
                self.counters["migrations_lost"] += len(sources)
                continue
            state.stats["migrations_relayed"] += len(sources)
            self.counters["migrations_relayed"] += len(sources)
            if self.recorder.enabled:
                for source in sources:
                    self.recorder.emit(
                        Migration(
                            trace_id=job.trace_id,
                            job_id=job.job_id,
                            round_index=relay_index,
                            from_island=source,
                            to_island=target,
                            cost=reports[source][1],
                            digest=hashlib.sha256(
                                reports[source][2]
                            ).hexdigest()[:12],
                        )
                    )

    async def _on_island_stats(self, node: _Node, message: Message) -> None:
        """An island finished: fold its counters, shrink the barrier."""
        job = self._jobs.get(message.get("job_id"))
        if job is None or job.coop_state is None:
            return
        state = job.coop_state
        island = message.get("island")
        if (
            island not in state.islands
            or island in state.done
            or island in state.lost
        ):
            return
        state.done.add(island)
        state.stats["island_reports"] += 1
        state.stats["island_adoptions"] += int(message.get("adoptions", 0))
        state.stats["island_migrations_in"] += int(
            message.get("migrations_in", 0)
        )
        lost = int(message.get("migrations_lost", 0))
        state.stats["island_migrations_lost"] += lost
        self.counters["migrations_lost"] += lost
        # the expected set shrank: a round waiting on this island may now
        # be complete
        await self._relay_rounds(job)

    async def _broadcast_cancel(self, job: _NetJob) -> None:
        """Tell every node holding a slice of ``job`` to stop its walks.

        The frame carries the coordinator's monotonic ``sent_at``; nodes
        echo it in their ``cancel_ack``, so :meth:`_on_cancel_ack` measures
        the propagation round trip on one clock, free of host skew.
        """
        cancelled_nodes: list[str] = []
        for node in self._live_nodes():
            if node.assigned.pop(job.job_id, None):
                cancel = Message(
                    "cancel",
                    {
                        "job_id": job.job_id,
                        "generation": job.generation,
                        "sent_at": time.monotonic(),
                        "trace_id": job.trace_id,
                    },
                )
                try:
                    await node.conn.send(cancel)
                except (ConnectionError, OSError):
                    node.conn.abort()
                    continue
                cancelled_nodes.append(node.name)
                self.counters["cancels_sent"] += 1
        if cancelled_nodes and self.recorder.enabled:
            self.recorder.emit(
                CancelBroadcast(
                    trace_id=job.trace_id,
                    job_id=job.job_id,
                    nodes=tuple(cancelled_nodes),
                )
            )

    def _on_cancel_ack(self, node: _Node, message: Message) -> None:
        """A node confirmed a cancel; ``sent_at`` round-tripped verbatim."""
        self.counters["cancel_acks"] += 1
        sent_at = message.get("sent_at")
        latency = (
            max(0.0, time.monotonic() - sent_at)
            if isinstance(sent_at, (int, float))
            else 0.0
        )
        self.cancel_latencies.append(latency)
        recorder = self.recorder
        if recorder.enabled:
            recorder.registry.histogram("net.cancel_latency").observe(latency)
            job_id = message.get("job_id", -1)
            job = self._jobs.get(job_id)
            recorder.emit(
                CancelAck(
                    # the job is usually already finished when acks arrive;
                    # recover the trace id from the frame in that case
                    trace_id=(
                        job.trace_id
                        if job is not None
                        else message.get("trace_id") or ""
                    ),
                    job_id=job_id,
                    node=node.name,
                    latency=latency,
                )
            )

    async def _finish(self, job: _NetJob, status: JobStatus) -> None:
        if await self._maybe_crash("finish"):
            return
        if self._jobs.pop(job.job_id, None) is None:
            return  # already finished through another path
        # idempotent: stops the losing copies of hedged walks (and any
        # slice the solved-path broadcast already handled is a no-op)
        await self._broadcast_cancel(job)
        if self._journal is not None:
            # journal the terminal state *before* the client hears it
            # (recovery invariant 4)
            self._journal.log_finish(job.job_id, status.value)
        await self._replicate(finish_record(job.job_id, status.value))
        if job.client_key:
            self._client_keys.pop(job.client_key, None)
        self.counters["jobs_completed"] += 1
        if status is JobStatus.SOLVED:
            self.counters["jobs_solved"] += 1
        elif status is JobStatus.FAILED:
            self.counters["jobs_failed"] += 1
        elif status is JobStatus.CANCELLED:
            self.counters["jobs_cancelled"] += 1
        wall_time = time.monotonic() - job.submitted_at
        if self.recorder.enabled:
            self.recorder.emit(
                JobFinish(
                    trace_id=job.trace_id,
                    job_id=job.job_id,
                    status=status.value,
                    latency=wall_time,
                )
            )
            self.recorder.emit_span(
                "coordinator.job",
                start=time.time() - wall_time,
                duration=wall_time,
                trace_id=job.trace_id,
                job_id=job.job_id,
                status=status.value,
            )
        coop_summary: Optional[dict] = None
        if job.coop_state is not None:
            state = job.coop_state
            stats = state.stats
            coop_summary = {
                "topology": state.config.topology,
                "islands": state.next_island,
                "islands_lost": len(state.lost),
                "elite_reports": stats["elite_reports"],
                "rounds_relayed": stats["rounds_relayed"],
                "rounds_dropped": stats["rounds_dropped"],
                "migrations_relayed": stats["migrations_relayed"],
                # everything cooperation promised but never delivered:
                # island-side push timeouts plus relay-side losses
                "migrations_lost": (
                    stats["island_migrations_lost"]
                    + stats["rounds_dropped"]
                    + stats["pushes_failed"]
                ),
                "adoptions": stats["island_adoptions"],
                "migrations_in": stats["island_migrations_in"],
                "best_cost": (
                    state.best_cost if math.isfinite(state.best_cost) else None
                ),
            }
        result = NetJobResult(
            job_id=job.job_id,
            status=status,
            n_walkers=len(job.seeds),
            walks=[job.outcomes[k] for k in sorted(job.outcomes)],
            winner=job.winner,
            winner_node=job.winner_node,
            nodes=dict(job.nodes),
            error=job.error,
            redispatches=job.redispatches,
            wall_time=wall_time,
            degraded=job.degraded,
            coop=coop_summary,
        )
        if job.client_key:
            # keep the result around so a resubmission of the same key
            # (reconnected client, post-recovery replay) gets this exact
            # answer instead of a second run
            self._finished_by_key[job.client_key] = result
            while len(self._finished_by_key) > _MAX_FINISHED_CACHE:
                self._finished_by_key.popitem(last=False)
        if job.client is not None and not job.client.closed:
            try:
                await job.client.send(
                    job_result_to_message(result, job.request_id)
                )
            except (ConnectionError, OSError):
                job.client.abort()

    async def _abandon_client_jobs(self, client: _Conn) -> None:
        """A disconnected client's jobs are cancelled cluster-wide —
        unless the client declared itself resilient (hello
        ``reconnect=True``), in which case its jobs keep running detached
        and the client re-attaches by resubmitting its ``client_key``."""
        for job in [j for j in self._jobs.values() if j.client is client]:
            if client.resilient:
                job.client = None
                continue
            await self._broadcast_cancel(job)
            await self._finish(job, JobStatus.CANCELLED)

    # ------------------------------------------------------------------
    # node failure
    # ------------------------------------------------------------------
    async def _watch_heartbeats(self) -> None:
        while True:
            await asyncio.sleep(self.check_interval)
            now = time.monotonic()
            for node in list(self._nodes.values()):
                if node.lost:
                    continue
                if now - node.last_heartbeat > self.heartbeat_timeout:
                    node.conn.abort()
                    await self._node_lost(node, "heartbeat timeout")
            await self._broadcast_lease(now)
            await self._check_deadlines(now)
            if self.hedge_factor is not None or self.hedge_quantile is not None:
                await self._check_stragglers(now)

    async def _broadcast_lease(self, now: float) -> None:
        """Renew the leader lease on every attached standby (v7).

        Rides the heartbeat watchdog tick, so a leader whose event loop
        wedges stops renewing exactly like one whose process died — both
        trip the standby's ``lease_timeout``.  Lease frames are droppable
        under the slow-consumer policy: a standby too stalled to drain
        them *should* be treated as gone.

        Node agents get the same frames: their connections can outlive
        a dead leader (forked workers keep the socket's fd open, so no FIN
        is ever delivered), and lease silence is what triggers re-homing.
        """
        lease = Message(
            "lease",
            {
                "sent_at": now,
                "jobs_active": len(self._jobs),
                "jobs_pending": len(self._pending),
            },
        )
        for replica in list(self._replicas):
            if not replica.closed:
                await replica.send(lease)
        for node in list(self._nodes.values()):
            if not node.lost and not node.conn.closed:
                await node.conn.send(lease)

    async def _check_deadlines(self, now: float) -> None:
        """Expire overdue jobs with best-so-far results (degradation)."""
        for job in list(self._jobs.values()):
            if job.deadline_at is None or now < job.deadline_at:
                continue
            job.degraded = bool(job.outcomes)
            job.error = job.error or (
                f"deadline expired with {len(job.outstanding)} of "
                f"{len(job.seeds)} walks unfinished"
            )
            await self._finish(job, JobStatus.TIMED_OUT)

    # ------------------------------------------------------------------
    # straggler hedging
    # ------------------------------------------------------------------
    def _quantile_threshold(self, job: _NetJob) -> Optional[float]:
        """Predictor-backed straggler threshold for ``job``'s family.

        The fitted ``hedge_quantile`` runtime (e.g. p95) of the problem
        family, learned from *previous* walks cluster-wide — available
        from the first walk of a job, unlike the median rule which needs
        half of this job to finish first.  ``None`` when no model exists.
        """
        if self.predictor is None or self.hedge_quantile is None:
            return None
        family = getattr(job.problem, "family", None)
        if not family:
            return None
        size = getattr(job.problem, "size", None)
        try:
            delay = self.predictor.hedge_delay(
                family,
                size=int(size) if size is not None else None,
                quantile=self.hedge_quantile,
            )
        except (TypeError, ValueError):
            return None
        if delay is None:
            return None
        return max(float(delay), self.min_hedge_delay)

    def _median_threshold(self, job: _NetJob) -> Optional[float]:
        """The fixed-multiplier fallback: ``hedge_factor x median`` of this
        job's finished walls, armed only once half the job completed."""
        if self.hedge_factor is None:
            return None
        total = len(job.seeds)
        completed = total - len(job.outstanding)
        if not job.completed_walls or completed * 2 < total:
            return None  # too early to call anything a straggler
        walls = sorted(job.completed_walls)
        median_wall = walls[len(walls) // 2]
        return max(self.hedge_factor * median_wall, self.min_hedge_delay)

    async def _check_stragglers(self, now: float) -> None:
        """Hedge outstanding straggler walks (see ctor).

        Trigger ladder per job: the predictor's quantile threshold when a
        runtime model exists, else the median-multiplier rule.  The
        quantile path needs no within-job completions and no progress
        heuristics — history already says what "too long" means; the
        median path keeps its old-and-slow double check.
        """
        for job in list(self._jobs.values()):
            if job.coop_state is not None:
                # a hedged duplicate island would double-report into the
                # migration barrier; cooperative jobs are never hedged
                continue
            quantile_threshold = self._quantile_threshold(job)
            median_threshold = (
                self._median_threshold(job)
                if quantile_threshold is None
                else None
            )
            if quantile_threshold is None and median_threshold is None:
                continue
            for walk_id in sorted(job.outstanding):
                if job.hedge_count >= self.max_hedges:
                    break
                if job.hedged.get(walk_id, 0) >= 1:
                    continue  # one hedged copy per walk is the cap
                started = job.dispatched_at.get(walk_id)
                if started is None:
                    continue
                elapsed = now - started
                if quantile_threshold is not None:
                    if elapsed > quantile_threshold:
                        await self._hedge(
                            job,
                            walk_id,
                            elapsed,
                            trigger="quantile",
                            threshold=quantile_threshold,
                        )
                elif elapsed > median_threshold and self._is_slow(
                    job, walk_id
                ):
                    await self._hedge(
                        job,
                        walk_id,
                        elapsed,
                        trigger="median_factor",
                        threshold=median_threshold,
                    )

    def _is_slow(self, job: _NetJob, walk_id: int) -> bool:
        """Slow = no progress report, or under half the median iteration
        rate of this job's finished walks."""
        entry = job.progress.get(walk_id)
        if entry is None:
            return True
        rates = [
            o.iterations / max(o.wall_time, 1e-9)
            for o in job.outcomes.values()
        ]
        if not rates:
            return True
        rates.sort()
        median_rate = rates[len(rates) // 2]
        elapsed = max(float(entry.get("elapsed", 0.0)), 1e-9)
        rate = float(entry.get("iterations", 0)) / elapsed
        return rate < 0.5 * median_rate

    async def _hedge(
        self,
        job: _NetJob,
        walk_id: int,
        elapsed: float,
        *,
        trigger: str = "",
        threshold: float = 0.0,
    ) -> None:
        """Dispatch a duplicate of ``walk_id`` to another node.

        Same seed, same generation: whichever copy reports first wins the
        walk (outstanding-membership drops the loser as stale), so hedging
        never changes *what* is computed, only how long the tail waits.
        ``trigger``/``threshold`` record *why* it fired for `repro trace`.
        """
        slow_node = None
        for node in self._live_nodes():
            if walk_id in node.assigned.get(job.job_id, set()):
                slow_node = node
                break
        candidates = [n for n in self._live_nodes() if n is not slow_node]
        if not candidates:
            return
        target = min(
            candidates,
            key=lambda n: sum(len(v) for v in n.assigned.values()),
        )
        job.hedged[walk_id] = job.hedged.get(walk_id, 0) + 1
        job.hedge_count += 1
        job.dispatched_at[walk_id] = time.monotonic()
        target.assigned.setdefault(job.job_id, set()).add(walk_id)
        self.counters["hedges"] += 1
        if trigger == "quantile":
            self.counters["hedges_quantile"] += 1
        self.counters["walks_dispatched"] += 1
        if self.recorder.enabled:
            self.recorder.emit(
                HedgeDispatch(
                    trace_id=job.trace_id,
                    job_id=job.job_id,
                    walk_id=walk_id,
                    node=target.name,
                    from_node=slow_node.name if slow_node is not None else "",
                    elapsed=elapsed,
                    trigger=trigger,
                    threshold=threshold,
                )
            )
        try:
            await target.conn.send(
                Message(
                    "assign",
                    {
                        "job_id": job.job_id,
                        "generation": job.generation,
                        "walk_ids": [walk_id],
                        "trace_id": job.trace_id,
                        "priority": job.priority,
                    },
                    blob=self._assign_blob(job, target, [walk_id]),
                )
            )
        except (ConnectionError, OSError):
            target.conn.abort()

    async def _node_lost(self, node: _Node, reason: str) -> None:
        if node.lost:
            return
        node.lost = True
        node.conn.abort()
        self._nodes.pop(node.node_id, None)
        self.counters["nodes_lost"] += 1
        orphaned = node.assigned
        node.assigned = {}
        for job_id, walk_ids in orphaned.items():
            job = self._jobs.get(job_id)
            if job is None:
                continue
            if job.coop_state is not None:
                # islands hosted on the dead node are gone; their walks
                # come back below as *new* islands (fresh ids), and any
                # round that was waiting on them may now be complete
                state = job.coop_state
                for island, entry in state.islands.items():
                    if (
                        entry["node"] == node.node_id
                        and island not in state.done
                        and island not in state.lost
                    ):
                        state.lost.add(island)
                        self.counters["islands_lost"] += 1
                await self._relay_rounds(job)
            unfinished = sorted(walk_ids & job.outstanding)
            if unfinished:
                await self._redispatch(job, unfinished, node, reason)

    async def _redispatch(
        self, job: _NetJob, walk_ids: list[int], dead: _Node, reason: str
    ) -> None:
        """Move a dead node's unfinished slice to the survivors (capped)."""
        if job.redispatches >= self.max_redispatch:
            job.error = (
                f"node {dead.name} died ({reason}) and job {job.job_id} "
                f"exhausted its {self.max_redispatch} re-dispatch budget"
            )
            job.degraded = bool(job.outcomes)
            await self._broadcast_cancel(job)
            await self._finish(job, JobStatus.FAILED)
            return
        live = self._live_nodes()
        if not live:
            job.error = (
                f"node {dead.name} died ({reason}) with walks "
                f"{walk_ids} in flight and no surviving nodes"
            )
            job.degraded = bool(job.outcomes)
            await self._finish(job, JobStatus.FAILED)
            return
        job.redispatches += 1
        # bump the job generation: any report the "dead" node still manages
        # to emit for the old assignment is dropped as stale on arrival
        job.generation += 1
        self.counters["redispatches"] += 1
        if self._journal is not None:
            self._journal.log_generation(job.job_id, job.generation)
        await self._replicate(generation_record(job.job_id, job.generation))
        await self._dispatch(job, walk_ids, live)

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def _stats_message(self, request_id: Any = None) -> Message:
        now = time.monotonic()
        samples = list(self.cancel_latencies)
        cancel_latency = {
            "count": len(samples),
            "mean": sum(samples) / len(samples) if samples else 0.0,
            "min": min(samples) if samples else 0.0,
            "max": max(samples) if samples else 0.0,
        }
        return Message(
            "stats",
            {
                "request_id": request_id,
                "coordinator": {
                    **self.counters,
                    "jobs_active": len(self._jobs),
                    "jobs_pending": len(self._pending),
                    "nodes_connected": len(self._live_nodes()),
                    "replicas_connected": sum(
                        1 for r in self._replicas if not r.closed
                    ),
                    "cancel_latency": cancel_latency,
                },
                "nodes": [
                    {
                        "name": node.name,
                        "capacity": node.capacity,
                        "heartbeat_age": now - node.last_heartbeat,
                        "assigned_walks": sum(
                            len(v) for v in node.assigned.values()
                        ),
                        "load": node.load,
                    }
                    for node in self._live_nodes()
                ],
            },
        )
