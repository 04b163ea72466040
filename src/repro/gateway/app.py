"""The gateway itself: solve-as-a-service over a cluster.

:class:`Gateway` is an asyncio HTTP/1.1 + WebSocket server that fronts one
:class:`~repro.net.client.ClusterClient`.  Tenants POST problem *names*
and parameters (never pickles — the registry instantiates server-side),
poll or stream progress, and get JSON results back.  The JSON API:

========  ==========================  =====================================
method    path                        purpose
========  ==========================  =====================================
POST      ``/v1/jobs``                submit; 202 queued, 200 cache hit,
                                      202 + ``deduped`` coalesced,
                                      429 shed / rate-limited
GET       ``/v1/jobs/{id}``           snapshot incl. result when finished
DELETE    ``/v1/jobs/{id}``           gateway-side cancel
GET       ``/v1/jobs/{id}/events``    WebSocket: queued / dispatched /
                                      milestone / terminal events
GET       ``/healthz``                liveness (unauthenticated)
GET       ``/metrics``                Prometheus text (unauthenticated)
========  ==========================  =====================================

Threading model: the asyncio loop owns every gateway structure (jobs,
cache, tenants, admission) — no locks.  The one blocking component is the
cluster client (deliberately thread-based, see :mod:`repro.net.client`);
every blocking call into it (connect, submit, close) goes through
:func:`asyncio.to_thread`, so a slow coordinator round-trip never stalls
the accept loop.  *Waiting* for a job holds no thread: the client's reader
thread resolves a loop future through the handle's done-callback the
moment the coordinator's ``job_result`` frame lands, so the number of jobs
in flight is not bounded by the default executor's thread count.

Cancellation is gateway-side only: the frame protocol has no client->
coordinator cancel, so DELETE marks the job cancelled, stops billing the
tenant, and the cluster result is discarded on arrival (it still lands in
the result cache — the computation is valid, only this requester stopped
caring).
"""

from __future__ import annotations

import json
import time
import uuid
from typing import Any, Optional

import asyncio

from repro.autoscale import Predictor
from repro.core.config import AdaptiveSearchConfig
from repro.errors import GatewayError, NetError, ProblemError
from repro.gateway.admission import (
    AdmissionController,
    CircuitBreaker,
    PredictivePlanner,
    WalkerPlanner,
)
from repro.gateway.cache import ResultCache, canonical_job_key
from repro.gateway.http import (
    HttpError,
    HttpRequest,
    HttpResponse,
    Router,
    encode_response,
    error_response,
    json_response,
    read_request,
    text_response,
)
from repro.gateway.tenants import Tenant, TenantRegistry
from repro.gateway.websocket import (
    handshake_response,
    send_close,
    send_text,
    serve_control_frames,
)
from repro.net.client import ClusterClient
from repro.net.results import NetJobResult
from repro.problems import available_problems, make_problem
from repro.telemetry.recorder import Recorder

__all__ = ["Gateway", "GatewayJob"]

#: terminal gateway-job states
_FINISHED = {"solved", "unsolved", "failed", "timed_out", "cancelled"}

#: hard ceiling on per-job walker counts, whatever the client asks for
MAX_WALKERS_PER_JOB = 256

#: finished jobs kept addressable for GET after completion
MAX_RETAINED_JOBS = 4096

#: solver-config fields accepted in submissions
_CONFIG_FIELDS = {"max_iterations", "time_limit"}


class GatewayJob:
    """One gateway-visible job and its event stream.

    ``tenants`` is the set of tenant names allowed to read it — the owner
    plus everyone whose identical submission coalesced onto it.  Events
    are an append-only list; ``updated`` pulses on every append so
    WebSocket streamers wake without polling.
    """

    def __init__(
        self,
        job_id: str,
        *,
        owner: str,
        problem: str,
        params: dict[str, Any],
        n_walkers: int,
        seed: int | None,
        priority: int,
        key: str | None,
    ) -> None:
        self.id = job_id
        self.owner = owner
        self.tenants = {owner}
        self.problem = problem
        self.params = params
        self.n_walkers = n_walkers
        self.seed = seed
        self.priority = priority
        self.key = key
        #: instance size when known (feeds the sized autoscale models)
        self.size: Optional[int] = None
        #: predicted walker-seconds reserved against the admission budget
        self.cost: float = 0.0
        self.status = "queued"
        self.created = time.monotonic()
        self.result: Optional[dict[str, Any]] = None
        self.error: Optional[str] = None
        self.dedup_count = 0
        self.events: list[dict[str, Any]] = []
        self.updated = asyncio.Event()
        #: the milestone emitter, cancelled when the job is finalized
        self.progress_task: Optional[asyncio.Task] = None

    @property
    def finished(self) -> bool:
        return self.status in _FINISHED

    def emit(self, event: str, **fields: Any) -> None:
        self.events.append(
            {
                "event": event,
                "job_id": self.id,
                "t": round(time.monotonic() - self.created, 6),
                **fields,
            }
        )
        self.updated.set()

    def snapshot(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "job_id": self.id,
            "status": self.status,
            "problem": self.problem,
            "params": self.params,
            "n_walkers": self.n_walkers,
            "seed": self.seed,
            "priority": self.priority,
            "dedup_count": self.dedup_count,
            "events": len(self.events),
        }
        if self.result is not None:
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        return payload


def _result_payload(result: NetJobResult) -> dict[str, Any]:
    """The JSON view of a finished cluster job (no numpy arrays)."""
    payload: dict[str, Any] = {
        "status": result.status.value,
        "solved": result.solved,
        "n_walkers": result.n_walkers,
        "wall_time": result.wall_time,
        "redispatches": result.redispatches,
        "degraded": result.degraded,
        "winner_node": result.winner_node,
    }
    if result.winner is not None:
        payload["winner"] = result.winner.as_dict()
    best = result.best_cost
    if best is not None:
        payload["best_cost"] = best
    if result.winner is not None and result.winner.config is not None:
        payload["solution"] = [int(v) for v in result.winner.config]
    if result.error:
        payload["error"] = result.error
    return payload


class _WsUpgrade:
    """Sentinel a handler returns to hand the connection to WebSocket."""

    def __init__(self, job: GatewayJob, client_key: str) -> None:
        self.job = job
        self.client_key = client_key


class Gateway:
    """Asyncio front door over one cluster coordinator.

    Parameters
    ----------
    coordinator:
        the cluster coordinator to submit through — ``(host, port)``,
        ``"host:port"``, or an *ordered list* of either (leader first,
        hot standby second); with a list the gateway's cluster client
        re-homes automatically when the leader dies.
    tenants:
        the :class:`TenantRegistry`; pass one with
        ``allow_anonymous=True`` for a keyless quickstart.
    host / port:
        listen address (``port=0`` picks a free port; see :attr:`address`).
    capacity:
        global in-flight job budget for admission control.
    cache_entries / cache_ttl:
        result-cache sizing.
    planner:
        walker-count planner; defaults to a fresh :class:`WalkerPlanner`.
    predictor:
        a live :class:`~repro.autoscale.Predictor`; when given (and no
        explicit ``planner`` overrides it) the gateway plans through a
        :class:`PredictivePlanner` — sized models, deadline-aware walker
        counts, predicted-cost admission — and persists the predictor's
        model store on :meth:`stop`.
    recorder:
        telemetry recorder; its metrics registry backs ``/metrics`` even
        when event recording is disabled.
    progress_interval:
        seconds between ``milestone`` events on running jobs.
    breaker:
        the cluster :class:`CircuitBreaker`; defaults to one that opens
        after 3 consecutive cluster failures and half-open-probes every
        5 s.  While open, submits answer ``503`` + ``Retry-After``
        immediately instead of parking request threads on a dead
        coordinator.
    """

    def __init__(
        self,
        coordinator: tuple[str, int],
        tenants: TenantRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        capacity: int = 64,
        cache_entries: int = 1024,
        cache_ttl: float = 3600.0,
        planner: WalkerPlanner | PredictivePlanner | None = None,
        predictor: Predictor | None = None,
        admission: AdmissionController | None = None,
        recorder: Recorder | None = None,
        progress_interval: float = 0.5,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.coordinator = coordinator
        self.tenants = tenants
        self.host = host
        self.port = port
        self.cache = ResultCache(max_entries=cache_entries, ttl=cache_ttl)
        self.predictor = predictor
        if planner is not None:
            self.planner = planner
        elif predictor is not None:
            self.planner = PredictivePlanner(predictor)
        else:
            self.planner = WalkerPlanner()
        if self.predictor is None and isinstance(self.planner, PredictivePlanner):
            self.predictor = self.planner.predictor
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(capacity=capacity)
        )
        self.recorder = recorder if recorder is not None else Recorder(enabled=False)
        self.progress_interval = progress_interval
        self.breaker = breaker if breaker is not None else CircuitBreaker()

        self.client: ClusterClient | None = None
        self._server: asyncio.base_events.Server | None = None
        self._jobs: dict[str, GatewayJob] = {}
        self._inflight_by_key: dict[str, GatewayJob] = {}
        self._finished_order: list[str] = []
        self._tasks: set[asyncio.Task] = set()
        self._started = False

        registry = self.recorder.registry
        self._m_requests = registry.counter("gateway_requests_total")
        self._m_submitted = registry.counter("gateway_jobs_submitted_total")
        self._m_deduped = registry.counter("gateway_jobs_deduped_total")
        self._m_cache_hits = registry.counter("gateway_cache_hits_total")
        self._m_shed = registry.counter("gateway_shed_total")
        self._m_rate_limited = registry.counter("gateway_rate_limited_total")
        self._m_breaker_open = registry.counter("gateway_breaker_open_total")
        self._m_inflight = registry.gauge("gateway_jobs_inflight")
        self._m_request_seconds = registry.histogram("gateway_request_seconds")
        self._m_job_seconds = registry.histogram("gateway_job_seconds")

        self.router = Router()
        self.router.add("POST", "/v1/jobs", self._post_job)
        self.router.add("GET", "/v1/jobs/{job_id}", self._get_job)
        self.router.add("DELETE", "/v1/jobs/{job_id}", self._delete_job)
        self.router.add("GET", "/v1/jobs/{job_id}/events", self._job_events)
        self.router.add("GET", "/healthz", self._healthz)
        self.router.add("GET", "/metrics", self._metrics)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "Gateway":
        if self._started:
            return self
        # reconnect=True: with an ordered coordinator list the client
        # re-homes to the standby by itself during a failover
        client = ClusterClient(self.coordinator, reconnect=True)
        try:
            await asyncio.to_thread(client.connect)
        except NetError:
            client.close()
            raise
        self.client = client
        self._server = await asyncio.start_server(
            self._serve_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = True
        return self

    async def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        if self.client is not None:
            # fails every pending handle with a client-closed error
            await asyncio.to_thread(self.client.close)
            self.client = None
        if self.predictor is not None:
            # warm restarts: the next gateway plans from this one's evidence
            await asyncio.to_thread(self.predictor.save)

    async def serve_forever(self) -> None:
        """Block until cancelled (the CLI's foreground mode)."""
        assert self._server is not None, "gateway is not started"
        await self._server.serve_forever()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def _spawn(self, coro) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # ------------------------------------------------------------------
    # connection loop
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as err:
                    writer.write(
                        encode_response(
                            error_response(
                                err.status, str(err), headers=err.headers
                            ),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                started = time.monotonic()
                self._m_requests.inc()
                outcome = await self._handle(request)
                self._m_request_seconds.observe(time.monotonic() - started)
                if isinstance(outcome, _WsUpgrade):
                    await self._stream_job_events(outcome, reader, writer)
                    return
                keep_alive = request.keep_alive
                writer.write(encode_response(outcome, keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle(self, request: HttpRequest) -> HttpResponse | _WsUpgrade:
        try:
            handler, params = self.router.resolve(request.method, request.path)
            return await handler(request, **params)
        except HttpError as err:
            return error_response(err.status, str(err), headers=err.headers)
        except GatewayError as err:
            return error_response(400, str(err))
        except Exception as err:  # noqa: BLE001 - the 500 boundary
            return error_response(500, f"{type(err).__name__}: {err}")

    # ------------------------------------------------------------------
    # auth
    # ------------------------------------------------------------------
    def _authenticate(self, request: HttpRequest) -> Tenant:
        auth = request.header("authorization")
        key: str | None = None
        if auth.lower().startswith("bearer "):
            key = auth[7:].strip()
        if not key:
            key = request.header("x-api-key") or None
        if not key:
            # WebSocket clients cannot set headers from browsers
            key = request.query.get("key")
        tenant = self.tenants.authenticate(key)
        if tenant is None:
            raise HttpError(401, "missing or unknown API key")
        return tenant

    def _visible_job(self, job_id: str, tenant: Tenant) -> GatewayJob:
        job = self._jobs.get(job_id)
        # unknown and not-yours answer identically: no existence oracle
        if job is None or tenant.name not in job.tenants:
            raise HttpError(404, f"no such job: {job_id}")
        return job

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    async def _healthz(self, request: HttpRequest) -> HttpResponse:
        payload: dict[str, Any] = {
            "status": "ok",
            "inflight": self.admission.inflight,
            "jobs": len(self._jobs),
            "cache": self.cache.stats(),
            "problems": available_problems(),
        }
        payload["breaker"] = {
            "state": self.breaker.state,
            "trips": self.breaker.trips,
            "rejections": self.breaker.rejections,
        }
        if self.client is not None:
            payload["cluster_reconnects"] = self.client.reconnects
        if self.admission.cost_capacity is not None:
            payload["inflight_cost"] = round(self.admission.inflight_cost, 3)
            payload["shed_by_cost"] = self.admission.shed_by_cost
        if self.predictor is not None:
            payload["autoscale"] = self.predictor.stats()
        return json_response(payload)

    async def _metrics(self, request: HttpRequest) -> HttpResponse:
        self._m_inflight.set(self.admission.inflight)
        return text_response(
            self.recorder.registry.render_prometheus(),
            content_type="text/plain; version=0.0.4",
        )

    async def _post_job(self, request: HttpRequest) -> HttpResponse:
        tenant = self._authenticate(request)
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "submission body must be a JSON object")
        problem_name = body.get("problem")
        if not problem_name or not isinstance(problem_name, str):
            raise HttpError(400, "submission needs a 'problem' name")
        params = body.get("params", {})
        if not isinstance(params, dict):
            raise HttpError(400, "'params' must be an object")
        config_spec = body.get("config", {})
        if not isinstance(config_spec, dict):
            raise HttpError(400, "'config' must be an object")
        unknown = set(config_spec) - _CONFIG_FIELDS
        if unknown:
            raise HttpError(
                400,
                f"unknown config fields {sorted(unknown)}; "
                f"known: {sorted(_CONFIG_FIELDS)}",
            )
        seed = body.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise HttpError(400, "'seed' must be an integer")
        deadline = body.get("deadline")
        if deadline is not None and not isinstance(deadline, (int, float)):
            raise HttpError(400, "'deadline' must be a number of seconds")

        if not tenant.bucket.try_acquire():
            self._m_rate_limited.inc()
            retry = tenant.bucket.retry_after()
            raise HttpError(
                429,
                f"tenant {tenant.name!r} is over its request rate",
                headers={"Retry-After": f"{max(1, round(retry))}"},
            )

        # instantiate server-side — never unpickle tenant bytes.  This
        # happens before planning so the instance *size* is known: the
        # predictive planner keys runtime models by (family, size)
        try:
            problem = make_problem(problem_name, **params)
        except (ProblemError, TypeError) as err:
            raise HttpError(400, f"cannot build problem: {err}")
        config = (
            AdaptiveSearchConfig(**config_spec) if config_spec else None
        )
        problem_size = int(problem.size)

        planned = "n_walkers" not in body
        if planned:
            n_walkers = self.planner.plan(
                problem_name, size=problem_size, deadline=deadline
            )
        else:
            n_walkers = body["n_walkers"]
            if not isinstance(n_walkers, int) or not (
                1 <= n_walkers <= MAX_WALKERS_PER_JOB
            ):
                raise HttpError(
                    400,
                    f"'n_walkers' must be an integer in "
                    f"[1, {MAX_WALKERS_PER_JOB}]",
                )

        key = canonical_job_key(
            problem_name,
            params,
            n_walkers=n_walkers,
            seed=seed,
            config=config_spec,
        )

        # 1. completed-result cache
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                self._m_cache_hits.inc()
                job = self._register_job(
                    tenant, problem_name, params, n_walkers, seed, key
                )
                job.status = cached["status"]
                job.result = cached
                job.emit("cached")
                job.emit(job.status, cached=True)
                self._retire(job)
                return json_response(
                    {**job.snapshot(), "cached": True}, status=200
                )

        # 2. in-flight coalescing — across tenants
        if key is not None:
            running = self._inflight_by_key.get(key)
            if running is not None and not running.finished:
                self._m_deduped.inc()
                running.tenants.add(tenant.name)
                running.dedup_count += 1
                return json_response(
                    {**running.snapshot(), "deduped": True}, status=202
                )

        # 3. circuit breaker — checked after cache/coalescing (those are
        # served from gateway memory, cluster or no cluster) but before
        # admission, so a dead cluster refuses fast instead of parking
        # this request thread on a submit that cannot land
        if not self.breaker.allow():
            self._m_breaker_open.inc()
            retry = self.breaker.retry_after
            raise HttpError(
                503,
                "cluster unreachable, circuit breaker open",
                headers={"Retry-After": f"{max(1, round(retry))}"},
            )

        # 4. admission — by job count always, by predicted walker-second
        # cost when the planner has a model for this family
        predicted_cost = self.planner.job_cost(
            problem_name, n_walkers, size=problem_size, deadline=deadline
        )
        decision = self.admission.admit(
            tenant.priority,
            tenant.inflight,
            tenant.max_inflight,
            cost=predicted_cost,
        )
        if not decision:
            self._m_shed.inc()
            raise HttpError(
                429,
                decision.reason,
                headers={"Retry-After": f"{max(1, round(decision.retry_after))}"},
            )

        job = self._register_job(
            tenant, problem_name, params, n_walkers, seed, key
        )
        job.size = problem_size
        job.cost = predicted_cost if predicted_cost is not None else 0.0
        self.admission.acquire(job.cost)
        tenant.inflight += 1
        self._m_submitted.inc()
        self._m_inflight.set(self.admission.inflight)
        if key is not None:
            self._inflight_by_key[key] = job
        job.emit("queued", priority=job.priority, n_walkers=n_walkers)

        assert self.client is not None
        try:
            handle = await asyncio.to_thread(
                self.client.submit,
                problem,
                n_walkers,
                seed,
                config=config,
                deadline=deadline,
                # canonical digest doubles as the cluster idempotency key,
                # so even a gateway restart cannot double-run a seeded job
                client_key=key,
                priority=job.priority,
            )
        except NetError as err:
            self.breaker.record_failure()
            self._finalize(job, tenant, "failed", error=str(err))
            raise HttpError(
                503,
                f"cluster unavailable: {err}",
                headers={
                    "Retry-After": f"{max(1, round(self.breaker.retry_after))}"
                },
            )
        self.breaker.record_success()
        job.status = "running"
        job.emit("dispatched", cluster_request=handle.request_id)
        self._spawn(self._await_result(job, tenant, handle))
        job.progress_task = self._spawn(self._progress(job))
        return json_response(
            {**job.snapshot(), "planned": planned}, status=202
        )

    async def _get_job(
        self, request: HttpRequest, job_id: str
    ) -> HttpResponse:
        tenant = self._authenticate(request)
        return json_response(self._visible_job(job_id, tenant).snapshot())

    async def _delete_job(
        self, request: HttpRequest, job_id: str
    ) -> HttpResponse:
        tenant = self._authenticate(request)
        job = self._visible_job(job_id, tenant)
        if job.finished:
            return json_response(job.snapshot())
        # gateway-side cancel: the cluster job keeps running (the protocol
        # has no cancel frame) and its arrival is discarded for this job
        job.status = "cancelled"
        job.emit("cancelled")
        return json_response(job.snapshot())

    async def _job_events(
        self, request: HttpRequest, job_id: str
    ) -> HttpResponse | _WsUpgrade:
        tenant = self._authenticate(request)
        job = self._visible_job(job_id, tenant)
        if request.header("upgrade").lower() != "websocket":
            raise HttpError(
                426,
                "this endpoint streams over WebSocket",
                headers={"Upgrade": "websocket"},
            )
        ws_key = request.header("sec-websocket-key")
        if not ws_key:
            raise HttpError(400, "missing Sec-WebSocket-Key")
        return _WsUpgrade(job, ws_key)

    # ------------------------------------------------------------------
    # job machinery
    # ------------------------------------------------------------------
    def _register_job(
        self,
        tenant: Tenant,
        problem: str,
        params: dict[str, Any],
        n_walkers: int,
        seed: int | None,
        key: str | None,
    ) -> GatewayJob:
        job = GatewayJob(
            uuid.uuid4().hex[:16],
            owner=tenant.name,
            problem=problem,
            params=params,
            n_walkers=n_walkers,
            seed=seed,
            priority=tenant.priority,
            key=key,
        )
        self._jobs[job.id] = job
        return job

    def _retire(self, job: GatewayJob) -> None:
        """Bound the finished-job index to :data:`MAX_RETAINED_JOBS`."""
        self._finished_order.append(job.id)
        while len(self._finished_order) > MAX_RETAINED_JOBS:
            self._jobs.pop(self._finished_order.pop(0), None)

    def _finalize(
        self,
        job: GatewayJob,
        tenant: Tenant,
        status: str,
        *,
        error: str | None = None,
        result: dict[str, Any] | None = None,
    ) -> None:
        if job.progress_task is not None:
            job.progress_task.cancel()
        cancelled = job.status == "cancelled"
        if not cancelled:
            job.status = status
            job.error = error
            job.result = result
            job.emit(status, **({"error": error} if error else {}))
        else:
            # requester already left; pulse so streamers drain and stop
            job.updated.set()
        self.admission.release(job.cost)
        tenant.inflight = max(0, tenant.inflight - 1)
        self._m_inflight.set(self.admission.inflight)
        if job.key is not None and self._inflight_by_key.get(job.key) is job:
            del self._inflight_by_key[job.key]
        self._retire(job)

    async def _await_result(
        self, job: GatewayJob, tenant: Tenant, handle
    ) -> None:
        loop = asyncio.get_running_loop()
        done: asyncio.Future[None] = loop.create_future()

        def _resolve() -> None:
            if not done.done():  # cancelled with this task by stop()
                done.set_result(None)

        def _on_done(_handle: Any) -> None:  # the client's reader thread
            try:
                loop.call_soon_threadsafe(_resolve)
            except RuntimeError:
                pass  # loop already closed: nobody is waiting

        handle.set_done_callback(_on_done)
        await done
        try:
            result = handle.result(timeout=0)
        except NetError as err:
            self._finalize(job, tenant, "failed", error=str(err))
            return
        payload = _result_payload(result)
        # cache + planner learn from every completed run, even cancelled
        # ones — the computation is valid regardless of who is listening
        if job.key is not None and result.status.value in ("solved", "unsolved"):
            self.cache.put(job.key, payload)
        if result.solved and result.winner is not None:
            self.planner.record(
                job.problem, result.winner.wall_time, size=job.size
            )
        self._m_job_seconds.observe(result.wall_time)
        self._finalize(job, tenant, result.status.value, result=payload)

    async def _progress(self, job: GatewayJob) -> None:
        """Periodic ``milestone`` events while the job runs."""
        while not job.finished:
            await asyncio.sleep(self.progress_interval)
            if job.finished:
                return
            extra: dict[str, Any] = {}
            if self.client is not None and self.client.reconnects:
                # tells streaming watchers their job survived a failover
                extra["cluster_reconnects"] = self.client.reconnects
            job.emit(
                "milestone",
                status=job.status,
                elapsed=round(time.monotonic() - job.created, 6),
                **extra,
            )

    # ------------------------------------------------------------------
    # websocket streaming
    # ------------------------------------------------------------------
    async def _stream_job_events(
        self,
        upgrade: _WsUpgrade,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        job = upgrade.job
        writer.write(handshake_response(upgrade.client_key))
        await writer.drain()
        control = self._spawn(serve_control_frames(reader, writer))
        index = 0
        try:
            while True:
                while index < len(job.events):
                    await send_text(writer, json.dumps(job.events[index]))
                    index += 1
                if job.finished:
                    await send_close(writer)
                    return
                if control.done():
                    return  # client went away
                job.updated.clear()
                if index < len(job.events):
                    continue  # appended between drain and clear
                waiter = asyncio.ensure_future(job.updated.wait())
                try:
                    await asyncio.wait(
                        {waiter, control},
                        return_when=asyncio.FIRST_COMPLETED,
                        timeout=30.0,
                    )
                finally:
                    if not waiter.done():
                        waiter.cancel()
        except (ConnectionError, GatewayError):
            pass  # mid-stream disconnects are routine
        finally:
            if not control.done():
                control.cancel()
