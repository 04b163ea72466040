"""The depth ladder and the served-side layer numbers.

One seeded job is entered at every depth of the stack in turn —

    AdaptiveSearch.solve (its walks, one after another)
      -> MultiWalkSolver(executor="inline" | "pool")
      -> SolverService.submit().result()
      -> ClusterClient.solve
      -> HTTP POST + poll

— at two shapes: ``dispatch`` (trivial: ``costas`` n=6, 2 walkers, 64
iterations) and ``compute`` (``magic_square`` n=20, 16 walkers x 150
iterations).  Depths are interleaved round-robin so drift hits all of
them alike, and a layer's ``self_cal_ms`` is its depth's latency minus the
depth below it:

- ``service.self`` = service - walk compute spread ideally over the pool's
  workers (``core / min(walkers, workers)``): queues, pickling,
  scheduler tick and imbalance, everything that is not iterations;
- ``net.self`` = ClusterClient - service;
- ``gateway.self`` = HTTP - ClusterClient.

The ``dispatch`` shape also visits ``executor="process"`` and
``"vector"``, which are on no served path, for ``parallel.job_cal_ms.*``.

A short ``served_dispatch`` list is then run job by job against two
servers, telemetry off and on, for the gateway's counters and the measured
telemetry overhead.
"""

from __future__ import annotations

import shutil
from dataclasses import replace
from typing import Any, Callable

import calib
import lists
from spans import Spans, span
from stack import Server, Tenant, cpu_seconds, every_cpu
from tree import OUT, use_checkout_source

use_checkout_source()

from repro import AdaptiveSearch, AdaptiveSearchConfig, make_problem  # noqa: E402
from repro.net import ClusterClient  # noqa: E402
from repro.parallel import MultiWalkSolver, walk_seeds  # noqa: E402
from repro.service import SolverService  # noqa: E402

__all__ = ["run_all"]

_WORKERS = 2  # pool workers of the server child and of the probed service

_SHAPES = {
    "dispatch": lists.Job("costas", 6, 0, n_walkers=2, max_iterations=64),
    "compute": lists.Job("magic_square", 20, 0, n_walkers=16, max_iterations=150),
}

#: ladder rounds per shape in the 30-second traced run
_ROUNDS = {"dispatch": 24, "compute": 6}

#: time-to-solution job for ``parallel.wasted_iter_share``
_WASTE = lists.Job("costas", 12, 0, n_walkers=4)
_WASTE_JOBS = 3

#: ``--seconds`` of the short served_dispatch list (30-second traced run)
_MINI_LIST_SECONDS = 2.0


def _rounds(shape: str, scale: float) -> int:
    return max(2, round(_ROUNDS[shape] * scale))


def _depths(
    service: SolverService, client: ClusterClient, tenant: Tenant, shape: str
) -> dict[str, Callable[[Any, lists.Job, int], Any]]:
    """``{depth: call}``, shallowest first."""
    def config(job: lists.Job) -> AdaptiveSearchConfig:
        return AdaptiveSearchConfig(max_iterations=job.max_iterations)

    def core(problem: Any, job: lists.Job, seed: int) -> None:
        solver = AdaptiveSearch(config(job))
        for walk_seed in walk_seeds(job.n_walkers, seed):
            solver.solve(problem, walk_seed)

    def multiwalk(executor: str, **kwargs: Any):
        def run(problem: Any, job: lists.Job, seed: int) -> Any:
            return MultiWalkSolver(
                config(job), executor=executor, **kwargs
            ).solve(problem, job.n_walkers, seed)

        return run

    depths = {
        "core": core,
        "parallel.inline": multiwalk("inline"),
        "parallel.pool": multiwalk("pool", pool=service),
        "service": lambda problem, job, seed: service.submit(
            problem, job.n_walkers, seed, config=config(job)
        ).result(),
        "net": lambda problem, job, seed: client.solve(
            problem, job.n_walkers, seed, config=config(job)
        ),
        "gateway": lambda problem, job, seed: tenant.run(
            replace(job, seed=seed).body()
        ),
    }
    if shape == "dispatch":
        depths["parallel.process"] = multiwalk("process")
        depths["parallel.vector"] = multiwalk("vector")
    return depths


def _ladder(
    clock: calib.Clock,
    spans: Spans,
    service: SolverService,
    server: Server,
    client: ClusterClient,
    tenant: Tenant,
    seed: int,
    scale: float,
) -> dict[str, float]:
    out: dict[str, float] = {}
    queue_waits_cal_s: list[float] = []
    assert service.pool is not None
    pool_pids = service.pool.worker_pids()
    # who else computes while a depth is being called: the probed
    # service's own workers, or the server child and its workers
    remotes = {
        "parallel.pool": lambda: (0.0, [cpu_seconds(pid) for pid in pool_pids]),
        "net": server.cpu,
        "gateway": server.cpu,
    }
    remotes["service"] = remotes["parallel.pool"]
    for shape, job in _SHAPES.items():
        problem = make_problem(job.problem, n=job.n)
        depths = _depths(service, client, tenant, shape)
        samples: dict[str, list[calib.Sample]] = {name: [] for name in depths}
        for round_ in range(_rounds(shape, scale)):
            job_seed = seed * 1000 + round_
            ident = f"{shape}:{job_seed}"
            for name, call in depths.items():
                with span(spans, f"ladder.{name}.{shape}", ident):
                    result, sample = clock.measure(
                        call, problem, job, job_seed, remote=remotes.get(name)
                    )
                samples[name].append(sample)
                if name == "gateway" and result.kind != "miss":
                    raise RuntimeError(f"ladder job {ident} answered {result}")
                if name == "service":
                    queue_waits_cal_s.append(result.queue_wait * sample.scale)
        ms = {name: calib.mean_cal_ms(s) for name, s in samples.items()}
        ideal_compute = ms["core"] / min(job.n_walkers, _WORKERS)
        out[f"service.job_cal_ms.{shape}"] = ms["service"]
        out[f"service.self_cal_ms.{shape}"] = ms["service"] - ideal_compute
        out[f"net.job_cal_ms.{shape}"] = ms["net"]
        out[f"net.self_cal_ms.{shape}"] = ms["net"] - ms["service"]
        out[f"gateway.self_cal_ms.{shape}"] = ms["gateway"] - ms["net"]
        if shape == "dispatch":
            for executor in ("inline", "process", "pool", "vector"):
                out[f"parallel.job_cal_ms.{executor}.dispatch"] = ms[
                    f"parallel.{executor}"
                ]
            out["parallel.process_launch_cal_ms"] = (
                ms["parallel.process"] - ms["parallel.inline"]
            )
    out["service.queue_wait_cal_ms"] = 1e3 * sum(queue_waits_cal_s) / len(
        queue_waits_cal_s
    )
    return out


def _busy_seconds(service: SolverService) -> float:
    snapshot = service.snapshot()
    return snapshot.worker_utilization * snapshot.n_workers * snapshot.uptime


def _wasted(spans: Spans, service: SolverService, seed: int) -> dict[str, float]:
    """Share of the walk work of a first-finisher-wins job that was not
    the winner's.  The process executor reports every walk's iterations;
    the pool reports nothing for a cancelled walk, so there the share is
    taken in worker-busy seconds."""
    problem = make_problem(_WASTE.problem, n=_WASTE.n)
    useful = {"process": 0.0, "pool": 0.0}
    spent = {"process": 0.0, "pool": 0.0}
    for executor, kwargs in (("process", {}), ("pool", {"pool": service})):
        for index in range(_WASTE_JOBS):
            busy_before = _busy_seconds(service)
            with span(spans, f"parallel.{executor}.to_solution", f"waste:{index}"):
                result = MultiWalkSolver(executor=executor, **kwargs).solve(
                    problem, _WASTE.n_walkers, seed * 1000 + index
                )
            if result.winner is None:
                raise RuntimeError(f"wasted-work job {index} was not solved")
            if executor == "process":
                useful[executor] += result.winner.iterations
                spent[executor] += result.total_iterations
            else:
                useful[executor] += result.winner.wall_time
                spent[executor] += _busy_seconds(service) - busy_before
    return {
        f"parallel.wasted_iter_share.{executor}": 1.0
        - useful[executor] / spent[executor]
        for executor in useful
    }


def _net_counters(client: ClusterClient, jobs: int) -> dict[str, float]:
    """Coordinator counters since the server booted; ``jobs`` cluster jobs
    were submitted to it, all by this run."""
    c = client.stats()["coordinator"]
    if c["jobs_submitted"] != jobs:
        raise RuntimeError(
            f"coordinator saw {c['jobs_submitted']} jobs, the ladder sent {jobs}"
        )
    first_assigns = c["assigns_sent"] - c["repeat_assigns"]
    frames = (
        c["assigns_sent"] + c["walk_results"] + c["cancels_sent"]
        + c["cancel_acks"] + 2 * jobs  # + one submit and one job_result each
    )
    return {
        "net.assign_bytes.first": (c["assign_bytes"] - c["repeat_assign_bytes"])
        / first_assigns,
        "net.assign_bytes.repeat": c["repeat_assign_bytes"] / c["repeat_assigns"],
        "net.frames_per_job": frames / jobs,
        "net.assigns_per_job": c["assigns_sent"] / jobs,
        "net.cancels_per_job": c["cancels_sent"] / jobs,
        "net.redispatches_total": float(c["redispatches"]),
        "net.stale_results_total": float(c["stale_results"]),
        "net.dropped_frames_total": float(c["frames_dropped"]),
    }


def _telemetry_pair(
    clock: calib.Clock,
    spans: Spans,
    plain: tuple[Server, Tenant],
    traced: tuple[Server, Tenant],
    jobs: list[lists.Job],
) -> dict[str, float]:
    """The same short served_dispatch list against both servers, job by
    job, the server that goes first alternating."""
    sides = {"plain": plain, "traced": traced}
    misses: dict[str, list[calib.Sample]] = {"plain": [], "traced": []}
    polls = hits = 0
    before = plain[1].metrics()
    for index, job in enumerate(jobs):
        order = ("plain", "traced") if index % 2 == 0 else ("traced", "plain")
        for side in order:
            server, tenant = sides[side]
            with span(spans, f"telemetry.{side}.job", f"mini:{index}"):
                answer, sample = clock.measure(
                    tenant.run, job.body(), remote=server.cpu
                )
            expected = "miss" if job.repeat_of is None else "hit"
            if answer.kind != expected:
                raise RuntimeError(f"mini-list job {index} answered {answer}")
            if answer.kind == "miss":
                misses[side].append(sample)
            if side == "plain":
                polls += answer.polls
                hits += answer.kind == "hit"
    after = plain[1].metrics()

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    answered = delta("gateway_cache_hits_total") + delta(
        "gateway_jobs_submitted_total"
    )
    if delta("gateway_cache_hits_total") != hits or answered != len(jobs):
        raise RuntimeError("gateway /metrics disagree with the answers received")
    return {
        "telemetry.overhead_share.served_dispatch": calib.paired_overhead(
            misses["plain"], misses["traced"]
        ),
        "gateway.polls_per_job": polls / len(misses["plain"]),
        "gateway.hit_share": delta("gateway_cache_hits_total") / answered,
        "gateway.shed_total": after.get("gateway_shed_total", 0.0),
        "gateway.rate_limited_total": after.get("gateway_rate_limited_total", 0.0),
    }


def _boot(clock: calib.Clock, spans: Spans, name: str, start: Callable[[], Any]):
    """Start something long-lived once, between two bursts of spins."""
    before = clock.burst(10)
    with span(spans, name, "boot"):
        value, sample = clock.measure(start)
    return value, calib.Sample(sample.wall_s, (before + clock.burst(10)) / 2.0)


def run_all(
    clock: calib.Clock, spans: Spans, workload: str, seed: int, seconds: float
) -> dict[str, float]:
    """Ladder, wasted work, coordinator counters, telemetry pair."""
    scale = seconds / 30.0
    out: dict[str, float] = {}
    telemetry_dir = OUT / f"telemetry-{workload}"
    shutil.rmtree(telemetry_dir, ignore_errors=True)
    telemetry_dir.mkdir(parents=True)
    plain = Server(OUT / f"trace-{workload}.stderr")
    traced = Server(OUT / f"trace-{workload}.telemetry.stderr", telemetry_dir)
    service = SolverService(n_workers=_WORKERS)
    try:
        _, boot = _boot(clock, spans, "stack.Server.start", plain.start)
        out["net.cluster_boot_cal_ms"] = 1e3 * plain.hello["cluster_boot_s"] * boot.scale
        out["gateway.boot_cal_ms"] = 1e3 * plain.hello["gateway_boot_s"] * boot.scale
        with every_cpu():  # the probed pool's workers, like the server's
            _, spawn = _boot(
                clock, spans, "service.SolverService.start", service.start
            )
        out["service.pool_spawn_cal_ms"] = 1e3 * spawn.cal_s
        traced.start()

        tenant = Tenant(plain.address)
        traced_tenant = Tenant(traced.address)
        try:
            with ClusterClient(plain.cluster_address) as client:
                out.update(
                    _ladder(clock, spans, service, plain, client, tenant, seed, scale)
                )
                # every round sends one cluster job through the client and
                # one through the gateway
                out.update(
                    _net_counters(
                        client, sum(2 * _rounds(shape, scale) for shape in _SHAPES)
                    )
                )
            with every_cpu():  # the process executor forks per solve
                out.update(_wasted(spans, service, seed))
            mini = lists.build("served_dispatch", seed, _MINI_LIST_SECONDS * scale)
            out.update(
                _telemetry_pair(
                    clock, spans, (plain, tenant), (traced, traced_tenant), mini
                )
            )
            traced_misses = sum(1 for job in mini if job.repeat_of is None)
        finally:
            tenant.close()
            traced_tenant.close()
        snapshot = service.snapshot()
        out["service.worker_utilization"] = snapshot.worker_utilization
        out["service.retries_total"] = float(snapshot.retries)
        out["service.worker_respawns_total"] = float(snapshot.worker_respawns)
    finally:
        service.shutdown()
        traced.stop()
        plain.stop()
    events = sum(
        len(path.read_bytes().splitlines()) for path in telemetry_dir.glob("*.jsonl")
    )
    out["telemetry.events_per_job"] = events / traced_misses
    out["bench.server_stderr_lines"] = float(plain.stderr_lines)
    return out
