"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro solve costas --set n=12 --seed 42 --render
    python -m repro solve magic_square --set n=8 --walkers 4 --executor process
    python -m repro sample costas --set n=10 --runs 50
    python -m repro experiment fig1 --samples 40 --reps 200
    python -m repro service jobs.json --workers 4
    python -m repro service --family costas --set n=9 --jobs 8 --walkers 4
    python -m repro coordinator --port 7710
    python -m repro coordinator --port 7711 --standby-of localhost:7710
    python -m repro node --connect localhost:7710,localhost:7711 \
        --reconnect --lease-timeout 2 --workers 8
    python -m repro submit --coordinators localhost:7710,localhost:7711 \
        queens --set n=32 --walkers 8
    python -m repro submit --connect localhost:7710 magic_square --set n=20 \
        --walkers 16 --stats
    python -m repro submit --connect localhost:7710 queens --set n=64 \
        --walkers 8 --trace out/
    python -m repro submit --connect localhost:7710 magic_square --set n=20 \
        --walkers 16 --coop --topology ring
    python -m repro trace out/
    python -m repro autoscale show models.json
    python -m repro autoscale predict models.json costas --size 12 --deadline 2
    python -m repro problems
    python -m repro platforms

Every subcommand prints human-readable text to stdout and returns a
process exit status (0 on success, 1 on a failed solve, 2 on bad usage).

Importing this module, building the parser and most verbs load no scipy:
``repro.stats`` imports it inside the functions that fit (DESIGN.md,
"Start-up and resident set").  ``sample`` / ``experiment`` /
``autoscale`` load it once, when their report fits (``bench`` only in the
scripts it spawns); ``node`` and ``service`` must not, because the pool
workers they fork would each carry a copy.  Two verbs load it on purpose
before they listen — ``gateway`` always (its planner fits) and
``coordinator`` under ``--autoscale`` (its predictor refits) — because
both would otherwise take the library's load on their event loop, in the
middle of a job.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Iterator, Sequence

import numpy as np

from repro import __version__
from repro.core.config import AdaptiveSearchConfig
from repro.core.solver import AdaptiveSearch
from repro.cluster.platforms import PLATFORMS
from repro.cluster.trace import save_samples
from repro.coop import TOPOLOGIES
from repro.errors import ReproError
from repro.harness.cache import SampleCache
from repro.harness.report import run_experiment
from repro.harness.runner import BenchmarkSpec, collect_samples, scaled_times
from repro.parallel import CooperativeMultiWalk, MultiWalkSolver
from repro.problems import available_problems, make_problem
from repro.stats import best_fit

__all__ = ["main", "build_parser"]


def _parse_value(text: str) -> object:
    """Best-effort literal parsing for --set values (int, float, str)."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_params(pairs: Sequence[str]) -> dict[str, object]:
    params: dict[str, object] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"error: --set expects key=value, got {pair!r}")
        params[key] = _parse_value(value)
    return params


def _solver_config(args: argparse.Namespace) -> AdaptiveSearchConfig:
    kwargs: dict[str, object] = {}
    if args.max_iterations is not None:
        kwargs["max_iterations"] = args.max_iterations
    if args.time_limit is not None:
        kwargs["time_limit"] = args.time_limit
    return AdaptiveSearchConfig(**kwargs)  # type: ignore[arg-type]


@contextlib.contextmanager
def _forward_termination_signals() -> Iterator[None]:
    """Make SIGTERM (and SIGINT explicitly) raise ``KeyboardInterrupt``
    for the length of a command, then restore the handlers it replaced.

    Long-running commands (``service``, ``coordinator``, ``node``,
    ``gateway``) get one cleanup path for both signals: Ctrl-C and
    ``kill <pid>`` both unwind through the command's
    ``except KeyboardInterrupt`` handler, which shuts pools down and reaps
    worker processes instead of orphaning them.  Used as a decorator on
    those commands, so nothing the process does after one returns (a test
    run, a pool forked later) inherits the handler; the pool's workers
    reset both signals themselves (``service_worker_main``).
    """
    import signal

    def _raise(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    replaced = {}
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            replaced[signum] = signal.signal(signum, _raise)
    except ValueError:  # pragma: no cover - not the main thread (tests)
        pass
    try:
        yield
    finally:
        for signum, handler in replaced.items():
            # None: a handler not installed from Python; the default then
            signal.signal(signum, signal.SIG_DFL if handler is None else handler)


def _configure_tracing(args: argparse.Namespace, proc: str) -> None:
    """Install a process recorder writing ``<--trace dir>/<proc>.jsonl``.

    No-op when ``--trace`` was not given, so the default recorder stays
    disabled and traced code paths cost nothing.
    """
    if getattr(args, "trace", None):
        from repro import telemetry

        telemetry.configure(
            trace_dir=args.trace,
            proc=proc,
            milestone_every=getattr(args, "milestone_every", 0) or 0,
        )


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_problems(args: argparse.Namespace) -> int:
    for family in available_problems():
        print(family)
    return 0


def cmd_platforms(args: argparse.Namespace) -> int:
    for key, platform in sorted(PLATFORMS.items()):
        print(f"{key}: {platform}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    from repro.core.value_solver import ValueAdaptiveSearch
    from repro.problems.value_base import ValueProblem

    problem = make_problem(args.family, **_parse_params(args.set))
    config = _solver_config(args)
    _configure_tracing(args, "solve")
    if isinstance(problem, ValueProblem):
        if args.walkers > 1:
            print(
                "error: multi-walk executors support permutation problems "
                "only; run value-mode problems with --walkers 1",
                file=sys.stderr,
            )
            return 2
        result = ValueAdaptiveSearch(config).solve(problem, seed=args.seed)
        print(result.summary())
        if result.solved and args.render and hasattr(problem, "render"):
            print(problem.render(result.config))
        return 0 if result.solved else 1
    if args.walkers <= 1:
        result = AdaptiveSearch(config).solve(problem, seed=args.seed)
        print(result.summary())
        solved, config_vec = result.solved, result.config
    elif args.executor == "cooperative":
        coop = CooperativeMultiWalk(config).solve(
            problem, args.walkers, seed=args.seed
        )
        print(coop.summary())
        solved, config_vec = coop.solved, coop.config
    else:
        parallel = MultiWalkSolver(
            config,
            executor=args.executor,
            poll_every=args.poll_every,
            launch_overhead=args.launch_overhead,
            mp_context=args.mp_context,
            lanes=args.lanes,
        ).solve(problem, args.walkers, seed=args.seed)
        print(parallel.summary())
        solved, config_vec = parallel.solved, parallel.config
    if solved and args.render and hasattr(problem, "render"):
        print(problem.render(config_vec))
    return 0 if solved else 1


def cmd_sample(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    spec = BenchmarkSpec(args.family, _parse_params(args.set))
    cache = SampleCache(args.cache) if args.cache else None
    if args.service_workers and args.vector_lanes:
        print(
            "error: pass --service-workers or --vector-lanes, not both",
            file=sys.stderr,
        )
        return 2
    if args.service_workers:
        from repro.service import SolverService

        service_cm = SolverService(n_workers=args.service_workers)
    else:
        service_cm = nullcontext()
    with service_cm as service:
        samples = collect_samples(
            spec,
            args.runs,
            seed=args.seed,
            solver_config=_solver_config(args),
            cache=cache,
            service=service,
            vector_lanes=args.vector_lanes or None,
        )
    solved = [s for s in samples if s.solved]
    print(
        f"{spec.label}: {len(solved)}/{len(samples)} runs solved"
    )
    for metric in ("wall_time", "iterations"):
        values = scaled_times(samples, metric=metric)
        # fallback: tiny or constant sample sets print a labeled point
        # mass instead of aborting the whole report
        fit = best_fit(np.maximum(values, 1e-9), on_degenerate="fallback")
        print(
            f"  {metric}: mean={values.mean():.6g} median={np.median(values):.6g} "
            f"min={values.min():.6g} max={values.max():.6g}"
        )
        print(f"  {metric} fit: {fit.summary()}")
    if args.out:
        save_samples(args.out, samples, meta={"spec": spec.label, "runs": args.runs})
        print(f"samples written to {args.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run every standalone benchmark script and merge their JSON results.

    A script qualifies if it lives in the benchmarks directory, matches
    ``bench_*.py``, and supports the ``--smoke``/``--json`` convention
    (checked by source inspection, so pytest-benchmark modules are skipped
    rather than run with flags they do not understand).  One merged
    ``BENCH_summary.json`` captures the per-PR perf trajectory.
    """
    import json
    import subprocess
    import time as _time
    from pathlib import Path

    bench_dir = Path(args.dir)
    if not bench_dir.is_dir():
        print(f"error: benchmark directory {bench_dir} not found", file=sys.stderr)
        return 2
    scripts = []
    for path in sorted(bench_dir.glob("bench_*.py")):
        source = path.read_text(encoding="utf-8")
        if '"--smoke"' in source and '"--json"' in source:
            scripts.append(path)
    if not scripts:
        print(f"error: no --smoke/--json benches under {bench_dir}", file=sys.stderr)
        return 2
    if args.only:
        # short aliases for the long ablation-script names
        aliases = {"coop": "abl_cooperation", "ha": "failover"}
        wanted = {aliases.get(name, name) for name in args.only}
        scripts = [p for p in scripts if p.stem.removeprefix("bench_") in wanted]
        missing = wanted - {p.stem.removeprefix("bench_") for p in scripts}
        if missing:
            print(f"error: unknown benches {sorted(missing)}", file=sys.stderr)
            return 2

    summary: dict[str, object] = {
        "smoke": bool(args.smoke),
        "generated_at": _time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "benches": {},
    }
    if args.only:
        # partial run: fold the fresh results into an existing summary so
        # `repro bench --only X` updates one bench without erasing the rest
        try:
            previous = json.loads(Path(args.out).read_text(encoding="utf-8"))
            summary["benches"] = dict(previous.get("benches", {}))
        except (OSError, json.JSONDecodeError):
            pass
    benches: dict[str, object] = summary["benches"]  # type: ignore[assignment]
    all_ok = True
    for script in scripts:
        name = script.stem.removeprefix("bench_")
        json_path = bench_dir / "out" / f"{name}.json"
        cmd = [sys.executable, str(script), "--json", str(json_path)]
        if args.smoke:
            cmd.append("--smoke")
        print(f"[bench] running {script.name} ...", flush=True)
        started = _time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=args.timeout
            )
        except subprocess.TimeoutExpired:
            all_ok = False
            benches[name] = {"status": "timeout", "timeout_s": args.timeout}
            print(f"[bench] {name}: TIMEOUT after {args.timeout:.0f}s")
            continue
        elapsed = _time.perf_counter() - started
        entry: dict[str, object] = {
            "status": "pass" if proc.returncode == 0 else "fail",
            "exit_code": proc.returncode,
            "elapsed_s": round(elapsed, 3),
        }
        try:
            entry["results"] = json.loads(json_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            entry["results"] = None
            if proc.returncode == 0:
                entry["status"] = "fail"
        if entry["status"] != "pass":
            all_ok = False
            tail = "\n".join(
                (proc.stdout + "\n" + proc.stderr).strip().splitlines()[-8:]
            )
            entry["output_tail"] = tail
        benches[name] = entry
        print(
            f"[bench] {name}: {str(entry['status']).upper()} "
            f"({elapsed:.1f}s)"
        )
    summary["pass"] = all_ok and all(
        entry.get("status") == "pass"
        for entry in benches.values()
        if isinstance(entry, dict)
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"[bench] summary written to {out}")
    return 0 if all_ok else 1


def _log_lane_kernels() -> None:
    """One start-up line on stderr: what this host's lane slices run on,
    and why not ``lanes.c`` when they do not."""
    from repro.vector import kernel_backend

    name, error = kernel_backend()
    reason = f" ({error.splitlines()[0]})" if error else ""
    print(f"lane kernels: {name}{reason}", file=sys.stderr, flush=True)


@_forward_termination_signals()
def cmd_service(args: argparse.Namespace) -> int:
    """Batch front-end: run many solve jobs on one warm worker pool."""
    from repro.service import (
        JobSpec,
        SolverService,
        format_results_table,
        load_jobs_file,
        run_specs,
    )

    if args.jobs_file is not None:
        specs = load_jobs_file(args.jobs_file)
    elif args.family is not None:
        specs = [
            JobSpec(
                family=args.family,
                params=_parse_params(args.set),
                walkers=args.walkers,
                seed=args.seed,
                deadline=args.deadline,
                repeat=args.jobs,
            )
        ]
    else:
        print(
            "error: pass a jobs file or --family (see `repro service -h`)",
            file=sys.stderr,
        )
        return 2
    _log_lane_kernels()
    service = SolverService(
        n_workers=args.workers,
        mp_context=args.mp_context,
        poll_every=args.poll_every,
    ).start()
    if args.pid_file:
        from pathlib import Path

        pids = service.pool.worker_pids() if service.pool is not None else []
        Path(args.pid_file).write_text(
            "".join(f"{pid}\n" for pid in pids), encoding="utf-8"
        )
    try:
        rows = run_specs(service, specs, config=_solver_config(args))
        print(format_results_table(rows, service.snapshot()))
    except KeyboardInterrupt:
        # Ctrl-C / SIGTERM: cancel outstanding jobs and reap every worker
        # process before exiting — no orphans survive this path
        print(
            "\ninterrupted: cancelling jobs and shutting the pool down",
            file=sys.stderr,
        )
        service.shutdown(wait_jobs=False)
        return 130
    finally:
        service.shutdown()  # idempotent; covers error exits too
    failed = [r for _, r in rows if r.status.value in ("failed", "timed_out")]
    unsolved = [r for _, r in rows if not r.solved]
    if failed:
        return 1
    return 0 if not unsolved else 1


@_forward_termination_signals()
def cmd_coordinator(args: argparse.Namespace) -> int:
    """Run the cluster coordinator (leader, or hot standby) until interrupted."""
    import asyncio

    from repro.net import Coordinator

    _configure_tracing(args, "coordinator")
    predictor = None
    if args.autoscale:
        # the predictor refits on the event loop as solved walks stream
        # in: pay scipy's ~0.6 s load now, before anything listens
        import scipy.stats  # noqa: F401

        from repro.autoscale import ModelStore, Predictor

        predictor = Predictor(ModelStore.open(args.autoscale))
    if args.standby_of:
        return _run_standby(args, predictor)
    coordinator = Coordinator(
        args.host,
        args.port,
        heartbeat_timeout=args.heartbeat_timeout,
        max_redispatch=args.max_redispatch,
        journal_path=args.journal,
        hedge_factor=args.hedge_factor,
        max_hedges=args.max_hedges,
        min_hedge_delay=args.min_hedge_delay,
        predictor=predictor,
        hedge_quantile=args.hedge_quantile,
    )

    async def _serve() -> None:
        host, port = await coordinator.start()
        print(f"coordinator listening on {host}:{port}", flush=True)
        if predictor is not None:
            print(
                f"autoscale models: {args.autoscale} "
                f"({len(predictor.store)} warm)",
                flush=True,
            )
        try:
            await coordinator.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await coordinator.stop()
            if predictor is not None:
                # persist what this run learned from solved walks
                await asyncio.to_thread(predictor.save)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("coordinator stopped", file=sys.stderr)
    return 0


def _run_standby(args: argparse.Namespace, predictor) -> int:
    """``repro coordinator --standby-of``: mirror the leader, take over.

    The standby tails the leader's journal over the v7 replication
    stream; when the leader's lease goes silent (or the connection
    drops) it promotes itself and serves on this process's --host/--port
    — the second entry of the ordered address list clients and agents
    were started with.
    """
    import asyncio

    from repro.net import StandbyCoordinator

    standby = StandbyCoordinator(
        args.standby_of,
        host=args.host,
        port=args.port,
        journal_path=args.journal,
        lease_timeout=args.lease_timeout,
        coordinator_kwargs=dict(
            heartbeat_timeout=args.heartbeat_timeout,
            max_redispatch=args.max_redispatch,
            hedge_factor=args.hedge_factor,
            max_hedges=args.max_hedges,
            min_hedge_delay=args.min_hedge_delay,
            predictor=predictor,
            hedge_quantile=args.hedge_quantile,
        ),
    )

    async def _serve() -> None:
        host, port = await standby.start()
        print(
            f"standby mirroring leader {standby.leader[0]}:"
            f"{standby.leader[1]} (lease {args.lease_timeout:.1f}s); "
            f"will serve on {host}:{port} after takeover",
            flush=True,
        )
        try:
            await standby.wait_promoted()
            assert standby.coordinator is not None
            print(
                f"promoted ({standby.promote_reason}) in "
                f"{standby.failover_elapsed:.3f}s: coordinator listening "
                f"on {host}:{port}, "
                f"{standby.coordinator.counters['recovered_jobs']} job(s) "
                "recovered",
                flush=True,
            )
            await standby.coordinator.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await standby.stop()
            if predictor is not None:
                await asyncio.to_thread(predictor.save)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("standby stopped", file=sys.stderr)
    return 0


@_forward_termination_signals()
def cmd_node(args: argparse.Namespace) -> int:
    """Run one node agent against a coordinator until interrupted.

    With ``--reconnect`` the warm worker pool is started once and kept
    across coordinator outages: when the connection drops, a fresh agent
    handshake is retried against the same :class:`SolverService` with
    exponential backoff, so a coordinator restart does not pay the pool
    re-spawn cost on every node.
    """
    import asyncio

    from repro.errors import NetError
    from repro.net import NodeAgent, parse_addresses

    addresses = parse_addresses(args.connect)
    _configure_tracing(args, args.name or "node")
    _log_lane_kernels()

    def _agent(service=None) -> NodeAgent:
        return NodeAgent(
            addresses,
            n_workers=args.workers,
            name=args.name,
            heartbeat_interval=args.heartbeat_interval,
            reconnect=args.reconnect,
            lease_timeout=args.lease_timeout,
            poll_every=args.poll_every,
            mp_context=args.mp_context,
            service=service,
        )

    async def _run_once() -> None:
        agent = _agent()
        try:
            await agent.start()
            print(
                f"node {agent.name} connected to {agent.host}:{agent.port} "
                f"({agent.n_workers} workers)",
                flush=True,
            )
            await agent.closed.wait()
        finally:
            await agent.stop()

    async def _run_reconnecting() -> None:
        from repro.service import SolverService

        service = await asyncio.to_thread(
            lambda: SolverService(
                n_workers=args.workers,
                poll_every=args.poll_every,
                mp_context=args.mp_context,
            ).start()
        )
        delay = 0.5
        try:
            while True:
                agent = _agent(service=service)
                try:
                    await agent.start()
                    delay = 0.5
                    print(
                        f"node {agent.name} connected to "
                        f"{agent.host}:{agent.port} "
                        f"({agent.n_workers} workers)",
                        flush=True,
                    )
                    await agent.closed.wait()
                except NetError as err:
                    print(f"node: {err}", file=sys.stderr)
                finally:
                    await agent.stop()
                print(
                    f"node disconnected; retrying in {delay:.1f}s",
                    file=sys.stderr,
                )
                await asyncio.sleep(delay)
                delay = min(delay * 2, 10.0)
        finally:
            await asyncio.to_thread(service.shutdown, wait_jobs=False)

    try:
        if args.reconnect:
            asyncio.run(_run_reconnecting())
        else:
            asyncio.run(_run_once())
            print("node disconnected", file=sys.stderr)
    except KeyboardInterrupt:
        print("node stopped", file=sys.stderr)
    return 0


@_forward_termination_signals()
def cmd_gateway(args: argparse.Namespace) -> int:
    """Run the solve-as-a-service HTTP/WebSocket gateway until interrupted."""
    import asyncio

    # the planner fits on the event loop once a tenant leaves n_walkers
    # open: pay scipy's ~0.6 s load now, before anything listens, not
    # inside that tenant's request
    import scipy.stats  # noqa: F401

    from repro.gateway import AdmissionController, Gateway, TenantRegistry
    from repro.net import parse_address
    from repro.telemetry.recorder import get_recorder

    _configure_tracing(args, "gateway")
    coordinator = parse_address(args.connect)
    if args.keys is not None:
        tenants = TenantRegistry.from_file(args.keys)
    else:
        print(
            "warning: no --keys file; running in anonymous mode "
            "(any API key accepted, shared default quotas)",
            file=sys.stderr,
        )
        tenants = TenantRegistry(allow_anonymous=True)
    predictor = None
    if args.autoscale:
        from repro.autoscale import ModelStore, Predictor

        # warm-start from the file when present; the gateway saves the
        # store back on shutdown so restarts keep what was learned
        predictor = Predictor(ModelStore.open(args.autoscale))
    admission = None
    if args.cost_capacity is not None:
        admission = AdmissionController(
            capacity=args.capacity, cost_capacity=args.cost_capacity
        )
    gateway = Gateway(
        coordinator,
        tenants,
        host=args.host,
        port=args.port,
        capacity=args.capacity,
        predictor=predictor,
        admission=admission,
        cache_entries=args.cache_entries,
        cache_ttl=args.cache_ttl,
        recorder=get_recorder(),
    )

    async def _serve() -> None:
        await gateway.start()
        host, port = gateway.address
        print(
            f"gateway listening on {host}:{port} "
            f"({len(tenants)} tenant(s), capacity {args.capacity}), "
            f"coordinator {coordinator[0]}:{coordinator[1]}",
            flush=True,
        )
        if predictor is not None:
            print(
                f"autoscale models: {args.autoscale} "
                f"({len(predictor.store)} warm)",
                flush=True,
            )
        try:
            await gateway.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await gateway.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("gateway stopped", file=sys.stderr)
    return 0


def _format_cluster_stats(stats: dict) -> str:
    """Cluster-wide throughput/latency table for ``repro submit --stats``."""
    coord = stats["coordinator"]
    lines = [
        "cluster: "
        f"{coord['jobs_completed']}/{coord['jobs_submitted']} jobs done "
        f"({coord['jobs_solved']} solved, {coord['jobs_failed']} failed), "
        f"{coord['walks_dispatched']} walks dispatched, "
        f"{coord['redispatches']} re-dispatch(es), "
        f"{coord['nodes_connected']} node(s) connected "
        f"({coord['nodes_lost']} lost)",
    ]
    header = (
        f"{'node':<16} {'cap':>4}  {'walks':>6}  {'jobs/s':>7}  "
        f"{'p50 ms':>7}  {'p95 ms':>7}  {'util':>5}"
    )
    lines += [header, "-" * len(header)]
    for node in stats["nodes"]:
        load = node.get("load") or {}
        lines.append(
            f"{node['name']:<16.16} {node['capacity']:>4}  "
            f"{load.get('walks_completed', 0):>6}  "
            f"{load.get('throughput_jobs_per_s', 0.0):>7.2f}  "
            f"{load.get('latency_p50', 0.0) * 1e3:>7.1f}  "
            f"{load.get('latency_p95', 0.0) * 1e3:>7.1f}  "
            f"{load.get('worker_utilization', 0.0):>5.0%}"
        )
    return "\n".join(lines)


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one multi-walk job to a running cluster and wait."""
    from repro.net import ClusterClient

    if not args.connect and not args.coordinators:
        print(
            "error: pass --connect HOST:PORT or --coordinators A:1,B:2",
            file=sys.stderr,
        )
        return 2
    problem = make_problem(args.family, **_parse_params(args.set))
    config = _solver_config(args)
    coop = None
    if args.coop:
        from repro.coop import CoopConfig

        coop = CoopConfig(
            topology=args.topology,
            report_interval=args.report_interval,
            adopt_interval=args.adopt_interval,
            migration_interval=args.migration_interval,
            migration_timeout=args.migration_timeout,
            seed=args.coop_seed,
        )
    _configure_tracing(args, "client")
    if args.coordinators:
        # ordered leader,standby list: failover implies reconnect
        endpoints: object = args.coordinators
        reconnect = True
    else:
        endpoints = args.connect
        reconnect = args.reconnect
    with ClusterClient(endpoints, reconnect=reconnect) as client:
        result = client.solve(
            problem,
            args.walkers,
            seed=args.seed,
            config=config,
            timeout=args.timeout,
            coop=coop,
        )
        print(result.summary())
        if args.stats:
            print(_format_cluster_stats(client.stats()))
        if result.solved and args.render and hasattr(problem, "render"):
            print(problem.render(result.config))
    return 0 if result.solved else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    """Replay deterministic failure drills against an in-process cluster."""
    from repro.chaos import (
        SCENARIO_NAMES,
        plan_from_dict,
        run_custom,
        run_scenario,
    )

    if args.list:
        for name in SCENARIO_NAMES:
            print(name)
        return 0
    if args.file:
        import json
        from pathlib import Path

        from repro.errors import ChaosError

        try:
            spec = json.loads(Path(args.file).read_text())
        except OSError as err:
            raise ChaosError(f"cannot read fault plan: {err}") from err
        except json.JSONDecodeError as err:
            raise ChaosError(
                f"fault plan {args.file} is not valid JSON: {err}"
            ) from err
        plan = plan_from_dict(spec)
        if args.seed:
            plan = plan.reseeded(args.seed)
        report = run_custom(plan)
        print(report.summary())
        return 0 if report.passed else 1
    names = (
        list(SCENARIO_NAMES) if args.scenario == "all" else [args.scenario]
    )
    reports = [run_scenario(name, seed=args.seed) for name in names]
    for report in reports:
        print(report.summary())
    failed = [r.name for r in reports if not r.passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Merge per-process trace files and print timeline + latency report."""
    from repro.telemetry import (
        analyze_trace,
        load_trace,
        render_report,
        render_timeline,
    )

    records = load_trace(args.path)
    summary = analyze_trace(records, trace_id=args.trace_id)
    if not args.report_only:
        print(render_timeline(records, summary))
        print()
    print(render_report(summary))
    return 0


def cmd_autoscale(args: argparse.Namespace) -> int:
    """Inspect, query, seed, or export a learned runtime-model store."""
    import json
    from pathlib import Path

    from repro.autoscale import ModelStore, Predictor

    store = ModelStore.open(args.store)

    def _predictor() -> Predictor:
        return Predictor(
            store,
            max_walkers=args.max_walkers,
            min_efficiency=args.min_efficiency,
            confidence=args.confidence,
        )

    def _fmt(value: object) -> str:
        return f"{value:.4g}" if isinstance(value, float) else "-"

    if args.action == "show":
        rows = _predictor().stats()
        if not rows:
            print(f"{args.store}: no models learned yet")
            return 0
        header = (
            f"{'model':<24} {'obs':>6}  {'fit':<20} {'mean s':>9}  "
            f"{'p95 s':>9}  {'plan':>4}  rule"
        )
        print(header)
        print("-" * len(header))
        for key, row in rows.items():
            print(
                f"{key:<24.24} {row['observations']:>6}  "
                f"{(row['fit'] or '-'):<20} {_fmt(row['mean']):>9}  "
                f"{_fmt(row['p95']):>9}  {row.get('plan', '-'):>4}  "
                f"{row.get('rule', '-')}"
            )
        return 0

    if args.action == "predict":
        predictor = _predictor()
        decision = predictor.decide(args.family, args.size, args.deadline)
        source = decision.model or "cold start, built-in defaults"
        print(
            f"plan: {decision.n_walkers} walker(s) "
            f"[{decision.rule} rule, {source}]"
        )
        if decision.hit_probability is not None:
            print(
                f"predicted P(finish <= {args.deadline:g}s) = "
                f"{decision.hit_probability:.3f}"
            )
        delay = predictor.hedge_delay(
            args.family, args.size, quantile=args.quantile
        )
        if delay is not None:
            print(
                f"hedge stragglers after {delay:.4g}s "
                f"(p{args.quantile * 100:g} of learned runtimes)"
            )
        cost = predictor.expected_cost(
            args.family, decision.n_walkers,
            size=args.size, deadline=args.deadline,
        )
        if cost is not None:
            print(f"predicted cost: {cost:.4g} walker-seconds")
        return 0

    if args.action == "seed":
        from repro.cluster.trace import load_samples

        samples, _meta = load_samples(args.samples)
        solved = [s for s in samples if s.solved]
        for sample in solved:
            store.observe(args.family, sample.wall_time, size=args.size)
        store.save()
        skipped = len(samples) - len(solved)
        print(
            f"seeded {len(solved)} solved wall time(s) into {args.store}"
            + (f" ({skipped} unsolved skipped)" if skipped else "")
        )
        return 0

    # export: the raw JSON document (for diffing, backup, or hand-editing)
    text = json.dumps(store.to_json(), indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"store exported to {args.out}")
    else:
        print(text)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.harness.experiment import EXPERIMENTS

    cache = SampleCache(args.cache)
    ids = sorted(EXPERIMENTS) if args.id == "all" else [args.id]
    sections: list[str] = []
    for experiment_id in ids:
        report = run_experiment(
            experiment_id,
            cache=cache,
            n_samples=args.samples,
            sim_reps=args.reps,
        )
        text = report.render()
        print(text)
        sections.append(text)
    if args.out:
        from pathlib import Path

        header = (
            "# Reproduction report — Performance Analysis of Parallel "
            "Constraint-Based Local Search (PPoPP 2012)\n\n"
            "Generated by `python -m repro experiment "
            f"{args.id}`.\n\n```\n"
        )
        Path(args.out).write_text(
            header + "\n\n".join(sections) + "\n```\n", encoding="utf-8"
        )
        print(f"report written to {args.out}")
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel constraint-based local search (PPoPP 2012 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_problems = sub.add_parser("problems", help="list benchmark families")
    p_problems.set_defaults(func=cmd_problems)

    p_platforms = sub.add_parser("platforms", help="list simulated platforms")
    p_platforms.set_defaults(func=cmd_platforms)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("family", help="problem family (see `repro problems`)")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="problem parameter, repeatable (e.g. --set n=12)",
        )
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument(
            "--max-iterations", type=float, default=None, help="iteration budget"
        )
        p.add_argument(
            "--time-limit", type=float, default=None, help="seconds budget"
        )

    p_solve = sub.add_parser("solve", help="solve one instance")
    add_common(p_solve)
    p_solve.add_argument(
        "--walkers", type=int, default=1, help="parallel walkers (1 = sequential)"
    )
    p_solve.add_argument(
        "--executor",
        choices=("inline", "process", "cooperative", "vector"),
        default="process",
        help="multi-walk executor when --walkers > 1",
    )
    p_solve.add_argument(
        "--lanes",
        type=int,
        default=None,
        metavar="K",
        help="vector executor: lanes per engine process (default: all "
        "walkers lock-step in this process; less than --walkers runs a "
        "hybrid processes x lanes layout)",
    )
    p_solve.add_argument(
        "--render", action="store_true", help="pretty-print the solution"
    )
    p_solve.add_argument(
        "--poll-every",
        type=int,
        default=128,
        help="process executor: iterations between cancel-event polls",
    )
    p_solve.add_argument(
        "--launch-overhead",
        type=float,
        default=0.0,
        help="inline executor: modelled job-launch latency in seconds",
    )
    p_solve.add_argument(
        "--mp-context",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help="multiprocessing start method for the process executor",
    )
    p_solve.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="record telemetry (events + spans) as JSONL under this directory",
    )
    p_solve.add_argument(
        "--milestone-every",
        type=int,
        default=0,
        metavar="N",
        help="with --trace: emit an iteration milestone every N iterations",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_sample = sub.add_parser(
        "sample", help="collect independent sequential run samples"
    )
    add_common(p_sample)
    p_sample.add_argument("--runs", type=int, default=50, help="number of runs")
    p_sample.add_argument("--out", default=None, help="write samples JSON here")
    p_sample.add_argument("--cache", default=None, help="sample cache directory")
    p_sample.add_argument(
        "--service-workers",
        type=int,
        default=0,
        help="collect runs concurrently on a warm pool of this many workers "
        "(0 = sequential in-process)",
    )
    p_sample.add_argument(
        "--vector-lanes",
        type=int,
        default=0,
        metavar="K",
        help="collect runs as lanes of the lock-step vector engine, K "
        "at a time (0 = sequential; iteration counts stay bit-identical)",
    )
    p_sample.set_defaults(func=cmd_sample)

    p_bench = sub.add_parser(
        "bench",
        help="run the standalone benchmark scripts and merge their JSON "
        "results into one summary",
    )
    p_bench.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI mode: forward --smoke to every bench",
    )
    p_bench.add_argument(
        "--dir",
        default="benchmarks",
        help="benchmark scripts directory (default ./benchmarks)",
    )
    p_bench.add_argument(
        "--out",
        default="BENCH_summary.json",
        help="merged summary path (default ./BENCH_summary.json)",
    )
    p_bench.add_argument(
        "--only",
        nargs="+",
        default=None,
        metavar="NAME",
        help="run only these benches (names without the bench_ prefix)",
    )
    p_bench.add_argument(
        "--timeout",
        type=float,
        default=900.0,
        help="per-bench wall-clock timeout in seconds",
    )
    p_bench.set_defaults(func=cmd_bench)

    p_service = sub.add_parser(
        "service",
        help="run a batch of solve jobs concurrently on a warm worker pool",
    )
    p_service.add_argument(
        "jobs_file",
        nargs="?",
        default=None,
        help="JSON jobs file (list of {family, params, walkers, seed, "
        "priority, deadline, repeat} objects)",
    )
    p_service.add_argument(
        "--family", default=None, help="problem family (instead of a jobs file)"
    )
    p_service.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="problem parameter for --family, repeatable",
    )
    p_service.add_argument(
        "--jobs", type=int, default=1, help="copies of the --family job"
    )
    p_service.add_argument(
        "--walkers", type=int, default=1, help="walkers per job"
    )
    p_service.add_argument("--seed", type=int, default=None, help="master seed")
    p_service.add_argument(
        "--workers", type=int, default=4, help="persistent pool size"
    )
    p_service.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-job deadline in seconds",
    )
    p_service.add_argument(
        "--max-iterations", type=float, default=None, help="iteration budget"
    )
    p_service.add_argument(
        "--time-limit", type=float, default=None, help="per-walk seconds budget"
    )
    p_service.add_argument(
        "--poll-every",
        type=int,
        default=64,
        help="iterations between cancel-token polls inside walks",
    )
    p_service.add_argument(
        "--mp-context",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help="multiprocessing start method for the pool",
    )
    p_service.add_argument(
        "--pid-file",
        default=None,
        help="write the worker process pids here after the pool starts "
        "(one per line; ops/testing hook)",
    )
    p_service.set_defaults(func=cmd_service)

    p_coord = sub.add_parser(
        "coordinator", help="run the distributed-solve coordinator"
    )
    p_coord.add_argument("--host", default="0.0.0.0", help="bind address")
    p_coord.add_argument(
        "--port", type=int, default=7710, help="TCP port (0 = pick a free one)"
    )
    p_coord.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=5.0,
        help="seconds of silence after which a node is declared dead",
    )
    p_coord.add_argument(
        "--max-redispatch",
        type=int,
        default=2,
        help="re-dispatches of a job's walks off dead nodes before it fails",
    )
    p_coord.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="write-ahead job journal; a restarted coordinator given the "
        "same path recovers and re-dispatches in-flight jobs",
    )
    p_coord.add_argument(
        "--hedge-factor",
        type=float,
        default=None,
        metavar="F",
        help="hedge a straggler walk once it runs F times longer than the "
        "median completed walk (default: hedging off)",
    )
    p_coord.add_argument(
        "--max-hedges",
        type=int,
        default=2,
        help="with --hedge-factor: hedged re-dispatches allowed per job",
    )
    p_coord.add_argument(
        "--min-hedge-delay",
        type=float,
        default=0.25,
        metavar="S",
        help="never hedge a walk younger than this many seconds",
    )
    p_coord.add_argument(
        "--autoscale",
        default=None,
        metavar="PATH",
        help="runtime-model store (JSON, created if missing): solved walk "
        "wall times stream into it and it is saved back on shutdown",
    )
    p_coord.add_argument(
        "--hedge-quantile",
        type=float,
        default=None,
        metavar="Q",
        help="with --autoscale: hedge a straggler walk once it outlives "
        "the fitted runtime quantile Q (e.g. 0.95); preferred over "
        "--hedge-factor for families with learned models",
    )
    p_coord.add_argument(
        "--standby-of",
        default=None,
        metavar="HOST:PORT",
        help="run as a hot standby of the leader at this address: mirror "
        "its journal over the v7 replication stream and take over on "
        "this process's --host/--port when the leader's lease lapses",
    )
    p_coord.add_argument(
        "--lease-timeout",
        type=float,
        default=2.0,
        metavar="S",
        help="with --standby-of: seconds of leader-lease silence before "
        "the standby promotes itself",
    )
    p_coord.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="record coordinator telemetry as JSONL under this directory",
    )
    p_coord.set_defaults(func=cmd_coordinator)

    p_node = sub.add_parser(
        "node", help="run one node agent against a coordinator"
    )
    p_node.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="coordinator address, or an ordered leader,standby list "
        "(with --reconnect the agent re-homes down the list on failover)",
    )
    p_node.add_argument(
        "--lease-timeout",
        type=float,
        default=None,
        metavar="S",
        help="with --reconnect against a v7 coordinator: seconds of "
        "inbound silence before the coordinator is presumed dead and "
        "the agent re-homes (catches leader deaths that deliver no EOF)",
    )
    p_node.add_argument(
        "--workers", type=int, default=2, help="local warm-pool size"
    )
    p_node.add_argument(
        "--name", default=None, help="node name shown in cluster stats"
    )
    p_node.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        help="seconds between heartbeat frames",
    )
    p_node.add_argument(
        "--poll-every",
        type=int,
        default=32,
        help="iterations between cancel-token polls inside walks",
    )
    p_node.add_argument(
        "--mp-context",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help="multiprocessing start method for the local pool",
    )
    p_node.add_argument(
        "--reconnect",
        action="store_true",
        help="keep the warm pool alive across coordinator outages and "
        "re-handshake with exponential backoff instead of exiting",
    )
    p_node.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="record node telemetry as JSONL under this directory",
    )
    p_node.add_argument(
        "--milestone-every",
        type=int,
        default=0,
        metavar="N",
        help="with --trace: emit an iteration milestone every N iterations",
    )
    p_node.set_defaults(func=cmd_node)

    p_gateway = sub.add_parser(
        "gateway",
        help="run the solve-as-a-service HTTP/WebSocket front door over "
        "a cluster coordinator",
    )
    p_gateway.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address to submit jobs through",
    )
    p_gateway.add_argument("--host", default="127.0.0.1", help="bind address")
    p_gateway.add_argument(
        "--port", type=int, default=7720, help="HTTP port (0 = pick a free one)"
    )
    p_gateway.add_argument(
        "--keys",
        default=None,
        metavar="PATH",
        help="tenant keys file (JSON or TOML); omitted = anonymous mode",
    )
    p_gateway.add_argument(
        "--capacity",
        type=int,
        default=64,
        help="global in-flight job budget for admission control",
    )
    p_gateway.add_argument(
        "--cache-entries",
        type=int,
        default=1024,
        help="result-cache size (completed seeded jobs)",
    )
    p_gateway.add_argument(
        "--cache-ttl",
        type=float,
        default=3600.0,
        help="result-cache entry lifetime in seconds",
    )
    p_gateway.add_argument(
        "--autoscale",
        default=None,
        metavar="PATH",
        help="runtime-model store (JSON, created if missing): enables "
        "predictive walker planning from learned runtime models; saved "
        "back on shutdown for a warm restart",
    )
    p_gateway.add_argument(
        "--cost-capacity",
        type=float,
        default=None,
        metavar="WS",
        help="with --autoscale: total predicted walker-seconds admitted "
        "in flight before low-priority jobs are shed",
    )
    p_gateway.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="record gateway telemetry as JSONL under this directory",
    )
    p_gateway.set_defaults(func=cmd_gateway)

    p_submit = sub.add_parser(
        "submit", help="submit one multi-walk job to a running cluster"
    )
    add_common(p_submit)
    p_submit.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="coordinator address",
    )
    p_submit.add_argument(
        "--coordinators",
        default=None,
        metavar="A:1,B:2",
        help="ordered coordinator list (leader first, standbys after); "
        "implies --reconnect so the client re-homes on failover",
    )
    p_submit.add_argument(
        "--walkers", type=int, default=1, help="walks raced across the cluster"
    )
    p_submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="seconds to wait for the cluster answer",
    )
    p_submit.add_argument(
        "--stats",
        action="store_true",
        help="print cluster-wide throughput/latency stats after the solve",
    )
    p_submit.add_argument(
        "--render", action="store_true", help="pretty-print the solution"
    )
    p_submit.add_argument(
        "--reconnect",
        action="store_true",
        help="survive coordinator restarts: redial with backoff and "
        "resubmit the in-flight job idempotently",
    )
    p_submit.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="record client-side telemetry as JSONL under this directory "
        "(run the coordinator/nodes with --trace into the same directory "
        "for a full cluster timeline)",
    )
    p_submit.add_argument(
        "--coop",
        action="store_true",
        help="run the walks as cooperating islands (one per node slice) "
        "with cross-node elite migration instead of an independent race",
    )
    p_submit.add_argument(
        "--topology",
        default="ring",
        choices=list(TOPOLOGIES),
        help="coop migration topology (with --coop; default ring)",
    )
    p_submit.add_argument(
        "--report-interval",
        type=int,
        default=64,
        metavar="ITERS",
        help="iterations per synchronized island round (with --coop)",
    )
    p_submit.add_argument(
        "--adopt-interval",
        type=int,
        default=256,
        metavar="ITERS",
        help="minimum iterations between elite adoptions (with --coop)",
    )
    p_submit.add_argument(
        "--migration-interval",
        type=int,
        default=1,
        metavar="ROUNDS",
        help="island rounds between cross-island exchanges (with --coop)",
    )
    p_submit.add_argument(
        "--migration-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="seconds an island waits for its elite_push before writing "
        "the round off as lost (with --coop)",
    )
    p_submit.add_argument(
        "--coop-seed",
        type=int,
        default=None,
        help="adoption-RNG seed (with --coop; defaults to the job seed)",
    )
    p_submit.set_defaults(func=cmd_submit)

    p_chaos = sub.add_parser(
        "chaos",
        help="replay a deterministic failure drill against a local cluster",
    )
    p_chaos.add_argument(
        "scenario",
        nargs="?",
        default="all",
        help="scenario name (see --list) or 'all'",
    )
    p_chaos.add_argument(
        "--list", action="store_true", help="list the named scenarios"
    )
    p_chaos.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fault-plan seed; the same seed replays the same injections",
    )
    p_chaos.add_argument(
        "--file",
        default=None,
        metavar="PATH",
        help="run a custom fault plan from a JSON file instead of a named "
        "scenario (see repro.chaos.plan_from_dict for the schema)",
    )
    p_chaos.set_defaults(func=cmd_chaos)

    p_trace = sub.add_parser(
        "trace", help="merge recorded trace files into a timeline + report"
    )
    p_trace.add_argument(
        "path",
        help="trace directory (every *.jsonl inside is merged) or one file",
    )
    p_trace.add_argument(
        "--trace-id",
        default=None,
        help="analyze this trace id (default: the one with most events)",
    )
    p_trace.add_argument(
        "--report-only",
        action="store_true",
        help="skip the event timeline; print only the latency report",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_auto = sub.add_parser(
        "autoscale",
        help="inspect and query the learned runtime models behind "
        "predictive walker planning, hedging, and admission",
    )
    auto_sub = p_auto.add_subparsers(dest="action", required=True)

    def add_autoscale_store(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "store", help="model-store JSON path (created if missing)"
        )

    def add_autoscale_knobs(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-walkers",
            type=int,
            default=64,
            help="hard ceiling on any planned walker count",
        )
        p.add_argument(
            "--min-efficiency",
            type=float,
            default=0.5,
            help="no-deadline rule: largest k with speedup(k)/k above this",
        )
        p.add_argument(
            "--confidence",
            type=float,
            default=0.9,
            help="deadline rule: smallest k with P(min_k <= deadline) "
            "above this",
        )

    p_auto_show = auto_sub.add_parser(
        "show", help="table of learned models and the plans they imply"
    )
    add_autoscale_store(p_auto_show)
    add_autoscale_knobs(p_auto_show)
    p_auto_show.set_defaults(func=cmd_autoscale)

    p_auto_predict = auto_sub.add_parser(
        "predict",
        help="what would the scheduler do for this family right now?",
    )
    add_autoscale_store(p_auto_predict)
    p_auto_predict.add_argument("family", help="problem family")
    p_auto_predict.add_argument(
        "--size", type=int, default=None, help="instance size (e.g. n)"
    )
    p_auto_predict.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="plan for this deadline in seconds (default: efficiency rule)",
    )
    p_auto_predict.add_argument(
        "--quantile",
        type=float,
        default=0.95,
        help="straggler-hedging quantile to report",
    )
    add_autoscale_knobs(p_auto_predict)
    p_auto_predict.set_defaults(func=cmd_autoscale)

    p_auto_seed = auto_sub.add_parser(
        "seed",
        help="feed solved wall times from a `repro sample --out` JSON "
        "file into the store (offline warm-up)",
    )
    add_autoscale_store(p_auto_seed)
    p_auto_seed.add_argument("samples", help="samples JSON file")
    p_auto_seed.add_argument(
        "--family", required=True, help="family to credit the samples to"
    )
    p_auto_seed.add_argument(
        "--size", type=int, default=None, help="instance size (e.g. n)"
    )
    p_auto_seed.set_defaults(func=cmd_autoscale)

    p_auto_export = auto_sub.add_parser(
        "export", help="dump the store as JSON (backup / diff / hand-edit)"
    )
    add_autoscale_store(p_auto_export)
    p_auto_export.add_argument(
        "--out", default=None, help="write here instead of stdout"
    )
    p_auto_export.set_defaults(func=cmd_autoscale)

    p_exp = sub.add_parser("experiment", help="run a registered experiment")
    p_exp.add_argument(
        "id", help="experiment id (fig1, fig2, fig3, tab1, tabA) or 'all'"
    )
    p_exp.add_argument(
        "--out", default=None, help="also write the report to this file"
    )
    p_exp.add_argument("--samples", type=int, default=None, help="samples override")
    p_exp.add_argument("--reps", type=int, default=None, help="simulation reps")
    p_exp.add_argument(
        "--cache", default=".repro_cache", help="sample cache directory"
    )
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
