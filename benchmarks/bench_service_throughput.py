"""Warm-pool vs cold-executor service benchmark (standalone script).

Two measurements back the service subsystem's reason to exist:

1. **Per-job latency, warm vs cold.**  The same budget-capped multi-walk
   job (magic-square 10, 4 walkers, fixed iteration budget, so each walk
   does a deterministic amount of work) is solved repeatedly

   - *cold*: ``MultiWalkSolver(executor="process")`` — spawn 4 processes,
     pickle the problem 4 times, tear everything down, per call;
   - *warm*: one persistent :class:`~repro.service.SolverService` pool —
     processes spawned once, problem pickled once per worker.

   The warm path must be at least ``--min-speedup`` (default 3x) faster
   per job: what's left is queue round-trips instead of process spawns.

2. **Concurrent-job throughput.**  A batch of distinct solvable jobs is
   submitted at once; the service metrics must show >= 2 jobs in flight
   concurrently and every job's winner must solve *its own* instance
   (cross-job cancellation isolation).

Run as a script (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --smoke

Exit code 0 iff both acceptance checks pass.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

from repro.core.config import AdaptiveSearchConfig
from repro.parallel.multiwalk import MultiWalkSolver
from repro.problems import make_problem
from repro.service import Job, JobStatus, SolverService

ARTIFACT = Path(__file__).parent / "out" / "service_throughput.txt"

#: per-walk iteration budget of the latency probe: small enough that the
#: job's cost is dominated by orchestration (spawn/pickle vs queue hops),
#: deterministic so warm and cold do identical solver work
PROBE_ITERATIONS = 4
WALKERS = 4


def measure_cold(problem, n_jobs: int, config) -> list[float]:
    """Per-job latency of the cold process executor (spawn per call)."""
    solver = MultiWalkSolver(config, executor="process", poll_every=16)
    latencies = []
    for index in range(n_jobs):
        start = time.perf_counter()
        solver.solve(problem, WALKERS, seed=index)
        latencies.append(time.perf_counter() - start)
    return latencies


def measure_warm(service, problem, n_jobs: int, config) -> list[float]:
    """Per-job latency on the already-warm pool (one job at a time)."""
    latencies = []
    for index in range(n_jobs):
        start = time.perf_counter()
        service.solve(problem, WALKERS, seed=index, config=config, timeout=600)
        latencies.append(time.perf_counter() - start)
    return latencies


def run_concurrent_phase(service, n_jobs: int, budget) -> tuple[int, int, list[str]]:
    """Race distinct solvable jobs concurrently; verify per-job winners.

    Returns (n_solved, peak_in_flight, failures).
    """
    problems = [make_problem("costas", n=9), make_problem("queens", n=25)]
    jobs = [
        Job(
            problem=problems[index % len(problems)],
            n_walkers=2,
            seed=index,
            config=budget,
        )
        for index in range(n_jobs)
    ]
    results = service.run_jobs(jobs, timeout=600)
    failures = []
    n_solved = 0
    for index, result in enumerate(results):
        problem = problems[index % len(problems)]
        if result.status is not JobStatus.SOLVED:
            failures.append(f"job {index} ({problem.name}): {result.status.value}")
            continue
        if not problem.is_solution(result.config):
            failures.append(
                f"job {index} ({problem.name}): winner config does not solve "
                "its own instance — cross-job cancellation leak?"
            )
            continue
        n_solved += 1
    peak = service.snapshot().peak_jobs_in_flight
    return n_solved, peak, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fast run for CI (fewer jobs, same checks)",
    )
    parser.add_argument("--workers", type=int, default=4, help="pool size")
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="latency-probe jobs per executor (default 8, smoke 4)",
    )
    parser.add_argument(
        "--concurrent-jobs", type=int, default=None,
        help="jobs raced at once in the throughput phase (default 8, smoke 6)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=3.0,
        help="required cold/warm per-job latency ratio",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write machine-readable results to this JSON file",
    )
    args = parser.parse_args(argv)
    n_jobs = args.jobs or (4 if args.smoke else 8)
    n_concurrent = args.concurrent_jobs or (6 if args.smoke else 8)

    probe_problem = make_problem("magic_square", n=10)
    probe_config = AdaptiveSearchConfig(max_iterations=PROBE_ITERATIONS)
    solve_budget = AdaptiveSearchConfig(max_iterations=500_000, time_limit=60.0)

    lines = [
        f"service throughput bench: {args.workers} workers, "
        f"{n_jobs} latency-probe jobs/executor, "
        f"{n_concurrent} concurrent jobs"
        + (" [smoke]" if args.smoke else ""),
        "",
    ]

    print("measuring cold per-job latency (process executor) ...", flush=True)
    cold = measure_cold(probe_problem, n_jobs, probe_config)

    with SolverService(args.workers, poll_every=16) as service:
        # first job warms the pool (ships the problem); measure after
        service.solve(
            probe_problem, WALKERS, seed=0, config=probe_config, timeout=600
        )
        print("measuring warm per-job latency (service pool) ...", flush=True)
        warm = measure_warm(service, probe_problem, n_jobs, probe_config)

        print("racing concurrent jobs ...", flush=True)
        n_solved, peak, failures = run_concurrent_phase(
            service, n_concurrent, solve_budget
        )
        snapshot = service.snapshot()

    cold_med = statistics.median(cold)
    warm_med = statistics.median(warm)
    speedup = cold_med / warm_med
    lines += [
        "per-job latency, identical budget-capped 4-walk job "
        f"(magic-square 10, {PROBE_ITERATIONS} iterations/walk):",
        f"  cold process executor : median {cold_med * 1e3:8.1f} ms  "
        f"(min {min(cold) * 1e3:.1f}, max {max(cold) * 1e3:.1f})",
        f"  warm service pool     : median {warm_med * 1e3:8.1f} ms  "
        f"(min {min(warm) * 1e3:.1f}, max {max(warm) * 1e3:.1f})",
        f"  warm-pool speedup     : {speedup:.1f}x  "
        f"(required >= {args.min_speedup:.1f}x)",
        "",
        f"concurrent phase: {n_solved}/{n_concurrent} jobs solved+verified, "
        f"peak {peak} jobs in flight (required >= 2)",
        "",
        snapshot.summary(),
    ]

    ok = True
    if speedup < args.min_speedup:
        ok = False
        lines.append(
            f"FAIL: warm-pool speedup {speedup:.2f}x below "
            f"{args.min_speedup:.1f}x"
        )
    if peak < 2:
        ok = False
        lines.append(f"FAIL: peak jobs in flight {peak} < 2")
    if failures:
        ok = False
        lines += [f"FAIL: {f}" for f in failures]
    if ok:
        lines.append("PASS")

    text = "\n".join(lines)
    print(text)
    ARTIFACT.parent.mkdir(exist_ok=True)
    ARTIFACT.write_text(text + "\n", encoding="utf-8")
    if args.json:
        import json

        json_path = Path(args.json)
        json_path.parent.mkdir(parents=True, exist_ok=True)
        json_path.write_text(
            json.dumps(
                {
                    "bench": "service_throughput",
                    "workers": args.workers,
                    "latency_ms": {
                        "cold_median": cold_med * 1e3,
                        "warm_median": warm_med * 1e3,
                    },
                    "speedup": speedup,
                    "min_speedup": args.min_speedup,
                    "concurrent": {
                        "solved": n_solved,
                        "jobs": n_concurrent,
                        "peak_in_flight": peak,
                    },
                    "pass": ok,
                },
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
        print(f"[json written to {json_path}]")
    print(f"[artifact written to {ARTIFACT}]")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
