"""The benchmark of record: one workload, one fixed job list, one run.

    python3 benchmarks/e2e/run.py --workload kernel_scalar --seed 5 \\
        --seconds 20 --trace 0        # the gated end-to-end metrics
    python3 benchmarks/e2e/run.py --workload served_dispatch --trace 1
                                      # every per-layer metric + spans
    python3 benchmarks/e2e/run.py --selfcheck     # A B B A, see README
    python3 benchmarks/e2e/run.py --smoke         # all four, ~3 s lists

Every run prints each metric by name with its unit, writes the full
report (``extra`` included) to ``benchmarks/out/e2e/<workload>.json``
(``<workload>.traced.json`` for the traced run) and
ends its standard output with one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  The exit code is non-zero when any job failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

import calib
import lists
from spans import Spans
from stack import adopt_orphans, every_cpu, pin_to_first_cpu, reap_children
from tree import OUT, REPO

#: set-ups per run: this process's own plus children that only set up
#: and tear down; ``setup_s`` is the median
SETUP_SAMPLES = 3

_SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}
END_TO_END = [m["name"] for m in _SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in _SPEC["per_layer"]]


def set_up(workload: str, jobs: list[lists.Job], clock: calib.Clock, log: Path):
    """Everything before the first measured job — imports, problem
    build, server spawn, pool warm, warm-up jobs — as one calibrated
    sample; returns ``(runner, sample)``."""
    before = clock.burst()
    cpu0 = time.process_time()
    start = time.perf_counter()
    import workloads  # imports repro: part of what a tenant waits for

    runner = workloads.make_runner(workload, jobs, log)
    try:
        runner.setup()
    except BaseException:
        runner.close()
        raise
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    remote = runner.remote() if runner.remote is not None else None
    spin = (before + clock.burst()) / 2.0
    if remote is None:
        return runner, calib.Sample(wall, spin, cpu, client_cpu_s=cpu)
    # the server and its workers were born inside this set-up, so their
    # CPU time so far is this set-up's
    return runner, calib.Sample.across_processes(wall, cpu, *remote, spin_s=spin)


def child_set_up(args: argparse.Namespace) -> calib.Sample:
    """One more set-up, in a fresh interpreter that then tears down."""
    with every_cpu():  # the child pins itself; its workers need every CPU
        done = subprocess.run(
            [
                sys.executable, __file__, "--setup-only",
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
            ],
            stdout=subprocess.PIPE,
            timeout=170,
            check=True,
        )
    return calib.Sample(**json.loads(done.stdout.splitlines()[-1]))


def report(
    stem: str,
    names: list[str],
    metrics: dict[str, float],
    extra: dict[str, Any],
    attempted: int,
    failures: list[str],
) -> int:
    """Print, persist and conclude one run; the process's exit code."""
    missing = [n for n in names if n not in metrics]
    surplus = [n for n in metrics if n not in names]
    if missing or surplus:
        raise RuntimeError(
            f"emitted metrics differ from BENCHMARK.json: "
            f"missing {missing}, undeclared {surplus}"
        )
    for name in names:
        print(f"{name:48s} {metrics[name]:14.6g} {UNITS[name]}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": UNITS[name]} for name in names
        },
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.json").write_text(
        json.dumps({**result, "extra": extra, "failures": failures}, indent=1)
    )
    print("extra " + json.dumps(extra))
    print(json.dumps(result))
    return 1 if failures else 0


def run_untraced(args: argparse.Namespace) -> int:
    clock = calib.Clock()
    jobs = lists.build(args.workload, args.seed, args.seconds)
    log = OUT / f"{args.workload}{'.setup' if args.setup_only else ''}.stderr"
    runner, own = set_up(args.workload, jobs, clock, log)
    try:
        if args.setup_only:
            print(json.dumps(dataclasses.asdict(own)))
            return 0
        import workloads

        set_ups = [own] + [child_set_up(args) for _ in range(SETUP_SAMPLES - 1)]
        outcomes = workloads.measure(runner, jobs, clock, args.seconds)
        failures = [f"{o.job}: {o.error}" for o in outcomes if o.error]
        failures += runner.verify(outcomes, args.seed)
        peak_rss_mb = runner.peak_rss_mb()
    finally:
        runner.close()

    metrics = workloads.end_to_end(
        outcomes, statistics.median(s.cal_s for s in set_ups), peak_rss_mb
    )
    firsts = [o.sample for o in outcomes if o.job.repeat_of is None]
    repeats = [o.sample for o in outcomes if o.job.repeat_of is not None]
    extra = {
        "seed": args.seed,
        "seconds": args.seconds,
        "requests": len(outcomes),
        "iterations_total": sum(o.iterations for o in outcomes),
        "measured_phase_raw_s": sum(o.sample.wall_s for o in outcomes),
        "setup_cal_s": [s.cal_s for s in set_ups],
        "setup_raw_s": [s.wall_s for s in set_ups],
        "job_raw_ms": calib.mean_raw_ms([o.sample for o in outcomes]),
        "miss_raw_ms": calib.mean_raw_ms(firsts),
        "hit_raw_ms": calib.mean_raw_ms(repeats),
        "first_time_jobs": calib.describe(firsts),
        "repeats": calib.describe(repeats),
        "bench.server_stderr_lines": runner.server_stderr_lines,
        **{f"bench.{k}": v for k, v in clock.noise().items()},
    }
    return report(
        args.workload, END_TO_END, metrics, extra, len(outcomes), failures
    )


#: pairs of jobs (one untraced, one traced) per second of ``--seconds``
#: that the traced run spends on measuring what its spans cost
_OVERHEAD_PAIRS_PER_S = {
    "kernel_scalar": 1.0,
    "multiwalk_vector": 1.0,
    "served_compute": 0.5,
    "served_dispatch": 4.0,
}


def trace_overhead(
    runner: Any, jobs: list[lists.Job], clock: calib.Clock, spans: Spans, pairs: int
):
    """Run job pairs, one of each pair with spans recorded, the traced
    one going first in every second pair; returns the outcomes of the
    untraced and of the traced jobs.

    In-process jobs are deterministic, so a pair is the same job twice;
    a served job sent twice would be a cache hit, so there a pair is two
    neighbouring first-time jobs of the list, which do equal work.
    """
    firsts = [job for job in jobs if job.repeat_of is None]
    if runner.workload.startswith("served_"):
        couples = list(zip(firsts[0::2], firsts[1::2]))[:pairs]
    else:
        couples = [(job, job) for job in firsts[:pairs]]
    plain, traced = [], []
    for index, couple in enumerate(couples):
        for job, side in zip(couple, (0, 1) if index % 2 == 0 else (1, 0)):
            recorder = spans if side else None
            outcome, sample = clock.measure(
                runner.run, job, recorder, f"{index}", remote=runner.remote
            )
            outcome.sample = sample
            (traced if side else plain).append(outcome)
    return plain, traced


def run_traced(args: argparse.Namespace) -> int:
    clock = calib.Clock()
    spans = Spans()
    jobs = lists.build(args.workload, args.seed, args.seconds)
    runner, _ = set_up(
        args.workload, jobs, clock, OUT / f"{args.workload}.traced.stderr"
    )
    try:
        plain, traced = trace_overhead(
            runner, jobs, clock, spans,
            2 * max(2, round(args.seconds * _OVERHEAD_PAIRS_PER_S[args.workload] / 2)),
        )
    finally:
        runner.close()
    import ladder
    import probes

    metrics = probes.run_all(clock, spans)
    metrics.update(ladder.run_all(clock, spans, args.workload, args.seed, args.seconds))
    metrics["bench.trace_overhead_share"] = calib.paired_overhead(
        [o.sample for o in plain], [o.sample for o in traced]
    )
    metrics["bench.client_cpu_share"] = sum(
        o.sample.client_cpu_s for o in plain + traced
    ) / sum(o.sample.wall_s for o in plain + traced)
    noise = clock.noise()
    metrics["bench.spin_ms_p50"] = noise["spin_ms_p50"]
    metrics["bench.spin_cv"] = noise["spin_cv"]
    spans.write(OUT / f"trace-{args.workload}.jsonl")
    extra = {
        "seed": args.seed,
        "seconds": args.seconds,
        "spans": len(spans.rows),
        "job_cal_ms_untraced": calib.mean_cal_ms([o.sample for o in plain]),
        "job_cal_ms_traced": calib.mean_cal_ms([o.sample for o in traced]),
        "bench.spins": noise["spins"],
    }
    failures = [f"{o.job}: {o.error}" for o in plain + traced if o.error]
    return report(
        f"{args.workload}.traced", PER_LAYER, metrics, extra,
        len(plain) + len(traced), failures,
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=lists.WORKLOADS)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument(
        "--seconds", type=float, default=float(_SPEC["run_seconds"]),
        help="sizes the job list (the issue's lists are --seconds 30)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="run every workload twice (A B B A) and compare the runs",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run all four workloads on ~3-second lists",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    adopt_orphans()
    try:
        if args.selfcheck or args.smoke:
            import selfcheck

            if args.smoke:
                return selfcheck.smoke(args.seed)
            return selfcheck.selfcheck(args.seed, args.seconds)
        if args.workload is None:
            parser.error("--workload is required")
        pin_to_first_cpu()
        return run_traced(args) if args.trace else run_untraced(args)
    finally:
        reap_children()  # no process this run started outlives it


if __name__ == "__main__":
    sys.exit(main())
