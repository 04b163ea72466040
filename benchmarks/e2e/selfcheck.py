"""``run.py --selfcheck`` and ``run.py --smoke``: the benchmark checking
itself, by running ``run.py`` in child processes.

The self-check runs every workload twice, untraced and traced, in the
order A B C D D C B A, so slow drift of the machine lands on both runs of
a workload alike.  It passes when no gated metric differs between the
two runs of a workload by more than the metric's own bound and every
counter declared exact is identical.  ``setup_s`` is printed with the
rest but cannot fail the check: forking, importing and page-faulting do
not slow down in step with any reference loop, single set-ups differ by
up to 30 % on this machine, and the driver does not hold the spread of
``setup_s`` to its bound either (only its median over many runs).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any

import lists
from tree import REPO

_RUN = str(Path(__file__).resolve().parent / "run.py")

#: per-layer numbers that come out of fixed seeded work and therefore have
#: to repeat exactly; a changed value means a changed trajectory or wire
#: format, never noise
EXACT = (
    "core.iterations_total",
    "core.restarts_total",
    "core.resets_total",
    "vector.lane_iterations_total",
    "vector.rounds_total",
    "net.assign_bytes.first",
    "net.assign_bytes.repeat",
    "net.assigns_per_job",
    "net.redispatches_total",
    "net.dropped_frames_total",
    "gateway.hit_share",
    "gateway.shed_total",
    "gateway.rate_limited_total",
    "service.retries_total",
    "service.worker_respawns_total",
)

#: exact counts of the untraced run, from its ``extra``
EXACT_EXTRA = ("requests", "iterations_total")


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    """One ``run.py`` run; its result line plus ``extra``, and the exit code."""
    done = subprocess.run(
        [
            sys.executable, _RUN,
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    lines = done.stdout.splitlines()
    if not lines:
        raise RuntimeError(f"{workload} --trace {trace} printed nothing")
    result = json.loads(lines[-1])
    extras = [line for line in lines if line.startswith("extra ")]
    result["extra"] = json.loads(extras[-1][len("extra "):]) if extras else {}
    result["exit"] = done.returncode
    return result


def smoke(seed: int) -> int:
    """All four workloads on ~3-second lists; green iff nothing failed."""
    bad = 0
    for workload in lists.WORKLOADS:
        result = _child(workload, seed, 3.0, trace=0)
        ok = result["exit"] == 0 and result["correct"] and result["failed"] == 0
        bad += not ok
        print(
            f"{'ok  ' if ok else 'FAIL'} {workload:18s} "
            f"attempted {result['attempted']:4d} failed {result['failed']}"
        )
    return 1 if bad else 0


def selfcheck(seed: int, seconds: float) -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    order = list(lists.WORKLOADS) + list(reversed(lists.WORKLOADS))
    runs: dict[tuple[str, int], list[dict[str, Any]]] = {}
    for workload in order:
        for trace in (0, 1):
            runs.setdefault((workload, trace), []).append(
                _child(workload, seed, seconds, trace)
            )
    bad = 0
    print(f"selfcheck --seed {seed} --seconds {seconds:g}; order {' '.join(order)}")
    for workload in lists.WORKLOADS:
        first, second = runs[workload, 0]
        print(f"\n{workload}: failed {first['failed']} + {second['failed']}")
        bad += first["failed"] + second["failed"] + first["exit"] + second["exit"]
        print(f"  {'gated metric':22s} {'run 1':>12s} {'run 2':>12s} {'diff':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            diff = abs(a - b) / min(a, b)
            if diff <= bound:
                verdict = ""
            elif name == "setup_s":
                verdict = "  outside its bound (reported, not failed on)"
            else:
                verdict = "  OUTSIDE ITS BOUND"
                bad += 1
            print(f"  {name:22s} {a:12.5g} {b:12.5g} {diff:8.2%} {bound:6.0%}{verdict}")
        for name in EXACT_EXTRA:
            a, b = first["extra"][name], second["extra"][name]
            verdict = "identical" if a == b else "DIFFERS"
            bad += a != b
            print(f"  exact {name:38s} {a!r:>12} {b!r:>12}  {verdict}")
        first, second = runs[workload, 1]
        bad += first["failed"] + second["failed"] + first["exit"] + second["exit"]
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            verdict = "identical" if a == b else "DIFFERS"
            bad += a != b
            print(f"  exact {name:38s} {a!r:>12} {b!r:>12}  {verdict}")
        share = [r["metrics"]["bench.trace_overhead_share"]["value"] for r in (first, second)]
        print(f"  bench.trace_overhead_share {share[0]:+.4f} {share[1]:+.4f} (not gated)")
    print(f"\nselfcheck {'GREEN' if not bad else 'RED'}")
    return 1 if bad else 0
