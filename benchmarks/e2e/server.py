"""The served stack in a process of its own.

The load generator calibrates its clock with a pure-Python spin; a
server on threads inside the generator's process would share the spin's
GIL and the calibration would measure nothing (README, rule 3).  So the
whole serving side — one ``LocalCluster`` node with two pool workers and
a ``LocalGateway`` in front of it — is spawned from this file.

Protocol with the parent: one JSON line on stdout once everything
listens (gateway and coordinator addresses, own pid, pool-worker pids,
boot timings), then the process serves until its stdin reaches EOF and tears
down in order.  Everything the stack writes to stderr is left on stderr
for the parent to capture and count.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

from stack import API_KEY
from tree import use_checkout_source


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--worker-cpus",
        default=None,
        help="comma-separated CPUs the pool workers may use; this process "
        "itself stays on the CPU it was started on (stack.pin_to_first_cpu)",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="record repro.telemetry JSONL here (default: telemetry off)",
    )
    args = parser.parse_args(argv)

    use_checkout_source()
    from repro.gateway import Tenant, TenantRegistry, WalkerPlanner
    from repro.gateway.testing import LocalGateway
    from repro.net import LocalCluster
    from repro.telemetry.recorder import Recorder
    from repro.telemetry.sinks import JsonlSink

    # quotas far above what one closed-loop tenant can offer: the tenant
    # limits must never be the layer being measured
    tenants = TenantRegistry(
        [
            Tenant(
                "bench",
                API_KEY,
                priority_class="standard",
                rate=1e6,
                burst=1e6,
                max_inflight=10_000,
            )
        ]
    )
    # The default WalkerPlanner refits a runtime distribution on the
    # gateway's event loop after every solved job once it holds 8 samples:
    # 4 ms when an exponential family wins the fit, 120-200 ms when the
    # lognormal does (numeric integration) — which one wins depends on the
    # noise in the first few wall times, so trivial jobs cost 15 ms in one
    # run and 125 ms in the next.  No list asks the planner for a walker
    # count (every job names its own), so the planner is frozen here and
    # its cost is reported by the probe gateway.planner_record_cal_ms.
    gateway_kwargs = {"planner": WalkerPlanner(min_samples=2**31)}
    if args.trace_dir is not None:
        gateway_kwargs["recorder"] = Recorder(
            sinks=[JsonlSink(Path(args.trace_dir) / "gateway.jsonl")],
            proc="gateway",
        )

    # workers inherit the affinity in force when the pool forks them, so
    # the wide set is in force while the stack boots ...
    home = os.sched_getaffinity(0)
    if args.worker_cpus is not None:
        os.sched_setaffinity(0, {int(cpu) for cpu in args.worker_cpus.split(",")})
    t0 = time.perf_counter()
    cluster = LocalCluster(
        n_nodes=1, workers_per_node=2, trace_dir=args.trace_dir
    ).start()
    try:
        t1 = time.perf_counter()
        gateway = LocalGateway(cluster.address, tenants, **gateway_kwargs).start()
        try:
            t2 = time.perf_counter()
            # ... and every thread of this process then goes back home;
            # threads born later inherit it from these
            for task in os.listdir("/proc/self/task"):
                os.sched_setaffinity(int(task), home)
            host, port = gateway.address
            hello = {
                "host": host,
                "port": port,
                "cluster": list(cluster.address),
                "pid": multiprocessing.current_process().pid,
                "worker_pids": [
                    child.pid for child in multiprocessing.active_children()
                ],
                "cluster_boot_s": t1 - t0,
                "gateway_boot_s": t2 - t1,
            }
            print(json.dumps(hello), flush=True)
            sys.stdin.read()  # parent closes our stdin to ask for shutdown
        finally:
            gateway.stop()
    finally:
        cluster.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
