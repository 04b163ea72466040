"""The independent multi-walk driver.

``MultiWalkSolver.solve(problem, n_walkers)`` runs ``k`` independent
Adaptive Search engines and returns as soon as one solves (process executor)
or computes the equivalent outcome exactly (inline executor).  The other
four executors hand the same ordered seed list to a warm worker pool, the
vector lane engine, or a coordinator cluster (independent or cooperative);
see the package docstring for when to use which.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import queue as queue_mod
import time
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.core.config import AdaptiveSearchConfig
from repro.core.solver import AdaptiveSearch
from repro.errors import ParallelError
from repro.parallel.results import ParallelResult, WalkOutcome
from repro.parallel.seeding import walk_seeds
from repro.parallel.worker import run_walk
from repro.problems.base import Problem
from repro.telemetry.events import new_trace_id
from repro.telemetry.recorder import get_recorder
from repro.telemetry.solver import solver_callbacks
from repro.util.rng import SeedLike
from repro.util.timing import Stopwatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service -> parallel)
    from repro.coop import CoopConfig
    from repro.net.client import ClusterClient
    from repro.service.scheduler import SolverService

__all__ = ["MultiWalkSolver", "solve_parallel"]


class MultiWalkSolver:
    """Runs ``k`` independent Adaptive Search walks, first finisher wins.

    Parameters
    ----------
    config:
        base solver configuration shared by every walk (per-problem defaults
        are merged per walk exactly as in the sequential engine).
    executor:
        ``"process"`` for real multi-core execution, ``"inline"`` for exact
        sequential emulation (deterministic; used by tests and experiments),
        ``"pool"`` to borrow warm workers from a shared solver service
        (requires ``pool``).
    poll_every:
        process executor: how many iterations between cancel-event polls.
    launch_overhead:
        inline executor: constant added to the computed parallel wall time,
        modelling job-launch latency (the process executor pays the real
        cost instead).
    pool:
        a started :class:`repro.service.SolverService` whose worker pool
        executes the walks when ``executor="pool"``; the caller owns its
        lifecycle, so many solvers (and concurrent solves) may share it.
    cluster:
        for ``executor="net"`` / ``"coop"``: a connected
        :class:`repro.net.ClusterClient` (caller-owned, shareable across
        solvers), or a coordinator address (``(host, port)`` tuple or
        ``"host:port"`` string) to dial per solve.
    coop:
        for ``executor="coop"``: the :class:`~repro.coop.CoopConfig`
        island scheme (topology, migration cadence, adoption policy);
        ``None`` uses the defaults (a ring).  The ``"coop"`` executor is
        ``"net"`` with cooperation switched on: each node slice becomes an
        island and elites migrate between islands per the topology.  A
        coop config without a seed inherits the integer job seed, so a
        fixed seed replays the exact migration log.
    lanes:
        for ``executor="vector"``: the maximum walk lanes batched into one
        :class:`~repro.vector.engine.VectorWalkEngine` process.  ``None``
        (default) runs every walk lock-step in the calling process; a
        smaller value splits the walks round-robin over
        ``ceil(k / lanes)`` processes — the hybrid processes x lanes
        layout.  Walk ``i`` keeps the identical trajectory either way.
    """

    def __init__(
        self,
        config: AdaptiveSearchConfig | None = None,
        *,
        executor: str = "process",
        poll_every: int = 128,
        launch_overhead: float = 0.0,
        mp_context: str | None = None,
        pool: Optional["SolverService"] = None,
        cluster: "ClusterClient | tuple[str, int] | str | None" = None,
        lanes: int | None = None,
        coop: "CoopConfig | dict | None" = None,
    ) -> None:
        if executor not in self._SOLVERS:
            raise ParallelError(
                f"unknown executor {executor!r}; "
                f"choose from {tuple(self._SOLVERS)}"
            )
        if poll_every < 1:
            raise ParallelError(f"poll_every must be >= 1, got {poll_every}")
        if launch_overhead < 0:
            raise ParallelError(
                f"launch_overhead must be >= 0, got {launch_overhead}"
            )
        if executor == "pool" and pool is None:
            raise ParallelError(
                'executor="pool" needs a SolverService via the pool argument'
            )
        if executor in ("net", "coop") and cluster is None:
            raise ParallelError(
                f'executor="{executor}" needs a ClusterClient or '
                "coordinator address via the cluster argument"
            )
        if coop is not None and executor != "coop":
            raise ParallelError(
                f'a coop config only applies to executor="coop", '
                f"not {executor!r}"
            )
        if lanes is not None and lanes < 1:
            raise ParallelError(f"lanes must be >= 1, got {lanes}")
        self.config = config or AdaptiveSearchConfig()
        self.executor = executor
        self.poll_every = poll_every
        self.launch_overhead = launch_overhead
        self.mp_context = mp_context
        self.pool = pool
        self.cluster = cluster
        self.lanes = lanes
        self.coop = coop

    # ------------------------------------------------------------------
    def solve(
        self,
        problem: Problem,
        n_walkers: int,
        seed: SeedLike = None,
        *,
        time_limit: float | None = None,
    ) -> ParallelResult:
        """Run the multi-walk; ``time_limit`` (seconds) bounds every walk."""
        seeds = walk_seeds(n_walkers, seed)
        config = self.config
        if time_limit is not None:
            config = config.replace(time_limit=min(config.time_limit, time_limit))
        run = self._SOLVERS[self.executor]
        recorder = get_recorder()
        if not recorder.enabled:
            return run(self, problem, config, seeds, "", seed)
        trace_id = new_trace_id()
        with recorder.span(
            "multiwalk.solve",
            trace_id=trace_id,
            executor=self.executor,
            n_walkers=n_walkers,
        ):
            return run(self, problem, config, seeds, trace_id, seed)

    # ------------------------------------------------------------------
    def _solve_pool(
        self,
        problem: Problem,
        config: AdaptiveSearchConfig,
        seeds: list[np.random.SeedSequence],
        trace_id: str,
        seed: SeedLike,
    ) -> ParallelResult:
        """Run the walks as one job on the shared warm-worker service.

        The explicit seed list keeps trajectories identical to the other
        executors (walk ``i`` is the same walk under every executor) —
        also when the service runs each worker's share of the walks as
        vector lanes, which it does for problems with compiled lane kernels.
        """
        assert self.pool is not None
        handle = self.pool.submit(
            problem, len(seeds), config=config, seeds=seeds
        )
        return handle.result().to_parallel_result()

    # ------------------------------------------------------------------
    def _solve_net(
        self,
        problem: Problem,
        config: AdaptiveSearchConfig,
        seeds: list[np.random.SeedSequence],
        trace_id: str,
        seed: SeedLike,
    ) -> ParallelResult:
        """Run the walks as one job on a distributed coordinator cluster.

        The full ordered seed list ships to the coordinator, which
        partitions walk *indices* across nodes — so walk ``i`` runs the
        same trajectory as under every other executor, merely on another
        machine.  ``"coop"`` is the same dispatch with the coop scheme on
        the submit: the coordinator turns each node slice into an island
        and relays elite migrations between them.  The original job
        ``seed`` rides along so an unseeded coop config becomes
        deterministic per job.
        """
        from repro.net.client import ClusterClient

        coop = self.coop
        if self.executor == "coop" and coop is None:
            from repro.coop import CoopConfig

            coop = CoopConfig()
        client = self.cluster
        owned = not isinstance(client, ClusterClient)
        if owned:
            client = ClusterClient(client).connect()
        try:
            result = client.solve(
                problem, len(seeds), seed, config=config, seeds=seeds,
                coop=coop,
            )
            return result.to_parallel_result(executor=self.executor)
        finally:
            if owned:
                client.close()

    # ------------------------------------------------------------------
    def _solve_inline(
        self,
        problem: Problem,
        config: AdaptiveSearchConfig,
        seeds: list[np.random.SeedSequence],
        trace_id: str,
        seed: SeedLike,
    ) -> ParallelResult:
        """Run every walk to completion; parallel time = min across walks.

        Exactness argument: with zero communication, walk ``i`` executes the
        same trajectory whether or not the other walks exist, so the
        multi-walk completion time on ``k`` dedicated cores is exactly
        ``min_i T_i`` (plus launch overhead), which we compute directly.
        """
        stopwatch = Stopwatch().start()
        solver = AdaptiveSearch(config)
        walks: list[WalkOutcome] = []
        for walk_id, walk_seed in enumerate(seeds):
            callbacks = solver_callbacks(trace_id=trace_id, walk_id=walk_id)
            result = solver.solve(
                problem, seed=walk_seed, callbacks=callbacks or None
            )
            walks.append(WalkOutcome.from_result(walk_id, result))
        result = ParallelResult.from_walks(
            walks, executor="inline", elapsed_time=stopwatch.stop()
        )
        if not result.solved:
            result.wall_time = max(w.wall_time for w in walks)
        result.wall_time += self.launch_overhead
        return result

    # ------------------------------------------------------------------
    def _solve_vector(
        self,
        problem: Problem,
        config: AdaptiveSearchConfig,
        seeds: list[np.random.SeedSequence],
        trace_id: str,
        seed: SeedLike,
    ) -> ParallelResult:
        """Advance all walks lock-step as lanes of the vector engine.

        Seeds come from the same :func:`walk_seeds` derivation as every
        other executor and each lane consumes its generator at the scalar
        call sites, so walk ``i`` is bit-identical to walk ``i`` under the
        inline/process/pool executors (the property the k=1 equivalence
        suite pins down).  With ``lanes`` set below the walk count the
        walks split round-robin over ``ceil(k / lanes)`` engine processes
        — the hybrid processes x lanes layout.
        """
        if self.lanes is not None and self.lanes < len(seeds):
            from repro.parallel.seeding import partition_walks
            from repro.parallel.vector_worker import run_vector_slice

            n_procs = -(-len(seeds) // self.lanes)
            slices = [s for s in partition_walks(len(seeds), n_procs) if s]
            return self._solve_in_processes(
                [
                    (
                        run_vector_slice,
                        (
                            slice_ids,
                            problem,
                            config,
                            [seeds[walk_id] for walk_id in slice_ids],
                        ),
                        {
                            "poll_every_rounds": max(
                                1, self.poll_every // len(slice_ids)
                            )
                        },
                    )
                    for slice_ids in slices
                ],
                len(seeds),
                config.time_limit,
                "vector",
            )
        from repro.telemetry.vector import vector_telemetry
        from repro.vector.engine import VectorWalkEngine

        telemetry = vector_telemetry(trace_id=trace_id) if trace_id else None
        stopwatch = Stopwatch().start()
        engine = VectorWalkEngine(
            problem,
            k=len(seeds),
            config=config,
            seeds=seeds,
            first_wins=True,
            round_callback=(
                telemetry.round_callback if telemetry is not None else None
            ),
        )
        if telemetry is not None:
            telemetry.on_start(engine)
        outcome = engine.run()
        elapsed = stopwatch.stop()
        if telemetry is not None:
            telemetry.on_finish(outcome)
        return ParallelResult.from_walks(
            [
                WalkOutcome.from_result(lane, result)
                for lane, result in enumerate(outcome.walks)
            ],
            executor="vector",
            elapsed_time=elapsed,
        )

    # ------------------------------------------------------------------
    def _solve_process(
        self,
        problem: Problem,
        config: AdaptiveSearchConfig,
        seeds: list[np.random.SeedSequence],
        trace_id: str,
        seed: SeedLike,
    ) -> ParallelResult:
        """One OS process per walk; the first finisher cancels the rest."""
        # what ``solve`` runs a walk on is loaded (on a cold cache: built)
        # once, here; a forked walker inherits the mapping
        import repro.vector  # noqa: F401

        milestone_every = get_recorder().milestone_every if trace_id else 0
        return self._solve_in_processes(
            [
                (
                    run_walk,
                    (walk_id, problem, config, walk_seed),
                    {
                        "poll_every": self.poll_every,
                        "trace_id": trace_id,
                        "milestone_every": milestone_every,
                    },
                )
                for walk_id, walk_seed in enumerate(seeds)
            ],
            len(seeds),
            config.time_limit,
            "process",
        )

    def _solve_in_processes(
        self,
        targets: list[tuple[Any, tuple, dict[str, Any]]],
        n_walks: int,
        time_limit: float,
        executor: str,
    ) -> ParallelResult:
        """Spawn one daemon process per ``(target, args, kwargs)`` and
        gather ``n_walks`` walk reports — the only process-gather loop.

        Every target additionally receives ``cancel_event`` and
        ``result_queue`` keyword arguments and must enqueue exactly one
        ``(walk_id, payload)`` per walk it owns: a
        :meth:`WalkOutcome.to_payload` dict (plus optional ``telemetry``
        records, ingested here) or ``{"error": traceback}``.
        """
        ctx = mp.get_context(self.mp_context)
        cancel_event = ctx.Event()
        result_queue: mp.Queue = ctx.Queue()
        recorder = get_recorder()
        stopwatch = Stopwatch().start()
        processes = [
            ctx.Process(
                target=target,
                args=args,
                kwargs={
                    **kwargs,
                    "cancel_event": cancel_event,
                    "result_queue": result_queue,
                },
                daemon=True,
            )
            for target, args, kwargs in targets
        ]
        for proc in processes:
            proc.start()

        # queue-drain deadline: every walk ends by solving, budget
        # exhaustion, or cancellation; leave generous slack beyond the
        # configured time limit for scheduling noise on oversubscribed hosts
        if math.isinf(time_limit):
            deadline = None
        else:
            deadline = (
                time.monotonic() + time_limit * (len(processes) + 1) + 60.0
            )

        payloads: dict[int, dict] = {}
        first_solve_time: float | None = None
        try:
            while len(payloads) < n_walks:
                timeout = None
                if deadline is not None:
                    timeout = max(0.1, deadline - time.monotonic())
                try:
                    walk_id, payload = result_queue.get(timeout=timeout)
                except queue_mod.Empty:
                    raise ParallelError(
                        f"multi-walk timed out: {n_walks - len(payloads)} of "
                        f"{n_walks} walks never reported"
                    )
                if "error" in payload:
                    raise ParallelError(
                        f"walk {walk_id} crashed:\n{payload['error']}"
                    )
                records = payload.pop("telemetry", None)
                if records:
                    recorder.ingest(records)
                payloads[walk_id] = payload
                if payload["solved"] and first_solve_time is None:
                    first_solve_time = stopwatch.elapsed
                    # broadcast completion as soon as the winner reports:
                    # the workers set the event themselves, but if a winner
                    # raced past an unset event (solved before any poll) the
                    # losers would otherwise run to their full budget
                    cancel_event.set()
        finally:
            cancel_event.set()
            for proc in processes:
                proc.join(timeout=30.0)
            for proc in processes:
                if proc.is_alive():  # pragma: no cover - defensive cleanup
                    proc.terminate()
                    proc.join(timeout=5.0)

        return ParallelResult.from_walks(
            [
                WalkOutcome.from_payload(walk_id, payload)
                for walk_id, payload in sorted(payloads.items())
            ],
            executor=executor,
            elapsed_time=stopwatch.stop(),
            wall_time=first_solve_time,
        )

    #: ``executor=`` string -> the method that runs it
    _SOLVERS = {
        "inline": _solve_inline,
        "process": _solve_process,
        "pool": _solve_pool,
        "net": _solve_net,
        "vector": _solve_vector,
        "coop": _solve_net,
    }


def solve_parallel(
    problem: Problem,
    n_walkers: int,
    seed: SeedLike = None,
    *,
    config: AdaptiveSearchConfig | None = None,
    executor: str = "process",
    time_limit: float | None = None,
    poll_every: int = 128,
    launch_overhead: float = 0.0,
    mp_context: str | None = None,
    pool: Optional["SolverService"] = None,
    cluster: "ClusterClient | tuple[str, int] | str | None" = None,
    lanes: int | None = None,
    coop: "CoopConfig | dict | None" = None,
) -> ParallelResult:
    """One-shot convenience wrapper around :class:`MultiWalkSolver`.

    All executor tunables (``poll_every``, ``launch_overhead``,
    ``mp_context``, ``pool``, ``cluster``, ``coop``) are forwarded; see
    :class:`MultiWalkSolver` for their meaning.
    """
    solver = MultiWalkSolver(
        config,
        executor=executor,
        poll_every=poll_every,
        launch_overhead=launch_overhead,
        mp_context=mp_context,
        pool=pool,
        cluster=cluster,
        lanes=lanes,
        coop=coop,
    )
    return solver.solve(problem, n_walkers, seed, time_limit=time_limit)
