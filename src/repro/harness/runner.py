"""Sequential-sample collection.

``collect_samples`` runs one benchmark many times with independent seeds —
the measurement step feeding the platform simulation — with transparent
on-disk caching.  Passing a started :class:`repro.service.SolverService`
runs the samples concurrently on its warm worker pool: each run becomes a
one-walk job carrying the exact per-run seed, so iteration counts (the Las
Vegas cost measure used by the paper experiments) are bit-identical to the
sequential path and the sample cache stays executor-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

import repro
from repro.core.config import AdaptiveSearchConfig
from repro.core.solver import AdaptiveSearch
from repro.cluster.trace import RunSample, wall_times
from repro.errors import ExperimentError
from repro.harness.cache import SampleCache
from repro.problems.registry import make_problem
from repro.util.rng import SeedLike, spawn_seeds

__all__ = ["BenchmarkSpec", "collect_samples", "scaled_times"]


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark instance inside an experiment.

    ``target_mean_time`` rescales the measured cost metric so its mean
    matches the paper's absolute regime for that benchmark (a pure change
    of time unit; see EXPERIMENTS.md "Time calibration").  ``None`` keeps
    the raw metric.

    ``metric`` selects what "sequential time" means: ``"wall_time"``
    (seconds on this host) or ``"iterations"`` (engine iterations — the
    Las Vegas cost measure).  Iterations are preferred for the paper
    experiments: the C engine spends constant time per iteration with no
    per-run setup, whereas Python wall times of millisecond-scale runs are
    dominated by fixed setup cost, which would fake a runtime floor and
    destroy the min-of-k tail.
    """

    family: str
    params: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""
    target_mean_time: float | None = None
    metric: str = "wall_time"
    #: overrides the experiment's sample count for this benchmark (cheap
    #: benchmarks collect more samples for better tail resolution)
    n_samples: int | None = None

    def __post_init__(self) -> None:
        if self.target_mean_time is not None and self.target_mean_time <= 0:
            raise ExperimentError(
                f"target_mean_time must be > 0, got {self.target_mean_time}"
            )
        if self.n_samples is not None and self.n_samples < 2:
            raise ExperimentError(
                f"n_samples must be >= 2, got {self.n_samples}"
            )
        if self.metric not in ("wall_time", "iterations"):
            raise ExperimentError(
                f"metric must be 'wall_time' or 'iterations', got {self.metric!r}"
            )
        if not self.label:
            object.__setattr__(self, "label", self._default_label())
        # freeze params into a plain dict for hashing stability
        object.__setattr__(self, "params", dict(self.params))

    def _default_label(self) -> str:
        if not self.params:
            return self.family
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"

    def make(self):
        return make_problem(self.family, **self.params)


def collect_samples(
    spec: BenchmarkSpec,
    n_runs: int,
    seed: SeedLike = 0,
    *,
    solver_config: AdaptiveSearchConfig | None = None,
    cache: SampleCache | None = None,
    max_iterations: float = 2_000_000,
    time_limit: float = 120.0,
    service: Any = None,
    cluster: Any = None,
    vector_lanes: int | None = None,
) -> list[RunSample]:
    """``n_runs`` independent sequential solves of ``spec``.

    Every run gets its own spawned seed; per-run budgets guard against the
    rare pathological walk (unsolved runs are kept in the sample list but
    excluded from time statistics by default).  ``service`` (a started
    :class:`repro.service.SolverService`) collects the runs concurrently on
    its warm pool instead of one after another in this process; ``cluster``
    (a :class:`repro.net.ClusterClient` or a coordinator address) spreads
    them across a whole multi-node cluster instead; ``vector_lanes`` runs
    the samples as lanes of the lock-step
    :class:`~repro.vector.engine.VectorWalkEngine` (``vector_lanes`` at a
    time, every lane to its own termination).  All three keep per-run seeds
    bit-identical to the sequential path — iteration counts (the Las Vegas
    cost measure) are exactly equal — so the sample cache stays
    executor-agnostic.  Vector-collected wall times are per-lane shares of
    a shared clock; prefer ``metric="iterations"`` with it, as the paper
    experiments do.
    """
    if n_runs <= 0:
        raise ExperimentError(f"n_runs must be >= 1, got {n_runs}")
    if (service is not None) + (cluster is not None) + (
        vector_lanes is not None
    ) > 1:
        raise ExperimentError(
            "pass only one of service=, cluster=, or vector_lanes="
        )
    if vector_lanes is not None and vector_lanes < 1:
        raise ExperimentError(
            f"vector_lanes must be >= 1, got {vector_lanes}"
        )
    base_config = solver_config or AdaptiveSearchConfig()
    config = base_config.replace(
        max_iterations=min(base_config.max_iterations, max_iterations),
        time_limit=min(base_config.time_limit, time_limit),
    )

    cache_spec = {
        "kind": "sequential_samples",
        "version": repro.__version__,
        "family": spec.family,
        "params": spec.params,
        "n_runs": n_runs,
        "seed": repr(seed),
        "config": config,
    }
    if cache is not None:
        cached = cache.load(cache_spec)
        if cached is not None and len(cached) == n_runs:
            return cached

    problem = spec.make()
    from repro.core.value_solver import ValueAdaptiveSearch
    from repro.problems.value_base import ValueProblem

    run_seeds = spawn_seeds(n_runs, seed)
    if service is not None or cluster is not None or vector_lanes is not None:
        if isinstance(problem, ValueProblem):
            raise ExperimentError(
                "service/cluster/vector-backed sampling supports "
                "permutation problems only; collect value-mode samples "
                "sequentially"
            )
        if vector_lanes is not None:
            samples = _collect_via_vector(
                problem, config, run_seeds, vector_lanes
            )
        elif cluster is not None:
            samples = _collect_via_cluster(cluster, problem, config, run_seeds)
        else:
            samples = _collect_via_service(service, problem, config, run_seeds)
    else:
        if isinstance(problem, ValueProblem):
            solver: Any = ValueAdaptiveSearch(config)
        else:
            solver = AdaptiveSearch(config)
        samples = []
        for walk_seed in run_seeds:
            result = solver.solve(problem, seed=walk_seed)
            samples.append(
                RunSample(
                    wall_time=result.stats.wall_time,
                    iterations=result.stats.iterations,
                    solved=result.solved,
                    seed=str(walk_seed.entropy),
                )
            )
    if cache is not None:
        cache.store(cache_spec, samples)
    return samples


def _collect_via_vector(
    problem: Any,
    config: AdaptiveSearchConfig,
    run_seeds: Sequence[np.random.SeedSequence],
    lanes: int,
) -> list[RunSample]:
    """Batches of ``lanes`` runs advanced lock-step by the vector engine.

    ``first_wins=False``: every lane runs to its own termination, exactly
    like independent sequential runs.  Each lane consumes its run's seed
    sequence at the scalar call sites, so iteration counts are
    bit-identical to the sequential path (the equivalence property the
    vector test suite pins down); only wall times differ, as with any
    concurrent executor.
    """
    from repro.vector.engine import VectorWalkEngine

    samples: list[RunSample] = []
    for start in range(0, len(run_seeds), lanes):
        batch = list(run_seeds[start : start + lanes])
        engine = VectorWalkEngine(
            problem,
            k=len(batch),
            config=config,
            seeds=batch,
            first_wins=False,
        )
        outcome = engine.run()
        for walk_seed, result in zip(batch, outcome.walks):
            samples.append(
                RunSample(
                    wall_time=result.stats.wall_time,
                    iterations=result.stats.iterations,
                    solved=result.solved,
                    seed=str(walk_seed.entropy),
                )
            )
    return samples


def _collect_via_service(
    service: Any,
    problem: Any,
    config: AdaptiveSearchConfig,
    run_seeds: Sequence[np.random.SeedSequence],
) -> list[RunSample]:
    """One single-walk job per run, all in flight at once on the warm pool.

    Each job carries its run's exact seed sequence, so every walk is
    trajectory-identical to the sequential path; only wall times differ
    (by host scheduling noise, as with any measurement).
    """
    handles = [
        service.submit(problem, 1, config=config, seeds=[walk_seed])
        for walk_seed in run_seeds
    ]
    samples: list[RunSample] = []
    for walk_seed, handle in zip(run_seeds, handles):
        job = handle.result()
        if not job.walks:
            raise ExperimentError(
                f"service sample run failed ({job.status.value}): {job.error}"
            )
        walk = job.walks[0]
        samples.append(
            RunSample(
                wall_time=walk.wall_time,
                iterations=walk.iterations,
                solved=walk.solved,
                seed=str(walk_seed.entropy),
            )
        )
    return samples


def _collect_via_cluster(
    cluster: Any,
    problem: Any,
    config: AdaptiveSearchConfig,
    run_seeds: Sequence[np.random.SeedSequence],
) -> list[RunSample]:
    """One single-walk job per run, fanned out across the whole cluster.

    Accepts a connected :class:`repro.net.ClusterClient` (caller-owned) or
    a coordinator address (a client is opened for the duration).  Seeds are
    explicit per job, so iteration counts stay bit-identical to the
    sequential path no matter which node executed which run.
    """
    from repro.net.client import ClusterClient

    owned = not isinstance(cluster, ClusterClient)
    client = ClusterClient(cluster).connect() if owned else cluster
    try:
        handles = [
            client.submit(problem, 1, config=config, seeds=[walk_seed])
            for walk_seed in run_seeds
        ]
        samples: list[RunSample] = []
        for walk_seed, handle in zip(run_seeds, handles):
            job = handle.result()
            if not job.walks:
                raise ExperimentError(
                    f"cluster sample run failed ({job.status.value}): "
                    f"{job.error}"
                )
            walk = job.walks[0]
            samples.append(
                RunSample(
                    wall_time=walk.wall_time,
                    iterations=walk.iterations,
                    solved=walk.solved,
                    seed=str(walk_seed.entropy),
                )
            )
        return samples
    finally:
        if owned:
            client.close()


def scaled_times(
    samples: Sequence[RunSample],
    target_mean_time: float | None = None,
    *,
    metric: str = "wall_time",
    min_solved: int = 2,
) -> np.ndarray:
    """Sequential costs of solved runs, optionally rescaled to a target mean.

    ``metric`` picks wall seconds or engine iterations (see
    :class:`BenchmarkSpec`).  Rescaling multiplies every value by a single
    constant (mean maps to ``target_mean_time``), i.e. a unit change that
    leaves the distribution shape — and hence speedups — untouched, while
    making launch-overhead effects comparable to the paper's platforms.
    Iteration counts are clamped to a floor of half an iteration so a
    lucky zero-iteration start does not produce a zero "runtime".
    """
    from repro.cluster.trace import iteration_counts

    if metric == "wall_time":
        times = wall_times(samples, solved_only=True)
    elif metric == "iterations":
        times = np.maximum(iteration_counts(samples, solved_only=True), 0.5)
    else:
        raise ExperimentError(
            f"metric must be 'wall_time' or 'iterations', got {metric!r}"
        )
    if len(times) < min_solved:
        raise ExperimentError(
            f"only {len(times)} solved runs out of {len(samples)}; "
            "not enough to characterize the runtime distribution "
            "(raise per-run budgets or shrink the instance)"
        )
    if target_mean_time is None:
        return times
    mean = times.mean()
    if mean <= 0:
        raise ExperimentError("mean solved cost is zero; cannot rescale")
    return times * (target_mean_time / mean)
