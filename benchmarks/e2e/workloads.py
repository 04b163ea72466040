"""Set-up, measured phase, verdict and end-to-end metrics of a workload.

Importing this module imports ``repro``; ``run.py`` does so inside the
timed set-up, because a tenant pays for the imports too.

A *runner* knows how to prepare one workload and how to run one job of
its list: :class:`KernelRunner` calls the public in-process entry points
(``AdaptiveSearch.solve`` / ``MultiWalkSolver(executor="vector").solve``),
:class:`ServedRunner` talks HTTP to the server child.  :func:`measure`
runs a list through a runner under the calibrated clock and
:func:`end_to_end` turns the outcomes into the seven gated numbers.
"""

from __future__ import annotations

import random
import resource
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Optional

import calib
from lists import Job
from spans import Spans, span
from stack import Server, Tenant
from tree import use_checkout_source

use_checkout_source()

import numpy as np  # noqa: E402

from repro import AdaptiveSearch, AdaptiveSearchConfig, make_problem  # noqa: E402
from repro.parallel import MultiWalkSolver  # noqa: E402

__all__ = [
    "Outcome",
    "KernelRunner",
    "ServedRunner",
    "make_runner",
    "measure",
    "end_to_end",
]

#: budget-capped jobs re-run under the inline executor after the phase
_REFERENCE_SAMPLE = 5

#: above every job seed a list can hold
_WARM_SEED = 2**31

#: a list sized for ``seconds`` that is not done after this many times
#: ``seconds`` fails the run (a hung job must not hang the driver)
_TIMEOUT_FACTOR = 4.0


@dataclass
class Outcome:
    """One request of the list, as measured."""

    job: Job
    iterations: int = 0  # walk (lane) iterations this request executed
    error: str = ""  # empty when the answer was correct
    signature: Any = None  # what an exact repeat has to reproduce
    sample: Optional[calib.Sample] = None  # filled in by measure()


def _problems(jobs: list[Job]) -> dict[tuple[str, int], Any]:
    return {
        key: make_problem(key[0], n=key[1])
        for key in sorted({(job.problem, job.n) for job in jobs})
    }


def _warm_ups(jobs: list[Job]) -> list[Job]:
    """One job per distinct instance, with a seed no list uses."""
    seen: dict[tuple[str, int], Job] = {}
    for job in jobs:
        seen.setdefault(
            (job.problem, job.n), replace(job, seed=_WARM_SEED, repeat_of=None)
        )
    return list(seen.values())


class KernelRunner:
    """In-process time-to-solution jobs through the public solvers."""

    def __init__(self, workload: str, jobs: list[Job]) -> None:
        self.workload = workload
        self.jobs = jobs
        self.scalar = workload == "kernel_scalar"
        self.problems: dict[tuple[str, int], Any] = {}
        self.solver: Any = None
        self.server_stderr_lines = 0

    def setup(self) -> None:
        self.problems = _problems(self.jobs)
        self.solver = (
            AdaptiveSearch() if self.scalar else MultiWalkSolver(executor="vector")
        )
        for job in _warm_ups(self.jobs):
            error = self.run(job).error
            if error:
                raise RuntimeError(f"warm-up job {job} failed: {error}")

    def run(
        self, job: Job, spans: Optional[Spans] = None, ident: str = ""
    ) -> Outcome:
        problem = self.problems[job.problem, job.n]
        if self.scalar:
            with span(spans, "core.AdaptiveSearch.solve", ident):
                result = self.solver.solve(problem, seed=job.seed)
            iterations = result.stats.iterations
        else:
            with span(spans, "parallel.MultiWalkSolver.solve[vector]", ident):
                result = self.solver.solve(problem, job.n_walkers, job.seed)
            iterations = result.total_iterations
        config = result.config
        if not result.solved:
            error = "unsolved"
        elif not problem.is_solution(config):
            error = "returned configuration is not a solution"
        else:
            error = ""
        signature = (iterations, None if config is None else config.tolist())
        return Outcome(job, iterations, error, signature)

    def verify(self, outcomes: list[Outcome], seed: int) -> list[str]:
        return []  # every kernel answer is checked in full by run()

    #: nothing runs outside this process (a ``calib.RemoteCpu`` otherwise)
    remote = None

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


class ServedRunner:
    """Jobs through the HTTP front door of the server child."""

    def __init__(self, workload: str, jobs: list[Job], log: Path) -> None:
        self.workload = workload
        self.jobs = jobs
        self.problems: dict[tuple[str, int], Any] = {}
        self.server = Server(log)
        self.tenant: Optional[Tenant] = None

    @property
    def server_stderr_lines(self) -> int:
        return self.server.stderr_lines

    def setup(self) -> None:
        self.problems = _problems(self.jobs)
        self.server.start()
        self.tenant = Tenant(self.server.address)
        # pool warm, problems shipped, miss and hit path both taken once
        warm = _warm_ups(self.jobs)
        for job in warm + [replace(warm[0], repeat_of=0)]:
            error = self.run(job).error
            if error:
                raise RuntimeError(f"warm-up job {job} failed: {error}")

    def run(
        self, job: Job, spans: Optional[Spans] = None, ident: str = ""
    ) -> Outcome:
        assert self.tenant is not None
        with span(spans, "gateway.job", ident) as parent:
            answer = self.tenant.run(job.body(), spans, ident, parent)
        outcome = Outcome(job)
        expect_hit = job.repeat_of is not None
        if answer.kind == "error":
            outcome.error = f"HTTP {answer.status}: {answer.snapshot}"
        elif expect_hit and answer.kind != "hit":
            outcome.error = "repeat was not answered from the cache"
        elif not expect_hit and answer.kind != "miss":
            outcome.error = "first-time job was answered from the cache"
        else:
            outcome.error = self._check(job, answer.snapshot)
            outcome.signature = answer.snapshot.get("result")
        if answer.kind == "miss":
            assert job.max_iterations is not None
            outcome.iterations = job.n_walkers * job.max_iterations
        return outcome

    def _check(self, job: Job, snapshot: dict) -> str:
        status = snapshot["status"]
        if status not in ("solved", "unsolved"):
            return f"job ended {status!r}: {snapshot.get('error')}"
        if status == "solved":
            solution = np.asarray(snapshot["result"]["solution"])
            if not self.problems[job.problem, job.n].is_solution(solution):
                return "returned configuration is not a solution"
        return ""

    def verify(self, outcomes: list[Outcome], seed: int) -> list[str]:
        """Re-run a sample of the computed jobs under the inline executor:
        the served best cost must be the reference's."""
        computed = [o for o in outcomes if o.job.repeat_of is None and not o.error]
        sample = random.Random(seed).sample(
            computed, min(_REFERENCE_SAMPLE, len(computed))
        )
        failures = []
        for outcome in sample:
            job = outcome.job
            reference = MultiWalkSolver(
                AdaptiveSearchConfig(max_iterations=job.max_iterations),
                executor="inline",
            ).solve(self.problems[job.problem, job.n], job.n_walkers, job.seed)
            served = outcome.signature
            if served["solved"] != reference.solved or (
                not reference.solved
                and served.get("best_cost") != min(w.cost for w in reference.walks)
            ):
                failures.append(
                    f"{job}: served solved={served['solved']} "
                    f"best_cost={served.get('best_cost')}, inline reference "
                    f"solved={reference.solved} "
                    f"best_cost={min(w.cost for w in reference.walks)}"
                )
        return failures

    def remote(self) -> tuple[float, list[float]]:
        return self.server.cpu()

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def close(self) -> None:
        if self.tenant is not None:
            self.tenant.close()
            self.tenant = None
        self.server.stop()


def make_runner(
    workload: str, jobs: list[Job], log: Path
) -> "KernelRunner | ServedRunner":
    """``log`` receives the server child's stdout and stderr."""
    if workload.startswith("served_"):
        return ServedRunner(workload, jobs, log)
    return KernelRunner(workload, jobs)


def measure(
    runner: "KernelRunner | ServedRunner",
    jobs: list[Job],
    clock: calib.Clock,
    seconds: float,
    spans: Optional[Spans] = None,
) -> list[Outcome]:
    """Run the whole list once, every job between two spins."""
    deadline = time.perf_counter() + _TIMEOUT_FACTOR * seconds
    outcomes: list[Outcome] = []
    for index, job in enumerate(jobs):
        if time.perf_counter() > deadline:
            raise RuntimeError(
                f"{runner.workload}: list not finished after "
                f"{_TIMEOUT_FACTOR:g} x {seconds:g} s ({index}/{len(jobs)} jobs)"
            )
        outcome, sample = clock.measure(
            runner.run, job, spans, str(index), remote=runner.remote
        )
        outcome.sample = sample
        if (
            job.repeat_of is not None
            and not outcome.error
            and outcome.signature != outcomes[job.repeat_of].signature
        ):
            outcome.error = "repeat differs from the first answer"
        outcomes.append(outcome)
    return outcomes


def end_to_end(
    outcomes: list[Outcome], setup_s: float, peak_rss_mb: float
) -> dict[str, float]:
    """The seven gated numbers of one run (definitions: README)."""
    samples = [o.sample for o in outcomes]
    firsts = [o.sample for o in outcomes if o.job.repeat_of is None]
    repeats = [o.sample for o in outcomes if o.job.repeat_of is not None]
    worked = [o for o in outcomes if o.iterations]
    return {
        "setup_s": setup_s,
        "job_cal_ms": calib.mean_cal_ms(samples),
        "iters_per_cal_s": calib.rate_per_cal_s(
            sum(o.iterations for o in worked), [o.sample for o in worked]
        ),
        "miss_cal_ms": calib.mean_cal_ms(firsts),
        "hit_cal_ms": calib.mean_cal_ms(repeats),
        "cpu_cal_ms_per_job": 1e3 * sum(s.cpu_cal_s for s in samples) / len(samples),
        "peak_rss_mb": peak_rss_mb,
    }
