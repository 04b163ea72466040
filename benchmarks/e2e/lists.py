"""The four fixed job lists.

A workload is a list of seeded jobs, a pure function of ``(workload,
seed, seconds)``; a run executes the whole list once.  ``seconds`` only
sizes the list (the counts below are the 30-second lists of the issue,
scaled by ``seconds / 30``) — nothing is time-boxed.

Time-to-solution lists (``kernel_scalar``, ``multiwalk_vector``) run a
*fixed population* of job seeds per problem, and ``--seed`` decides only
the order in which the population is run.  The reason is the paper's own subject: the runtime of one
local-search walk is roughly exponentially distributed (CV 0.6–1.1
measured on these instances), so the mean of a freshly drawn sample of
~100 jobs moves 8–16 % from one draw to the next — no clock calibration
can remove that, and a regression bound of 5–10 % would be noise.  With
the population fixed the iteration totals repeat *exactly* for every
``--seed``, so a changed total means a changed trajectory.

Budget-capped lists (``served_compute``, ``served_dispatch``) do fixed
work per job whatever the seed, so their job seeds are drawn from
``--seed``.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, replace
from typing import Optional

__all__ = ["Job", "WORKLOADS", "build", "encode", "KERNEL_WALKERS"]

WORKLOADS = (
    "kernel_scalar",
    "multiwalk_vector",
    "served_compute",
    "served_dispatch",
)

#: lanes of one ``multiwalk_vector`` job (the paper's min-of-k at k=16)
KERNEL_WALKERS = 16

#: (problem, n, first-time jobs in the 30-second list)
_SCALAR = (
    ("costas", 12, 30),
    ("all_interval", 14, 30),
    ("magic_square", 8, 30),
    ("magic_square_model", 5, 30),
)
_VECTOR = (
    ("costas", 14, 44),
    ("all_interval", 18, 44),
    ("magic_square", 12, 44),
)
_COMPUTE = (("magic_square", 20), ("costas", 16))
_COMPUTE_JOBS = 84
_COMPUTE_WALKERS = 16
_COMPUTE_BUDGET = 150
_DISPATCH = ("costas", 6)
_DISPATCH_MISSES = 1400
_DISPATCH_WALKERS = 2
_DISPATCH_BUDGET = 64

@dataclass(frozen=True)
class Job:
    """One request of a list.

    ``repeat_of`` is the list index of the identical job sent earlier
    (``None`` for a first-time job).  ``max_iterations`` is ``None`` for a
    time-to-solution job.
    """

    problem: str
    n: int
    seed: int
    n_walkers: int
    max_iterations: Optional[int] = None
    repeat_of: Optional[int] = None

    def body(self) -> dict:
        """The ``POST /v1/jobs`` body of this job."""
        body: dict = {
            "problem": self.problem,
            "params": {"n": self.n},
            "seed": self.seed,
            "n_walkers": self.n_walkers,
        }
        if self.max_iterations is not None:
            body["config"] = {"max_iterations": self.max_iterations}
        return body


def _repeated(firsts: list[Job]) -> list[Job]:
    """The half of ``firsts`` that is sent again, so that "a repeat of a
    finished job" has a latency on every workload (sent once more, a list
    is two thirds first-time jobs and one third exact repeats).  Pairs of
    neighbours are taken so that lists alternating between two problems
    repeat both."""
    return [job for i, job in enumerate(firsts) if i % 4 < 2]


def _scaled(count: int, seconds: float) -> int:
    return max(2, round(count * seconds / 30.0))


def _with_repeats(
    firsts: list[Job], rng: random.Random, copies: int = 1
) -> list[Job]:
    """Shuffle ``firsts`` together with ``copies`` more of half of them; of
    equal entries all but the earliest are repeats."""
    entries = firsts + _repeated(firsts) * copies
    rng.shuffle(entries)
    first_at: dict[Job, int] = {}
    jobs: list[Job] = []
    for job in entries:
        at = first_at.setdefault(job, len(jobs))
        jobs.append(job if at == len(jobs) else replace(job, repeat_of=at))
    return jobs


def _kernel(spec, walkers: int, seed: int, seconds: float) -> list[Job]:
    rng = random.Random(seed)
    firsts = [
        # the population: job seeds 0..count-1 of every problem, whatever
        # ``--seed`` is (see the module docstring)
        Job(problem, n, job_seed, walkers)
        for problem, n, count in spec
        for job_seed in range(_scaled(count, seconds))
    ]
    return _with_repeats(firsts, rng)


def _served_compute(seed: int, seconds: float) -> list[Job]:
    rng = random.Random(seed)
    count = _scaled(_COMPUTE_JOBS, seconds)
    seeds = rng.sample(range(1, 2**31), count)
    firsts = [
        Job(
            *_COMPUTE[i % len(_COMPUTE)],
            seed=job_seed,
            n_walkers=_COMPUTE_WALKERS,
            max_iterations=_COMPUTE_BUDGET,
        )
        for i, job_seed in enumerate(seeds)
    ]
    # a hit costs a thousandth of a compute job: twelve re-sends of each
    # repeated job give the hit latency enough samples for nothing
    return _with_repeats(firsts, rng, copies=12)


def _served_dispatch(seed: int, seconds: float) -> list[Job]:
    """Two misses then one exact repeat of an already-finished miss."""
    rng = random.Random(seed)
    misses = _scaled(_DISPATCH_MISSES, seconds)
    seeds = rng.sample(range(1, 2**31), misses)
    jobs: list[Job] = []
    first_at: list[int] = []
    for i, job_seed in enumerate(seeds):
        first_at.append(len(jobs))
        jobs.append(
            Job(
                *_DISPATCH,
                seed=job_seed,
                n_walkers=_DISPATCH_WALKERS,
                max_iterations=_DISPATCH_BUDGET,
            )
        )
        if i % 2 == 1:
            source = rng.choice(first_at)
            jobs.append(replace(jobs[source], repeat_of=source))
    return jobs


def build(workload: str, seed: int, seconds: float) -> list[Job]:
    """The job list of ``workload`` for this seed and list size."""
    if workload == "kernel_scalar":
        return _kernel(_SCALAR, 1, seed, seconds)
    if workload == "multiwalk_vector":
        return _kernel(_VECTOR, KERNEL_WALKERS, seed, seconds)
    if workload == "served_compute":
        return _served_compute(seed, seconds)
    if workload == "served_dispatch":
        return _served_dispatch(seed, seconds)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def encode(jobs: list[Job]) -> bytes:
    """Canonical bytes of a list: equal lists encode identically."""
    return "\n".join(
        json.dumps(asdict(job), sort_keys=True) for job in jobs
    ).encode()
