"""The calibrated clock: the spin, the bracket, the two estimators.

On a small shared VM the same loop costs 5 ms per call in one run and
9 ms in the next, so a wall-clock mean of fixed work drifts by 10-20 %
from run to run.  The drift is the
*machine's* speed, not the program's, and it can be measured at the moment
it happens: every timed operation is bracketed by a fixed reference spin
(:func:`spin`, about :data:`REF_SPIN_MS` on a quiet core), and the
operation's wall time is rescaled by how slow the spins around it ran::

    calibrated_j = wall_j * REF_SPIN_MS / mean(spin_before_j, spin_after_j)

A calibrated millisecond reads as "a millisecond on the quiet reference
machine".

Only time spent computing is rescaled.  A served job also *waits* — for
the agent's 10 ms pump, the scheduler's 5 ms tick, the 2 ms poll sleep —
and a sleep is as long on a slow machine as on a fast one.  Where the
operation runs in other processes, their CPU time on the operation's
critical path is read from ``/proc`` around it (``busy_s``), and

    calibrated_j = (wall_j - busy_j) + busy_j * REF_SPIN_MS / spin_j

(measured on trivial served jobs, ten runs: rescaling the whole latency
left a 13 % spread that followed the machine's speed, 4.3 ms of the
10.6 ms being timers).  Making the machine slower by any factor —
``busy`` and every spin times the factor, waits unchanged — leaves every
calibrated number unchanged (``test_harness.py`` pins that).

Only two estimators are built on the samples, both sums over a *fixed*
job list (quantiles of a few hundred heavy-tailed samples do not repeat
on this machine; they are reported by :func:`describe` with their sample
counts, outside the gated set):

- :func:`mean_cal_ms` — ``sum(calibrated) / n``
- :func:`rate_per_cal_s` — ``count / sum(calibrated seconds)``
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "REF_SPIN_MS",
    "RemoteCpu",
    "Sample",
    "Clock",
    "spin",
    "mean_cal_ms",
    "mean_raw_ms",
    "rate_per_cal_s",
    "paired_overhead",
    "describe",
]

#: what one spin costs on the quiet reference machine; calibrated units
#: are defined by this constant, so it never changes once numbers exist
REF_SPIN_MS = 5.0

_SPIN_ROUNDS = 1080
_A = np.arange(64)
_B = _A[::-1].copy()

#: a spin that ended this recently still describes the machine's speed,
#: so back-to-back operations share the spin between them
_SPIN_FRESH_S = 0.002


def spin() -> float:
    """Run the reference loop once; wall seconds it took.

    Small-array NumPy calls, which is what a walk iteration is made of.
    What a neighbour on the host does to this machine is not one number:
    measured over five minutes in which the machine's speed varied by a
    factor of two, scalar solves, the declarative model, the vector
    engine and the served path's serial work all slowed in proportion to
    this loop (log-log exponent 1.02-1.05, 2.2-2.9 % residual on 5-second
    blocks), while the pure-Python loop the issue prescribed
    (``x += i*i & 7``) barely noticed the neighbour (4.0-5.4 % residual,
    and a *negative* weight when both were offered).  The loop depends on
    the interpreter and on NumPy only, never on code under ``src/``.
    """
    start = time.perf_counter()
    for _ in range(_SPIN_ROUNDS):
        c = _A + _B
        d = np.abs(c - _A)
        np.flatnonzero(d == d.sum())
        np.argmin(d)
    return time.perf_counter() - start


#: what the clock reads around an operation that runs in other processes:
#: ``(serial, parallel)`` cumulative CPU seconds — of the process that does
#: its work in sequence with the caller, and of each of the workers that
#: run side by side (only the busiest of those is on the critical path)
RemoteCpu = Callable[[], "tuple[float, list[float]]"]


@dataclass(frozen=True)
class Sample:
    """One timed operation: its wall time and the spins around it."""

    wall_s: float
    spin_s: float  # mean of the spin before and the spin after
    #: CPU seconds of the program under test inside the operation: this
    #: process for an in-process call, server + workers for a served one
    cpu_s: float = 0.0
    #: CPU seconds on the operation's critical path (``None``: all of
    #: ``wall_s`` — an in-process call does nothing but compute)
    busy_s: Optional[float] = None
    client_cpu_s: float = 0.0  # CPU seconds of the calling process

    @classmethod
    def across_processes(
        cls,
        wall_s: float,
        client_cpu_s: float,
        serial_cpu_s: float,
        workers_cpu_s: list[float],
        spin_s: float = 0.0,
    ) -> "Sample":
        """An operation the caller waited for while a process in sequence
        with it and workers side by side did the computing: all of their
        CPU time is the program's, the caller's plus the serial process's
        plus the busiest worker's is on the critical path."""
        return cls(
            wall_s,
            spin_s,
            serial_cpu_s + sum(workers_cpu_s),
            client_cpu_s + serial_cpu_s + max(workers_cpu_s, default=0.0),
            client_cpu_s,
        )

    @property
    def scale(self) -> float:
        return REF_SPIN_MS / (self.spin_s * 1e3)

    @property
    def cal_s(self) -> float:
        if self.busy_s is None:
            return self.wall_s * self.scale
        busy = min(self.busy_s, self.wall_s)
        return (self.wall_s - busy) + busy * self.scale

    @property
    def cpu_cal_s(self) -> float:
        return self.cpu_s * self.scale


class Clock:
    """Brackets operations with spins and remembers every spin it ran."""

    def __init__(self) -> None:
        self.spins: list[float] = []
        self._last_spin_s = 0.0
        self._last_spin_end = -1.0

    def _spin(self) -> float:
        took = spin()
        self.spins.append(took)
        self._last_spin_s = took
        self._last_spin_end = time.perf_counter()
        return took

    def _before(self) -> float:
        if time.perf_counter() - self._last_spin_end <= _SPIN_FRESH_S:
            return self._last_spin_s
        return self._spin()

    def measure(
        self, fn: Callable[..., Any], *args: Any, remote: Optional[RemoteCpu] = None
    ) -> tuple[Any, Sample]:
        """Time one call of ``fn(*args)`` between two spins.  ``remote``
        reads the CPU time of the other processes the call keeps busy."""
        before = self._before()
        far0 = remote() if remote is not None else None
        cpu0 = time.process_time()
        start = time.perf_counter()
        value = fn(*args)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        if far0 is None:
            sample = Sample(wall, 0.0, cpu, None, cpu)
        else:
            serial0, parallel0 = far0
            serial1, parallel1 = remote()
            sample = Sample.across_processes(
                wall, cpu, serial1 - serial0,
                [b - a for a, b in zip(parallel0, parallel1, strict=True)],
            )
        after = self._spin()
        return value, replace(sample, spin_s=(before + after) / 2.0)

    def measure_batch(
        self, fn: Callable[..., Any], calls: int, *args: Any
    ) -> Sample:
        """Time ``calls`` back-to-back calls as one operation — for
        functions far shorter than a spin; divide by ``calls`` yourself."""
        before = self._before()
        start = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        wall = time.perf_counter() - start
        after = self._spin()
        return Sample(wall, (before + after) / 2.0)

    def burst(self, n: int = 20) -> float:
        """Mean of ``n`` fresh spins: the bracket for long one-off phases
        (set-up, a whole measured phase) where two single spins are too
        few to describe the machine."""
        return statistics.fmean(self._spin() for _ in range(n))

    def noise(self) -> dict[str, float]:
        """How noisy the machine was: the run's ``bench.spin_*`` numbers."""
        spins_ms = [s * 1e3 for s in self.spins]
        mean = statistics.fmean(spins_ms)
        return {
            "spin_ms_p50": statistics.median(spins_ms),
            "spin_cv": statistics.pstdev(spins_ms) / mean if mean else 0.0,
            "spins": float(len(spins_ms)),
        }


def mean_cal_ms(samples: Sequence[Sample]) -> float:
    """Estimator 1: sum of calibrated time over the number of operations."""
    return 1e3 * sum(s.cal_s for s in samples) / len(samples)


def mean_raw_ms(samples: Sequence[Sample]) -> float:
    """The uncalibrated twin of :func:`mean_cal_ms`."""
    return 1e3 * sum(s.wall_s for s in samples) / len(samples)


def rate_per_cal_s(count: float, samples: Iterable[Sample]) -> float:
    """Estimator 2: an exact count over the sum of calibrated seconds."""
    return count / sum(s.cal_s for s in samples)


def paired_overhead(plain: Sequence[Sample], changed: Sequence[Sample]) -> float:
    """What ``changed[i]`` costs over its pair ``plain[i]``, as a share:
    the geometric mean of the per-pair ratios, minus 1.  Pairs are equal
    work measured back to back, so a heavy pair weighs no more than a
    light one."""
    logs = [math.log(c.cal_s / p.cal_s) for p, c in zip(plain, changed, strict=True)]
    return math.exp(statistics.fmean(logs)) - 1.0


def describe(samples: Sequence[Sample]) -> dict[str, float]:
    """Per-operation calibrated p50/p90 beside the raw mean, with the
    sample count — printed under ``extra``, never gated."""
    cal_ms = sorted(1e3 * s.cal_s for s in samples)
    n = len(cal_ms)
    return {
        "n": float(n),
        "cal_ms_mean": mean_cal_ms(samples),
        "raw_ms_mean": mean_raw_ms(samples),
        "cal_ms_p50": cal_ms[n // 2],
        "cal_ms_p90": cal_ms[min(n - 1, (9 * n) // 10)],
    }
