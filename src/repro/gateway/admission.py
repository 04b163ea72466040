"""Admission control and automatic walker-count planning.

**Admission** keeps the gateway stable under overload by shedding the
lowest-priority work first.  Each priority class may fill a different
fraction of the global in-flight capacity — with the defaults and
``capacity=100``, ``batch`` traffic is refused beyond 50 in-flight jobs,
``standard`` beyond 80, and only ``premium`` may use the full 100.  Under
saturation the low classes therefore starve before the high ones feel any
pressure, which is exactly the shedding order the priority classes
promise.  Refusals come back as a structured decision the HTTP layer turns
into ``429 Too Many Requests`` with a ``Retry-After`` header.

**Circuit breaking** protects the gateway's own threads when the cluster
behind it is unreachable (leader died, failover in progress).  Submits
that would block on a dead coordinator instead fail fast with ``503`` and
a ``Retry-After`` hint; after ``reset_timeout`` a single half-open probe
is let through, and one success re-closes the breaker.

**Planning** answers "how many walkers should this job get?" when the
client does not say.  The paper's central result makes this a statistics
question: independent multi-walk speedup is ``E[T] / E[min_k]``, entirely
determined by the sequential runtime distribution.  The planner records
observed wall times per problem family, fits them with
:func:`repro.stats.best_fit`, and picks the largest ``k`` whose predicted
*efficiency* (speedup / k) stays above a floor — exponential-like families
(Costas) get many walkers, saturating families (shifted-exponential or
lognormal regimes) stop early where extra walkers would be wasted.
"""

from __future__ import annotations

import math
import time
from typing import Optional

from repro.autoscale import Predictor
from repro.errors import GatewayError
from repro.stats import best_fit, predicted_speedup

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "CircuitBreaker",
    "PredictivePlanner",
    "WalkerPlanner",
]

#: fraction of global capacity each priority class may occupy
DEFAULT_PRIORITY_FRACTIONS = {0: 0.5, 1: 0.8, 2: 1.0}


class AdmissionDecision:
    """Outcome of one admission check."""

    __slots__ = ("admitted", "reason", "retry_after")

    def __init__(
        self, admitted: bool, reason: str = "", retry_after: float = 1.0
    ) -> None:
        self.admitted = admitted
        self.reason = reason
        self.retry_after = retry_after

    def __bool__(self) -> bool:
        return self.admitted


class AdmissionController:
    """Priority-aware load shedding over a global in-flight budget.

    ``capacity`` is the total number of gateway jobs allowed in flight at
    once; ``priority_fractions`` maps each integer priority to the share
    of that capacity it may consume.  A class's effective limit is
    ``max(1, floor(capacity * fraction))`` so tiny capacities still admit
    one job per class.

    ``cost_capacity`` adds a second, finer budget in predicted
    *walker-seconds*: when the planner can estimate what a job will cost
    (``k x E[min_k]``), admission also refuses jobs whose predicted cost
    would push the in-flight total past the class's share of the budget.
    Job counts treat a 1-walker costas probe and a 64-walker saturated
    magic-square identically; cost shedding refuses the expensive one
    first.  Jobs with no prediction (cold families) only face the count
    check, so the cost budget can never starve an unlearned family.
    """

    def __init__(
        self,
        capacity: int = 64,
        priority_fractions: dict[int, float] | None = None,
        *,
        cost_capacity: float | None = None,
    ) -> None:
        if capacity < 1:
            raise GatewayError(f"capacity must be >= 1, got {capacity}")
        if cost_capacity is not None and cost_capacity <= 0:
            raise GatewayError(
                f"cost_capacity must be > 0, got {cost_capacity}"
            )
        self.capacity = capacity
        self.cost_capacity = cost_capacity
        fractions = dict(priority_fractions or DEFAULT_PRIORITY_FRACTIONS)
        for priority, fraction in fractions.items():
            if not 0.0 < fraction <= 1.0:
                raise GatewayError(
                    f"priority {priority} fraction must be in (0, 1], "
                    f"got {fraction}"
                )
        self.priority_fractions = fractions
        self.inflight = 0
        self.inflight_cost = 0.0
        self.shed = 0
        self.shed_by_cost = 0

    def limit_for(self, priority: int) -> int:
        fraction = self.priority_fractions.get(priority, 1.0)
        return max(1, math.floor(self.capacity * fraction))

    def cost_limit_for(self, priority: int) -> Optional[float]:
        if self.cost_capacity is None:
            return None
        fraction = self.priority_fractions.get(priority, 1.0)
        return self.cost_capacity * fraction

    def admit(
        self,
        priority: int,
        tenant_inflight: int,
        tenant_max_inflight: int,
        cost: float | None = None,
    ) -> AdmissionDecision:
        """Check the tenant quota, the class share, then (when both a cost
        budget and a prediction exist) the walker-second budget; does not
        reserve — call :meth:`acquire` after a positive decision."""
        if tenant_inflight >= tenant_max_inflight:
            return AdmissionDecision(
                False,
                f"tenant in-flight quota of {tenant_max_inflight} reached",
                retry_after=1.0,
            )
        if self.inflight >= self.limit_for(priority):
            self.shed += 1
            return AdmissionDecision(
                False,
                f"gateway at capacity for priority class {priority} "
                f"({self.inflight}/{self.limit_for(priority)} in flight)",
                retry_after=2.0,
            )
        cost_limit = self.cost_limit_for(priority)
        if (
            cost_limit is not None
            and cost is not None
            and self.inflight > 0
            and self.inflight_cost + cost > cost_limit
        ):
            # an empty gateway always admits: a single huge job must run
            # eventually, however expensive the prediction says it is
            self.shed += 1
            self.shed_by_cost += 1
            return AdmissionDecision(
                False,
                f"predicted cost {cost:.1f} walker-seconds exceeds the "
                f"priority-{priority} budget "
                f"({self.inflight_cost:.1f}/{cost_limit:.1f} in flight)",
                retry_after=2.0,
            )
        return AdmissionDecision(True)

    def acquire(self, cost: float = 0.0) -> None:
        self.inflight += 1
        self.inflight_cost += max(0.0, cost)

    def release(self, cost: float = 0.0) -> None:
        if self.inflight > 0:
            self.inflight -= 1
        self.inflight_cost = max(0.0, self.inflight_cost - max(0.0, cost))
        if self.inflight == 0:
            self.inflight_cost = 0.0  # no drift accumulation across idle


class CircuitBreaker:
    """Fail-fast guard between the gateway and an unreachable cluster.

    Classic three-state breaker:

    - **closed** — submits pass through; ``failure_threshold``
      consecutive cluster failures trip it open;
    - **open** — submits are refused immediately (the HTTP layer turns
      that into ``503`` + ``Retry-After``) so request threads never pile
      up blocking on a dead coordinator while failover is in progress;
    - **half-open** — after ``reset_timeout`` one probe request is let
      through; success re-closes the breaker, failure re-opens it for
      another full timeout.

    Only *cluster* failures (``NetError`` on submit) count — admission
    refusals and bad requests are the caller's problem, not the
    cluster's.  Not thread-safe by itself; the gateway calls it under its
    submit lock.
    """

    def __init__(
        self, *, failure_threshold: int = 3, reset_timeout: float = 5.0
    ) -> None:
        if failure_threshold < 1:
            raise GatewayError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout <= 0:
            raise GatewayError(
                f"reset_timeout must be > 0, got {reset_timeout}"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.state = "closed"
        self.failures = 0  # consecutive, while closed
        self.trips = 0
        self.rejections = 0
        self._opened_at = 0.0
        self._probe_inflight = False

    def allow(self) -> bool:
        """May a request proceed to the cluster right now?"""
        if self.state == "closed":
            return True
        if self.state == "open":
            if time.monotonic() - self._opened_at >= self.reset_timeout:
                self.state = "half_open"
                self._probe_inflight = True
                return True
            self.rejections += 1
            return False
        # half_open: exactly one probe at a time
        if self._probe_inflight:
            self.rejections += 1
            return False
        self._probe_inflight = True
        return True

    def record_success(self) -> None:
        """The cluster answered: close (or keep closed) the breaker."""
        self.state = "closed"
        self.failures = 0
        self._probe_inflight = False

    def record_failure(self) -> None:
        """The cluster was unreachable; maybe trip open."""
        self._probe_inflight = False
        if self.state == "half_open":
            self._trip()
            return
        self.failures += 1
        if self.state == "closed" and self.failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self.state = "open"
        self.failures = 0
        self.trips += 1
        self._opened_at = time.monotonic()

    @property
    def retry_after(self) -> float:
        """Seconds a refused client should wait before retrying."""
        if self.state != "open":
            return 1.0
        remaining = self.reset_timeout - (time.monotonic() - self._opened_at)
        return max(1.0, remaining)


class WalkerPlanner:
    """Pick a default walker count per problem family from runtime fits.

    Wall times of completed jobs are recorded per family; once
    ``min_samples`` exist, :func:`repro.stats.best_fit` characterizes the
    family's runtime distribution and the plan is the largest power-of-two
    ``k <= max_walkers`` whose predicted efficiency
    ``speedup(k) / k >= min_efficiency``.  Before enough evidence exists
    (or when fitting fails on degenerate samples) the plan is
    ``default_walkers``.

    Recording is an append: the fit (``best_fit``, 4-20 ms on 64 samples,
    plus ≈ 0.1 ms per candidate count when the lognormal wins and
    ``expected_min`` is a quadrature — the same order whichever family
    wins) runs when a plan, a fitted family or the stats are next *asked
    for*, over the samples held by then.  The gateway records every solved
    job on its event loop, so a job that names its own ``n_walkers`` never
    pays for a fit.  The first fit in a process also loads scipy (≈ 0.6 s);
    ``repro gateway`` does that before it listens.
    """

    def __init__(
        self,
        *,
        default_walkers: int = 4,
        max_walkers: int = 64,
        min_samples: int = 8,
        min_efficiency: float = 0.5,
        max_samples: int = 512,
    ) -> None:
        if not 1 <= default_walkers <= max_walkers:
            raise GatewayError(
                f"need 1 <= default_walkers <= max_walkers, got "
                f"default_walkers={default_walkers}, max_walkers={max_walkers}"
            )
        if not 0.0 < min_efficiency <= 1.0:
            raise GatewayError(
                f"min_efficiency must be in (0, 1], got {min_efficiency}"
            )
        self.default_walkers = default_walkers
        self.max_walkers = max_walkers
        self.min_samples = min_samples
        self.min_efficiency = min_efficiency
        self.max_samples = max_samples
        self._samples: dict[str, list[float]] = {}
        self._plans: dict[str, int] = {}
        self._fits: dict[str, str] = {}
        #: families with samples recorded since their last fit
        self._stale: set[str] = set()

    def record(
        self, family: str, wall_time: float, size: Optional[int] = None
    ) -> None:
        """Record one completed job's wall time (the plan is refreshed
        when next asked for).

        ``size`` is accepted for interface parity with
        :class:`PredictivePlanner`; this planner models whole families.
        """
        if wall_time <= 0:
            return
        samples = self._samples.setdefault(family, [])
        samples.append(float(wall_time))
        if len(samples) > self.max_samples:
            # sliding window: old measurements stop describing the mix of
            # instances tenants currently submit
            del samples[: len(samples) - self.max_samples]
        if len(samples) >= self.min_samples:
            self._stale.add(family)

    def _refit(self, family: str) -> None:
        """Bring a stale family's plan up to date with its samples."""
        if family not in self._stale:
            return
        self._stale.discard(family)
        try:
            fit = best_fit(self._samples[family])
        except ValueError:
            # degenerate samples (e.g. all identical); keep prior plan
            return
        candidates = []
        k = 1
        while k <= self.max_walkers:
            candidates.append(k)
            k *= 2
        try:
            speedups = predicted_speedup(fit, candidates)
        except ValueError:
            return
        plan = 1
        for k in candidates:
            if speedups[k] / k >= self.min_efficiency:
                plan = k
        self._plans[family] = plan
        self._fits[family] = fit.name

    def plan(
        self,
        family: str,
        size: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> int:
        """The current walker-count recommendation for ``family``
        (``size``/``deadline`` ignored — see :class:`PredictivePlanner`)."""
        self._refit(family)
        return self._plans.get(family, self.default_walkers)

    def job_cost(
        self,
        family: str,
        n_walkers: int,
        size: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> Optional[float]:
        """Predicted walker-seconds (always ``None``: this planner keeps no
        per-family cost model; :class:`PredictivePlanner` provides one)."""
        return None

    def fitted_family(self, family: str) -> Optional[str]:
        """Which distribution family the plan is based on (None = default)."""
        self._refit(family)
        return self._fits.get(family)

    def stats(self) -> dict[str, dict[str, object]]:
        return {
            family: {
                "samples": len(samples),
                "plan": self.plan(family),
                "fit": self.fitted_family(family),
            }
            for family, samples in sorted(self._samples.items())
        }


class PredictivePlanner:
    """Drop-in :class:`WalkerPlanner` replacement backed by a live
    :class:`~repro.autoscale.Predictor`.

    Same surface (``plan`` / ``record`` / ``job_cost`` / ``fitted_family``
    / ``stats``), three upgrades: models are keyed by *(family, size)*
    with the aggregate-fallback ladder instead of family-only; plans can
    honor per-job deadlines (``P(min_k <= d)`` confidence targets); and
    every plan comes with a predicted walker-second cost for admission.
    The underlying store persists, so a restarted gateway plans from its
    predecessor's evidence instead of defaults.
    """

    def __init__(
        self,
        predictor: Predictor | None = None,
        *,
        max_walkers: int | None = None,
    ) -> None:
        self.predictor = predictor if predictor is not None else Predictor()
        self.max_walkers = (
            max_walkers if max_walkers is not None else self.predictor.max_walkers
        )
        self.default_walkers = self.predictor.default_walkers

    def record(
        self, family: str, wall_time: float, size: Optional[int] = None
    ) -> None:
        self.predictor.observe(family, wall_time, size=size)

    def plan(
        self,
        family: str,
        size: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> int:
        planned = self.predictor.choose_walkers(family, size, deadline)
        return max(1, min(planned, self.max_walkers))

    def job_cost(
        self,
        family: str,
        n_walkers: int,
        size: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> Optional[float]:
        return self.predictor.expected_cost(
            family, n_walkers, size=size, deadline=deadline
        )

    def fitted_family(self, family: str) -> Optional[str]:
        model = self.predictor.store.get(family)
        if model is None or model.fit is None:
            return None
        return model.fit.name

    def stats(self) -> dict[str, dict[str, object]]:
        return self.predictor.stats()
