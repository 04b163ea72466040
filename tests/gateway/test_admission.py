"""Admission control (priority shedding), walker planning, circuit breaking."""

import time

import numpy as np
import pytest

from repro.errors import GatewayError
from repro.gateway.admission import (
    AdmissionController,
    CircuitBreaker,
    WalkerPlanner,
)


class TestAdmissionController:
    def test_class_limits_are_fractions_of_capacity(self):
        admission = AdmissionController(capacity=10)
        assert admission.limit_for(0) == 5
        assert admission.limit_for(1) == 8
        assert admission.limit_for(2) == 10
        # unknown priorities default to the full capacity
        assert admission.limit_for(7) == 10

    def test_low_priority_sheds_first(self):
        admission = AdmissionController(capacity=10)
        for _ in range(5):
            assert admission.admit(0, 0, 100)
            admission.acquire()
        # batch is now saturated, standard and premium still admit
        assert not admission.admit(0, 0, 100)
        assert admission.admit(1, 0, 100)
        for _ in range(3):
            admission.acquire()
        assert not admission.admit(1, 0, 100)
        assert admission.admit(2, 0, 100)
        for _ in range(2):
            admission.acquire()
        assert not admission.admit(2, 0, 100)
        assert admission.shed == 3

    def test_refusal_carries_retry_after(self):
        admission = AdmissionController(capacity=1)
        admission.acquire()
        decision = admission.admit(2, 0, 100)
        assert not decision
        assert decision.retry_after > 0
        assert "capacity" in decision.reason

    def test_tenant_quota_checked_first(self):
        admission = AdmissionController(capacity=100)
        decision = admission.admit(2, 5, 5)
        assert not decision
        assert "tenant" in decision.reason
        # a tenant quota refusal is back-pressure, not load shedding
        assert admission.shed == 0

    def test_release_floor(self):
        admission = AdmissionController(capacity=2)
        admission.release()
        assert admission.inflight == 0

    def test_tiny_capacity_still_admits_every_class(self):
        admission = AdmissionController(capacity=1)
        assert admission.limit_for(0) == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(GatewayError):
            AdmissionController(capacity=0)
        with pytest.raises(GatewayError):
            AdmissionController(capacity=4, priority_fractions={0: 1.5})


class TestWalkerPlanner:
    def test_default_before_evidence(self):
        planner = WalkerPlanner(default_walkers=4, min_samples=8)
        assert planner.plan("costas") == 4
        for _ in range(7):
            planner.record("costas", 1.0)
        assert planner.plan("costas") == 4  # still below min_samples

    def test_exponential_runtimes_plan_many_walkers(self):
        """Memoryless runtimes -> linear speedup -> plan to the cap."""
        rng = np.random.default_rng(7)
        planner = WalkerPlanner(max_walkers=32, min_samples=8)
        for t in rng.exponential(2.0, size=200):
            planner.record("costas", float(t))
        assert planner.plan("costas") == 32
        assert planner.fitted_family("costas") == "exponential"

    def test_shifted_runtimes_saturate_the_plan(self):
        """A large minimum runtime caps useful parallelism early."""
        rng = np.random.default_rng(7)
        planner = WalkerPlanner(max_walkers=64, min_samples=8)
        # t0=4, mean tail 1: speedup saturates at E[T]/t0 = 1.25, so
        # efficiency >= 0.5 only holds for tiny k
        for t in 4.0 + rng.exponential(1.0, size=300):
            planner.record("magic_square", float(t))
        assert planner.plan("magic_square") <= 2
        assert planner.fitted_family("magic_square") is not None

    def test_degenerate_samples_keep_the_default(self):
        planner = WalkerPlanner(default_walkers=4, min_samples=4)
        for _ in range(10):
            planner.record("queens", 1.0)  # zero variance
        # whatever the degenerate fit says, the planner stays in range
        assert 1 <= planner.plan("queens") <= planner.max_walkers

    def test_record_never_fits(self, monkeypatch):
        """record() runs on the gateway's event loop after every solved
        job: it appends, and the fit waits for someone to ask for a plan."""
        from repro.gateway import admission

        fits = []

        def counting_best_fit(samples):
            fits.append(len(samples))
            return best_fit(samples)

        best_fit = admission.best_fit
        monkeypatch.setattr(admission, "best_fit", counting_best_fit)
        rng = np.random.default_rng(7)
        planner = WalkerPlanner(max_walkers=32, min_samples=8)
        for t in rng.exponential(2.0, size=100):
            planner.record("costas", float(t))
        assert fits == []  # samples 8..100 recorded, nothing fitted
        assert planner.plan("costas") == 32
        assert fits == [100]  # one fit, over everything recorded by then
        assert planner.fitted_family("costas") == "exponential"
        assert planner.stats()["costas"]["plan"] == 32
        assert fits == [100]  # and it is kept until the next sample

    def test_nonpositive_samples_ignored(self):
        planner = WalkerPlanner(min_samples=2)
        planner.record("x", 0.0)
        planner.record("x", -1.0)
        assert planner.stats() == {}

    def test_sliding_window(self):
        planner = WalkerPlanner(min_samples=4, max_samples=10)
        for i in range(25):
            planner.record("x", 1.0 + 0.1 * (i % 5))
        assert planner.stats()["x"]["samples"] == 10

    def test_rejects_bad_parameters(self):
        with pytest.raises(GatewayError):
            WalkerPlanner(default_walkers=10, max_walkers=4)
        with pytest.raises(GatewayError):
            WalkerPlanner(min_efficiency=0.0)


class TestCircuitBreaker:
    def test_closed_by_default_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.state == "closed"
        assert breaker.allow()
        assert breaker.rejections == 0

    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=60.0)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 1
        assert not breaker.allow()
        assert breaker.rejections == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=60.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_single_probe_then_close(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.05)
        breaker.record_failure()
        assert breaker.state == "open"
        time.sleep(0.06)
        assert breaker.allow()  # the probe
        assert breaker.state == "half_open"
        # a second request while the probe is in flight is refused
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.05)
        breaker.record_failure()
        time.sleep(0.06)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2
        assert not breaker.allow()

    def test_retry_after_tracks_the_open_window(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=30.0)
        assert breaker.retry_after == 1.0  # closed: nominal hint
        breaker.record_failure()
        assert 1.0 <= breaker.retry_after <= 30.0
        assert breaker.retry_after > 25.0  # just opened: nearly full window

    def test_rejects_bad_parameters(self):
        with pytest.raises(GatewayError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(GatewayError):
            CircuitBreaker(reset_timeout=0.0)
