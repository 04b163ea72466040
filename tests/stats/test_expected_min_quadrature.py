"""``expected_min`` on fits without a closed form: fixed Gauss-Legendre
nodes against the adaptive ``quad`` it replaced.

The reference below is the integration ``expected_min`` used to run —
``scipy.integrate.quad`` over a scalar ``ppf`` integrand, hundreds of
scipy calls per ``k``.  It stays here as the yardstick: the quadrature is
one vectorised ``ppf`` call per ``k`` and has to agree to 1e-5.
"""

import warnings

import numpy as np
import pytest
from scipy import integrate

from repro.stats import degenerate_fit, expected_min, predicted_speedup, refreeze
from repro.stats.fitting import fit_exponential, fit_shifted_exponential

QUAD_EDGES = (0.1, 0.5, 1.0, 2.0, 5.0)


def quad_expected_min(fit, k, edges=QUAD_EDGES):
    def integrand(u):
        return float(fit.frozen.ppf(u)) * k * (1.0 - u) ** (k - 1)

    breakpoints = sorted({min(1.0 - 1e-12, max(1e-12, q / k)) for q in edges})
    with warnings.catch_warnings():
        # sigma = 2.5, k = 2: "extremely bad integrand behavior"
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _err = integrate.quad(
            integrand, 0.0, 1.0, points=breakpoints, limit=400
        )
    return float(value)


def lognormal(sigma, scale=3.0):
    return refreeze("lognormal", (sigma, 0.0, scale))


class TestAgainstQuad:
    @pytest.mark.parametrize("sigma", [0.25, 0.8, 1.5, 2.5])
    @pytest.mark.parametrize("k", [2, 3, 4, 8, 16, 32, 64])
    def test_grid(self, sigma, k):
        fit = lognormal(sigma)
        assert expected_min(fit, k) == pytest.approx(
            quad_expected_min(fit, k), rel=1e-5
        )

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_scale_free(self, scale):
        fit = lognormal(0.8, scale=scale)
        assert expected_min(fit, 8) == pytest.approx(
            quad_expected_min(fit, 8), rel=1e-5
        )

    def test_k_beyond_the_old_panels(self):
        # at k = 2**16 the weight's mass sits in u < 20/k; the reference
        # needs those breakpoints spelled out (with the five above it
        # loses 1 % of the integral), the quadrature has them built in
        fit = lognormal(0.8)
        k = 2**16
        reference = quad_expected_min(fit, k, edges=QUAD_EDGES + (10.0, 20.0, 50.0))
        assert expected_min(fit, k) == pytest.approx(reference, rel=1e-5)

    def test_speedups_agree(self):
        fit = lognormal(0.8)
        counts = [1, 2, 4, 8, 16, 32, 64]
        base = quad_expected_min(fit, 1)
        predicted = predicted_speedup(fit, counts)
        for k in counts:
            assert predicted[k] == pytest.approx(
                base / quad_expected_min(fit, k), rel=1e-5
            )


class _CountingFrozen:
    """A frozen distribution that counts its ``ppf`` calls."""

    def __init__(self, frozen):
        self._frozen = frozen
        self.calls = []

    def ppf(self, u):
        self.calls.append(np.shape(u))
        return self._frozen.ppf(u)


class TestOneCallPerK:
    def _counting(self, fit):
        counter = _CountingFrozen(fit.frozen)
        object.__setattr__(fit, "frozen", counter)
        return counter

    @pytest.mark.parametrize("k", [2, 8, 64])
    def test_one_vectorised_ppf_call(self, k):
        fit = lognormal(0.8)
        counter = self._counting(fit)
        expected_min(fit, k)
        assert len(counter.calls) == 1
        assert int(np.prod(counter.calls[0])) > 1  # all nodes in one array

    def test_k1_is_the_fitted_mean_without_integrating(self):
        fit = lognormal(0.8)
        counter = self._counting(fit)
        assert expected_min(fit, 1) == fit.mean
        assert counter.calls == []


class TestClosedFormsUntouched:
    @pytest.mark.parametrize("k", [1, 2, 7, 64, 10**6])
    def test_bit_identical(self, k):
        samples = 2.0 + np.random.default_rng(4).exponential(5.0, 200)
        for fit in (
            fit_exponential(samples),
            fit_shifted_exponential(samples),
            degenerate_fit([0.7] * 10),
        ):
            loc, scale = fit.params
            assert expected_min(fit, k) == float(loc + scale / k)
