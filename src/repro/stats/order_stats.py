"""Expected minima of k i.i.d. runtimes and predicted speedups.

For a non-negative random runtime ``T`` with survival function ``S``,

    E[min(T_1 .. T_k)] = integral_0^inf S(t)^k dt.

Closed forms exist for the exponential family (``E[T]/k``, shifted:
``t0 + (E[T]-t0)/k``); other fits are integrated numerically, in quantile
space, on fixed Gauss-Legendre nodes: one vectorised ``ppf`` call per ``k``
(this module imports no scipy; the fit it is handed carries its own frozen
distribution).  The predicted
ideal-vs-saturating speedup shapes drive the paper's analysis:
exponential => ``speedup(k) = k`` (Costas), shifted exponential =>
``speedup(k) -> E[T]/t0`` (the CSPLib benchmarks).
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

import numpy as np

from repro.stats.fitting import DistributionFit
from repro.util.rng import SeedLike, as_generator

__all__ = ["expected_min", "empirical_expected_min", "predicted_speedup"]


#: where the first order statistic's weight ``k (1-u)^(k-1) ~ k e^(-ku)``
#: puts its mass, in units of ``1/k``: panel edges of the quantile-space
#: integral over ``[0, 1]`` (edges past 1 collapse onto it).  The edge at
#: 20 leaves e^-20 of the weight to the panel that runs on to ``u = 1``;
#: stopping at 5 loses 1 % of the answer once that panel is thousands of
#: decay lengths wide (k > 10^4)
_PANEL_EDGES = np.array((0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, np.inf))

#: Gauss-Legendre nodes per panel.  ``ppf`` is smooth inside a panel but
#: singular at ``u = 1``; 96 nodes hold the last panel of a sigma = 2.5
#: lognormal at k = 2 (the worst integrand the fits produce) to 7e-6 of
#: adaptive ``quad``, and everything milder to 2e-7
_PANEL_NODES = 96


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on ``[-1, 1]``, built at the first numeric
    ``expected_min`` (6 ms, plus ``numpy.polynomial``'s import)."""
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(_PANEL_NODES)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def expected_min(fit: DistributionFit, k: int) -> float:
    """``E[min of k]`` under a fitted distribution.

    Uses the closed form for (shifted) exponentials, the fitted mean at
    ``k = 1``, and fixed-node quadrature of the first order statistic in
    quantile space otherwise.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if fit.name in ("exponential", "shifted_exponential", "degenerate"):
        # the degenerate point-mass fallback is an exponential of
        # negligible scale, so the same closed form applies (and gives
        # E[min_k] ~ mean for every k: no predicted speedup)
        loc, scale = fit.params
        return float(loc + scale / k)
    if k == 1:
        return float(fit.mean)
    # generic: E[min_k] = ∫_0^1 ppf(u) · k (1-u)^(k-1) du  (probability
    # integral transform of the first order statistic).  Integrating in
    # quantile space is robust across scales — integrating survival^k in
    # time space silently loses the mass when the distribution is narrow
    # relative to its support.  The weight concentrates near u ~ 1/k, so
    # the panels are cut there; Gauss nodes are interior, so ppf is never
    # asked for u = 0 or u = 1.
    nodes, weights = _gauss_legendre()
    edges = np.unique(np.minimum(_PANEL_EDGES / k, 1.0))
    half = 0.5 * np.diff(edges)[:, None]
    u = edges[:-1, None] + half * (1.0 + nodes)
    density = k * (1.0 - u) ** (k - 1)
    return float(np.sum(fit.frozen.ppf(u) * density * (half * weights)))


def empirical_expected_min(
    samples: Sequence[float],
    k: int,
    n_reps: int = 1000,
    rng: SeedLike = None,
) -> float:
    """Bootstrap estimate of ``E[min of k]`` straight from a sample."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("need a non-empty 1-D sample")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    gen = as_generator(rng)
    draws = gen.choice(arr, size=(n_reps, k), replace=True)
    return float(draws.min(axis=1).mean())


def predicted_speedup(fit: DistributionFit, core_counts: Sequence[int]) -> dict[int, float]:
    """Model-predicted speedup ``E[T] / E[min_k]`` per core count."""
    base = expected_min(fit, 1)
    if base <= 0:
        raise ValueError(f"fitted mean runtime is {base}; cannot form speedups")
    return {int(k): base / expected_min(fit, int(k)) for k in core_counts}
