"""Parametric fits of runtime distributions.

Las-Vegas local-search runtimes are classically well approximated by
(shifted) exponential distributions — the observation behind the paper's
near-ideal Costas speedups.  We fit three candidates by maximum likelihood
and rank them by Kolmogorov-Smirnov distance:

- ``exponential``: rate ``1/mean``; memoryless, predicts linear speedup.
- ``shifted_exponential``: location ``t0`` plus exponential excess; predicts
  speedup saturating at ``mean / t0``.
- ``lognormal``: heavy-bodied alternative for small/preprocessed instances.

scipy is imported inside the functions that call it (the fitters,
:func:`degenerate_fit`, :func:`refreeze`), never at module level: the
served stack imports this module on every node and forks its pool workers
afterwards, and none of them fits a distribution (DESIGN.md, "Start-up and
resident set").  The first fit in a process pays the library's load.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import DegenerateSamplesError

__all__ = [
    "DistributionFit",
    "fit_exponential",
    "fit_shifted_exponential",
    "fit_lognormal",
    "degenerate_fit",
    "degenerate_reason",
    "refreeze",
    "best_fit",
]

#: minimum samples for a meaningful parametric fit (location + scale + one
#: degree of freedom left over for the KS ranking to mean anything)
MIN_FIT_SAMPLES = 3


@dataclass(frozen=True)
class DistributionFit:
    """A fitted runtime distribution.

    ``params`` are scipy ``(shape..., loc, scale)`` conventions for the
    underlying frozen distribution stored in ``frozen`` — a
    ``scipy.stats`` ``rv_frozen`` built by the function that made the fit
    (a fitter, :func:`degenerate_fit` or :func:`refreeze`), which is also
    where scipy is imported; holding or querying a fit imports nothing.
    """

    name: str
    params: tuple[float, ...]
    mean: float
    ks_statistic: float
    ks_pvalue: float
    log_likelihood: float
    frozen: object  # scipy.stats rv_frozen

    def survival(self, t: np.ndarray | float) -> np.ndarray | float:
        return self.frozen.sf(t)

    def cdf(self, t: np.ndarray | float) -> np.ndarray | float:
        return self.frozen.cdf(t)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return self.frozen.rvs(size=size, random_state=rng)

    def summary(self) -> str:
        return (
            f"{self.name}: mean={self.mean:.4g}, KS={self.ks_statistic:.3f} "
            f"(p={self.ks_pvalue:.3f})"
        )


def _validate(samples: Sequence[float]) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least 2 sample values to fit a distribution")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite and non-negative")
    return arr


def _make_fit(name: str, frozen, params: tuple[float, ...], arr: np.ndarray) -> DistributionFit:
    from scipy import stats as sps

    ks = sps.kstest(arr, frozen.cdf)
    with np.errstate(divide="ignore"):
        logpdf = frozen.logpdf(arr)
    loglik = float(np.sum(logpdf)) if np.all(np.isfinite(logpdf)) else -np.inf
    return DistributionFit(
        name=name,
        params=params,
        mean=float(frozen.mean()),
        ks_statistic=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
        log_likelihood=loglik,
        frozen=frozen,
    )


def fit_exponential(samples: Sequence[float]) -> DistributionFit:
    """MLE exponential fit (loc fixed at 0): rate = 1/mean."""
    from scipy import stats as sps

    arr = _validate(samples)
    scale = float(arr.mean())
    if scale <= 0:
        raise ValueError("cannot fit an exponential to all-zero samples")
    frozen = sps.expon(loc=0.0, scale=scale)
    return _make_fit("exponential", frozen, (0.0, scale), arr)


def fit_shifted_exponential(samples: Sequence[float]) -> DistributionFit:
    """MLE shifted exponential: loc = min(sample), scale = mean excess.

    The location estimate is the standard MLE (sample minimum); a small
    shrinkage keeps the likelihood finite at the smallest observation.
    """
    from scipy import stats as sps

    arr = _validate(samples)
    loc = float(arr.min())
    excess = float(arr.mean() - loc)
    if excess <= 0:
        # degenerate: all samples (nearly) equal; give a tiny scale
        excess = max(1e-12, abs(loc) * 1e-9 + 1e-12)
    # shrink loc slightly so the density is positive at the minimum sample,
    # but never below zero — runtimes are non-negative, and a negative
    # location would corrupt E[min of k] at large k
    loc = max(0.0, loc - excess / max(2, len(arr)))
    frozen = sps.expon(loc=loc, scale=excess)
    return _make_fit("shifted_exponential", frozen, (loc, excess), arr)


def fit_lognormal(samples: Sequence[float]) -> DistributionFit:
    """MLE lognormal fit with loc = 0 (requires strictly positive samples)."""
    from scipy import stats as sps

    arr = _validate(samples)
    if np.any(arr <= 0):
        raise ValueError("lognormal fit requires strictly positive samples")
    shape, loc, scale = sps.lognorm.fit(arr, floc=0.0)
    frozen = sps.lognorm(shape, loc=loc, scale=scale)
    return _make_fit("lognormal", frozen, (shape, loc, scale), arr)


_FITTERS: dict[str, Callable[[Sequence[float]], DistributionFit]] = {
    "exponential": fit_exponential,
    "shifted_exponential": fit_shifted_exponential,
    "lognormal": fit_lognormal,
}


def degenerate_reason(
    samples: Sequence[float], min_samples: int = MIN_FIT_SAMPLES
) -> str | None:
    """Why ``samples`` cannot support a parametric fit (``None`` = they can).

    The online refit loop feeds whatever telemetry produced — one
    observation, a burst of identical cache-hit walls, all-zero stub
    runtimes — so degeneracy is an expected state, not a caller bug.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1:
        return f"expected a 1-D sample array, got shape {arr.shape}"
    if arr.size < min_samples:
        return f"need at least {min_samples} samples, got {arr.size}"
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        return "samples must be finite and non-negative"
    hi = float(arr.max())
    if hi <= 1e-12:
        return "all samples are (near) zero"
    if float(arr.max() - arr.min()) <= 1e-9 * max(hi, 1.0):
        return f"samples are constant at {hi:.4g}"
    return None


def degenerate_fit(samples: Sequence[float]) -> DistributionFit:
    """A labeled point-mass stand-in fit for degenerate samples.

    The ``"degenerate"`` name marks it as *not* a real characterization:
    an exponential of negligible scale pinned at the sample mean, so
    quantiles, survival probabilities and ``expected_min`` stay finite
    and sensible (``E[min_k] ~ mean`` for every ``k`` — no predicted
    speedup, which is the honest answer when all evidence is one point).
    """
    from scipy import stats as sps

    arr = np.asarray(samples, dtype=np.float64).ravel()
    finite = arr[np.isfinite(arr)]
    loc = float(max(0.0, finite.mean())) if finite.size else 0.0
    scale = max(1e-12, abs(loc) * 1e-9)
    frozen = sps.expon(loc=loc, scale=scale)
    return DistributionFit(
        name="degenerate",
        params=(loc, scale),
        mean=float(frozen.mean()),
        ks_statistic=math.nan,
        ks_pvalue=math.nan,
        log_likelihood=math.nan,
        frozen=frozen,
    )


def refreeze(name: str, params: Sequence[float]) -> DistributionFit:
    """Rebuild a :class:`DistributionFit` from its ``(name, params)`` pair.

    The inverse of persisting a fit as JSON (goodness-of-fit statistics
    are not recoverable and come back as NaN): (shifted) exponentials and
    degenerate point masses refreeze as ``expon(loc, scale)``, lognormals
    as ``lognorm(shape, loc, scale)``.
    """
    from scipy import stats as sps

    values = tuple(float(p) for p in params)
    if name in ("exponential", "shifted_exponential", "degenerate"):
        if len(values) != 2:
            raise ValueError(f"{name} expects (loc, scale), got {values}")
        frozen = sps.expon(loc=values[0], scale=max(values[1], 1e-12))
    elif name == "lognormal":
        if len(values) != 3:
            raise ValueError(
                f"lognormal expects (shape, loc, scale), got {values}"
            )
        frozen = sps.lognorm(max(values[0], 1e-12), loc=values[1], scale=values[2])
    else:
        raise ValueError(
            f"unknown distribution family {name!r}; known: "
            f"{sorted(_FITTERS) + ['degenerate']}"
        )
    return DistributionFit(
        name=name,
        params=values,
        mean=float(frozen.mean()),
        ks_statistic=math.nan,
        ks_pvalue=math.nan,
        log_likelihood=math.nan,
        frozen=frozen,
    )


def best_fit(
    samples: Sequence[float],
    candidates: Sequence[str] = ("exponential", "shifted_exponential", "lognormal"),
    *,
    on_degenerate: str = "raise",
) -> DistributionFit:
    """Fit every candidate family and return the lowest-KS-distance fit.

    Families whose preconditions fail (e.g. lognormal with zero samples)
    are skipped; at least one candidate must succeed.

    Degenerate inputs — constant samples, all-near-zero samples, or fewer
    than :data:`MIN_FIT_SAMPLES` values — never reach scipy's *MLE paths*
    (which emit RuntimeWarnings and NaNs there).  With the default
    ``on_degenerate="raise"`` they raise
    :class:`~repro.errors.DegenerateSamplesError` naming the reason
    without loading scipy at all; with ``on_degenerate="fallback"`` they
    return the labeled point-mass :func:`degenerate_fit` instead, which is
    what the online refit loop uses so a cold-start model is usable rather
    than an exception.  That point mass is a frozen ``scipy.stats.expon``,
    so in a process that observes before it can fit, the cold-start
    fallback — not the first real fit — is what first loads the library.
    """
    if on_degenerate not in ("raise", "fallback"):
        raise ValueError(
            f"on_degenerate must be 'raise' or 'fallback', got {on_degenerate!r}"
        )
    reason = degenerate_reason(samples)
    if reason is not None:
        arr = np.asarray(samples, dtype=np.float64)
        if on_degenerate == "fallback" and arr.ndim == 1 and arr.size > 0:
            return degenerate_fit(arr[np.isfinite(arr)])
        raise DegenerateSamplesError(
            f"cannot fit a runtime distribution: {reason}"
        )
    fits = []
    errors = []
    for name in candidates:
        if name not in _FITTERS:
            raise ValueError(
                f"unknown distribution family {name!r}; "
                f"known: {sorted(_FITTERS)}"
            )
        try:
            with warnings.catch_warnings():
                # scipy MLE internals warn on flat likelihoods; degenerate
                # shapes were filtered above, so remaining warnings are
                # noise the online refit loop must not spam logs with
                warnings.simplefilter("ignore")
                fit = _FITTERS[name](samples)
        except ValueError as err:
            errors.append(f"{name}: {err}")
            continue
        if math.isfinite(fit.ks_statistic):
            fits.append(fit)
        else:
            errors.append(f"{name}: non-finite KS statistic")
    if not fits:
        if on_degenerate == "fallback":
            return degenerate_fit(samples)
        raise DegenerateSamplesError(
            "no candidate distribution could be fitted: " + "; ".join(errors)
        )
    return min(fits, key=lambda f: f.ks_statistic)
