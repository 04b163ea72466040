"""Statistical comparison of two solvers / parallel schemes.

Local-search runtimes are heavy-tailed, so mean-based eyeballing misleads;
these helpers wrap the standard nonparametric machinery used to compare
Las Vegas algorithms:

- Mann-Whitney U (rank) test on two runtime samples,
- bootstrap confidence interval of the median ratio,
- pairwise win rate for seed-matched designs (the same master seed given
  to both contenders, as ``bench_abl_cooperation`` does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.util.rng import SeedLike, as_generator

__all__ = ["ComparisonResult", "compare_runtimes", "paired_win_rate"]


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of comparing runtime samples A vs B (smaller is better).

    ``median_ratio`` is ``median(A) / median(B)`` — below 1 means A is
    faster; the CI comes from a percentile bootstrap.  ``p_value`` is the
    two-sided Mann-Whitney U probability of the observed rank separation
    under exchangeability.
    """

    n_a: int
    n_b: int
    median_a: float
    median_b: float
    median_ratio: float
    ratio_ci_low: float
    ratio_ci_high: float
    u_statistic: float
    p_value: float

    @property
    def significant(self) -> bool:
        """Two-sided significance at the conventional 5% level."""
        return self.p_value < 0.05

    def verdict(self, name_a: str = "A", name_b: str = "B") -> str:
        """A one-line human-readable reading of the comparison."""
        if not self.significant:
            return (
                f"{name_a} vs {name_b}: statistical tie "
                f"(median ratio {self.median_ratio:.2f}, p={self.p_value:.3f})"
            )
        winner, loser = (
            (name_a, name_b) if self.median_a < self.median_b else (name_b, name_a)
        )
        factor = max(self.median_ratio, 1 / self.median_ratio) if self.median_ratio > 0 else float("inf")
        return (
            f"{winner} beats {loser} (median factor {factor:.2f}, "
            f"p={self.p_value:.4f})"
        )


def compare_runtimes(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    *,
    n_boot: int = 2000,
    alpha: float = 0.05,
    rng: SeedLike = None,
) -> ComparisonResult:
    """Nonparametric comparison of two independent runtime samples."""
    from scipy import stats as sps

    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size < 2 or b.size < 2:
        raise ValueError("need two 1-D samples with at least 2 values each")
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("runtimes must be non-negative")
    gen = as_generator(rng)
    med_a, med_b = float(np.median(a)), float(np.median(b))
    if med_b == 0:
        raise ValueError("median of sample B is zero; ratio undefined")
    u_stat, p_value = sps.mannwhitneyu(a, b, alternative="two-sided")

    ratios = np.empty(n_boot)
    for i in range(n_boot):
        ra = np.median(a[gen.integers(0, a.size, a.size)])
        rb = np.median(b[gen.integers(0, b.size, b.size)])
        ratios[i] = ra / rb if rb > 0 else np.inf
    finite = ratios[np.isfinite(ratios)]
    if finite.size == 0:
        lo = hi = float("inf")
    else:
        lo, hi = np.percentile(finite, [100 * alpha / 2, 100 * (1 - alpha / 2)])
    return ComparisonResult(
        n_a=a.size,
        n_b=b.size,
        median_a=med_a,
        median_b=med_b,
        median_ratio=med_a / med_b,
        ratio_ci_low=float(lo),
        ratio_ci_high=float(hi),
        u_statistic=float(u_stat),
        p_value=float(p_value),
    )


def paired_win_rate(
    sample_a: Sequence[float], sample_b: Sequence[float]
) -> tuple[float, int, int, int]:
    """Win rate of A over B on seed-matched pairs (smaller is better).

    Returns ``(win_rate, wins, losses, ties)`` where the rate counts ties
    as half a win.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("paired comparison needs equal-length 1-D samples")
    wins = int(np.sum(a < b))
    losses = int(np.sum(a > b))
    ties = int(np.sum(a == b))
    rate = (wins + 0.5 * ties) / a.size
    return rate, wins, losses, ties
