"""Runtime-distribution statistics.

Independent multi-walk speedup is entirely determined by the sequential
runtime distribution: ``speedup(k) = E[T] / E[min(T_1..T_k)]``.  This package
provides the machinery to characterize measured distributions (ECDF, MLE
fits, goodness-of-fit), compute expected minima in closed form or
numerically, and build the speedup curves the paper plots.

The central theoretical facts this reproduces (and the ablation benchmarks
demonstrate):

- an exponential runtime distribution gives **ideal linear speedup**
  (memorylessness: ``E[min_k] = E[T] / k``) — the Costas Array regime;
- a *shifted* exponential (minimum runtime ``t0 > 0``) saturates at
  ``E[T] / t0`` — the CSPLib-benchmark regime;
- a lognormal body saturates even earlier — what heavy preprocessing or
  tiny instances look like.

Import rule: no module of this package imports scipy at module level — the
functions that call it (the fitters, ``degenerate_fit``, ``refreeze``,
``compare_runtimes``) import it themselves, so importing ``repro.stats``
costs no more than numpy and the first fit in a process pays the load.
"""

from repro.stats.ecdf import ECDF
from repro.stats.fitting import (
    DistributionFit,
    best_fit,
    degenerate_fit,
    degenerate_reason,
    fit_exponential,
    fit_lognormal,
    fit_shifted_exponential,
    refreeze,
)
from repro.stats.order_stats import (
    empirical_expected_min,
    expected_min,
    predicted_speedup,
)
from repro.stats.bootstrap import bootstrap_ci
from repro.stats.comparison import ComparisonResult, compare_runtimes, paired_win_rate
from repro.stats.rtd import (
    ExponentialityReport,
    exponentiality,
    parallel_rtd_points,
    rtd_chart,
    rtd_points,
)
from repro.stats.speedup import SpeedupCurve, speedup_curve_from_samples

__all__ = [
    "ECDF",
    "DistributionFit",
    "fit_exponential",
    "fit_shifted_exponential",
    "fit_lognormal",
    "degenerate_fit",
    "degenerate_reason",
    "refreeze",
    "best_fit",
    "expected_min",
    "empirical_expected_min",
    "predicted_speedup",
    "bootstrap_ci",
    "ComparisonResult",
    "compare_runtimes",
    "paired_win_rate",
    "rtd_points",
    "parallel_rtd_points",
    "rtd_chart",
    "exponentiality",
    "ExponentialityReport",
    "SpeedupCurve",
    "speedup_curve_from_samples",
]
