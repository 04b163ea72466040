"""Random-tie-breaking selection primitives.

Adaptive Search repeatedly needs "the index of the maximum (or minimum)
entry, ties broken uniformly at random" — deterministic ``argmax`` would bias
walks toward low indices and, worse, make supposedly independent parallel
walks correlated through shared tie-breaking.  These helpers define when
selection draws randomness: one ``rng.integers(0, ties)`` per tie, nothing
for a unique extremum.  The baseline solvers call them;
:class:`repro.core.session.AdaptiveSearchSession` runs the same two
selections inline, on the same draws (``tests/core/test_golden_walks.py``
and ``tests/vector/test_equivalence.py`` hold it to that).
"""

from __future__ import annotations

import numpy as np

__all__ = ["argmax_random_tie", "argmin_random_tie", "masked_argmax_random_tie"]


def argmax_random_tie(values: np.ndarray, rng: np.random.Generator) -> int:
    """Index of a maximal entry, ties broken uniformly."""
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("argmax of empty array")
    best = values.max()
    candidates = np.flatnonzero(values == best)
    if len(candidates) == 1:
        return int(candidates[0])
    return int(candidates[rng.integers(0, len(candidates))])


def argmin_random_tie(values: np.ndarray, rng: np.random.Generator) -> int:
    """Index of a minimal entry, ties broken uniformly."""
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("argmin of empty array")
    best = values.min()
    candidates = np.flatnonzero(values == best)
    if len(candidates) == 1:
        return int(candidates[0])
    return int(candidates[rng.integers(0, len(candidates))])


def masked_argmax_random_tie(
    values: np.ndarray, mask: np.ndarray, rng: np.random.Generator
) -> int:
    """Index of a maximal entry among ``mask``-true positions (random ties).

    Raises :class:`ValueError` when the mask admits no candidate.
    """
    values = np.asarray(values)
    mask = np.asarray(mask, dtype=bool)
    if values.shape != mask.shape:
        raise ValueError(
            f"values shape {values.shape} != mask shape {mask.shape}"
        )
    eligible = np.flatnonzero(mask)
    if eligible.size == 0:
        raise ValueError("mask admits no candidate")
    sub = values[eligible]
    best = sub.max()
    candidates = eligible[sub == best]
    if len(candidates) == 1:
        return int(candidates[0])
    return int(candidates[rng.integers(0, len(candidates))])
