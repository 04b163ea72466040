"""Batched random-tie selection, stream-compatible with the scalar helpers.

The scalar engine draws selection randomness through
:mod:`repro.core.selection`: one ``rng.integers(0, n_candidates)`` call per
selection *iff* the extreme value is tied, none otherwise.  The batched
helpers below reproduce that call pattern exactly per lane — the max/min and
tie detection are vectorized across lanes, and only tied lanes touch their
generator — so lane ``l`` of a vector walk consumes its RNG stream in the
same order as the scalar walk with the same seed.  That property is what the
bit-identical trajectory tests pin down.

Every row of a batch is a live lane, so the helpers take whole ``(k, n)``
matrices and answer with *flat* indices ``lane * n + variable`` — the form
the engine writes marks and configurations through.  ``bounds`` is
``arange(k + 1) * n`` (row ``l`` owns the flat range
``bounds[l]:bounds[l + 1]``) and ``integers[l]`` is lane ``l``'s bound
``Generator.integers``; the engine keeps both per batch width.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["masked_argmax_lanes", "argmin_lanes"]


def _pick_candidates(
    ties: np.ndarray,
    bounds: np.ndarray,
    integers: Sequence[Callable[[int, int], int]],
) -> tuple[np.ndarray, list[int]]:
    """One candidate per lane from the boolean candidate matrix ``ties``.

    A lane with a single candidate takes it without a draw; a lane with
    ``c > 1`` draws ``integers(0, c)`` — the one call the scalar helpers
    make — and takes the c-th candidate in ascending index order.  A lane
    with no candidate draws nothing, is named in the returned list and
    answers with its own variable 0.
    """
    # one pass over the flattened matrix: candidates come out as flat
    # indices grouped by lane in ascending variable order, and the lane
    # boundaries are a binary search away
    flat = ties.reshape(-1).nonzero()[0]
    edges = flat.searchsorted(bounds)
    empty: list[int] = []
    for lane, count in enumerate((edges[1:] - edges[:-1]).tolist()):
        if count > 1:
            edges[lane] += integers[lane](0, count)
        elif count == 0:
            empty.append(lane)
    if not empty:
        return flat[edges[:-1]], empty
    picks = bounds[:-1].copy()
    some = np.ones(len(picks), dtype=bool)
    some[empty] = False
    picks[some] = flat[edges[:-1][some]]
    return picks, empty


def masked_argmax_lanes(
    values: np.ndarray,
    mask: np.ndarray,
    bounds: np.ndarray,
    integers: Sequence[Callable[[int, int], int]],
) -> tuple[np.ndarray, list[int]]:
    """Per-lane ``masked_argmax_random_tie`` over a ``(k, n)`` batch.

    Returns the flat index of every lane's pick and the lanes whose mask
    admits no candidate (see :func:`_pick_candidates`).  ``values`` is
    scratch: its masked-out entries are overwritten in place.
    """
    if values.dtype.kind == "f":
        np.copyto(values, -np.inf, where=~mask)
    else:
        # integer errors are non-negative (count-based costs), so zeroing
        # the masked-out entries shields them — a SIMD multiply, much
        # cheaper than a branchy masked fill
        np.multiply(values, mask, out=values)
    ties = values == values.max(axis=1)[:, None]
    # the shield value can equal the maximum (a zero maximum, or a lane
    # with nothing admissible): only admissible entries are candidates
    ties &= mask
    return _pick_candidates(ties, bounds, integers)


def argmin_lanes(
    values: np.ndarray,
    bounds: np.ndarray,
    integers: Sequence[Callable[[int, int], int]],
    skip: Sequence[int] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Per-lane ``argmin_random_tie`` over a ``(k, n)`` batch.

    Returns the flat index of every lane's pick and the ``(k,)`` row
    minima.  Lanes in ``skip`` select nothing: they draw nothing and their
    two answers are meaningless.
    """
    best = values.min(axis=1)
    ties = values == best[:, None]
    if skip:
        ties[skip] = False
    return _pick_candidates(ties, bounds, integers)[0], best
