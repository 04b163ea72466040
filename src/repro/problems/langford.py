"""Langford's problem L(s, n) (CSPLib prob024).

Arrange ``s`` occurrences of each number ``1..n`` in a sequence of length
``s*n`` such that consecutive occurrences of ``k`` are exactly ``k+1``
positions apart (``k`` other numbers between them).  ``s = 2`` is the
classic pairing problem the C ``langford.c`` benchmark ships.

Permutation model: the configuration maps occurrence index to sequence
position — occurrences ``s*k .. s*k+s-1`` belong to number ``k+1``.  Error
of number ``m``: the sum over its consecutive (sorted) occurrence positions
of ``|gap - (m+1)|``; cost is the sum over numbers.  A swap touches at most
two numbers, so deltas are O(s log s).

For ``s = 2`` solutions exist iff ``n ≡ 0 or 3 (mod 4)`` (enforced by
default); for higher multiplicities existence is sparse (e.g. ``L(3, n)``
needs ``n ≡ 0, 1, 8`` mod 9-ish families) and is not checked — pass
whatever instance you want to probe.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.errors import ProblemError
from repro.problems.base import Problem, WalkState
from repro.problems.registry import register_problem

__all__ = ["LangfordProblem", "LangfordState"]


class LangfordState(WalkState):
    """Walk state caching the per-number error."""

    __slots__ = ("number_errors",)

    def __init__(
        self, config: np.ndarray, cost: float, number_errors: np.ndarray
    ) -> None:
        super().__init__(config, cost)
        self.number_errors = number_errors


@register_problem("langford")
class LangfordProblem(Problem):
    """Langford sequence L(s, n); ``s * n`` variables."""

    family = "langford"

    def __init__(
        self, n: int = 8, s: int = 2, require_solvable: bool = True
    ) -> None:
        if n < 1:
            raise ProblemError(f"langford needs n >= 1, got {n}")
        if s < 2:
            raise ProblemError(f"langford needs s >= 2 occurrences, got {s}")
        if s == 2 and require_solvable and n % 4 not in (0, 3):
            raise ProblemError(
                f"L(2, {n}) has no solution (need n % 4 in {{0, 3}}); "
                "pass require_solvable=False to build it anyway"
            )
        self._n = int(n)
        self._s = int(s)

    @property
    def order(self) -> int:
        """The number of values ``n`` (the instance has ``s*n`` variables)."""
        return self._n

    @property
    def multiplicity(self) -> int:
        """Occurrences per number ``s``."""
        return self._s

    @property
    def size(self) -> int:
        return self._s * self._n

    @property
    def name(self) -> str:
        if self._s == 2:
            return f"{self.family}-{self._n}"
        return f"{self.family}-L({self._s},{self._n})"

    def spec(self) -> Mapping[str, Any]:
        return {"family": self.family, "n": self._n, "s": self._s}

    def default_solver_parameters(self) -> dict[str, Any]:
        return {
            "freeze_loc_min": 2,
            "reset_limit": max(1, self._n // 2),
            "reset_fraction": 0.3,
            "prob_select_loc_min": 0.5,
            "restart_limit": 10**9,
        }

    # ------------------------------------------------------------------
    def _error_of_positions(self, positions: np.ndarray, number: int) -> float:
        """Error of 0-based ``number`` given its occurrence positions."""
        ordered = np.sort(positions)
        required = number + 2
        return float(np.abs(np.diff(ordered) - required).sum())

    def _number_errors(self, config: np.ndarray) -> np.ndarray:
        grouped = config.reshape(self._n, self._s)
        ordered = np.sort(grouped, axis=1)
        required = (np.arange(self._n) + 2).reshape(-1, 1)
        return np.abs(np.diff(ordered, axis=1) - required).sum(axis=1).astype(
            np.float64
        )

    def cost(self, config: np.ndarray) -> float:
        config = np.asarray(config, dtype=np.int64)
        return float(self._number_errors(config).sum())

    # ------------------------------------------------------------------
    def init_state(self, config: np.ndarray) -> LangfordState:
        self.check_configuration(config)
        cfg = np.array(config, dtype=np.int64, copy=True)
        errors = self._number_errors(cfg)
        return LangfordState(cfg, float(errors.sum()), errors)

    def _error_of(self, cfg: np.ndarray, number: int) -> float:
        s = self._s
        return self._error_of_positions(cfg[s * number : s * number + s], number)

    def swap_delta(self, state: LangfordState, i: int, j: int) -> float:
        if i == j:
            return 0.0
        ni, nj = i // self._s, j // self._s
        if ni == nj:
            return 0.0  # swapping a number's own occurrences changes nothing
        cfg = state.config
        cfg[i], cfg[j] = cfg[j], cfg[i]
        delta = (
            self._error_of(cfg, ni)
            - float(state.number_errors[ni])
            + self._error_of(cfg, nj)
            - float(state.number_errors[nj])
        )
        cfg[i], cfg[j] = cfg[j], cfg[i]
        return delta

    def swap_deltas(self, state: LangfordState, i: int) -> np.ndarray:
        deltas = np.zeros(self.size, dtype=np.float64)
        for j in range(self.size):
            if j != i:
                deltas[j] = self.swap_delta(state, i, j)
        return deltas

    def apply_swap(
        self, state: LangfordState, i: int, j: int, delta: float | None = None
    ) -> None:
        if i == j:
            return
        cfg = state.config
        cfg[i], cfg[j] = cfg[j], cfg[i]
        for number in {i // self._s, j // self._s}:
            old = float(state.number_errors[number])
            new = self._error_of(cfg, number)
            state.number_errors[number] = new
            state.cost += new - old

    def variable_errors(self, state: LangfordState) -> np.ndarray:
        """All occurrences of a number inherit its error."""
        return np.repeat(state.number_errors, self._s)

    # ------------------------------------------------------------------
    def sequence(self, config: np.ndarray) -> list[int]:
        """The sequence of numbers (1-based) in position order."""
        seq = [0] * self.size
        for occ in range(self.size):
            seq[int(config[occ])] = occ // self._s + 1
        return seq
