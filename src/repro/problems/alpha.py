"""The "alpha" cryptarithm from the C adaptive-search distribution.

Assign the values ``1..26`` to the letters ``a..z`` (a permutation) so that
the letter-sums of twenty music words match given totals, e.g.
``b+a+l+l+e+t = 45``.  A classic linear-equation CSP with a single solution.

Cost = sum over equations of ``|lhs - rhs|``.  The incremental state keeps
the residual vector ``A @ values - rhs``; swapping two letters shifts every
residual by ``(count_i - count_j) * (v_j - v_i)``, so the all-``j`` delta
vector is one small matrix operation.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.errors import ProblemError
from repro.problems.base import Problem, WalkState
from repro.problems.registry import register_problem

__all__ = ["AlphaProblem", "AlphaState", "ALPHA_EQUATIONS"]

#: (word, total) pairs of the classic instance
ALPHA_EQUATIONS: tuple[tuple[str, int], ...] = (
    ("ballet", 45),
    ("cello", 43),
    ("concert", 74),
    ("flute", 30),
    ("fugue", 50),
    ("glee", 66),
    ("jazz", 58),
    ("lyre", 47),
    ("oboe", 53),
    ("opera", 65),
    ("polka", 59),
    ("quartet", 50),
    ("saxophone", 134),
    ("scale", 51),
    ("solo", 37),
    ("song", 61),
    ("soprano", 82),
    ("theme", 72),
    ("violin", 100),
    ("waltz", 34),
)


class AlphaState(WalkState):
    """Walk state caching the residual of every equation."""

    __slots__ = ("residuals",)

    def __init__(self, config: np.ndarray, cost: float, residuals: np.ndarray) -> None:
        super().__init__(config, cost)
        self.residuals = residuals


@register_problem("alpha")
class AlphaProblem(Problem):
    """The 26-letter music cryptarithm (values are a permutation of 1..26)."""

    family = "alpha"
    value_base = 1

    def __init__(
        self, equations: tuple[tuple[str, int], ...] = ALPHA_EQUATIONS
    ) -> None:
        if not equations:
            raise ProblemError("alpha needs at least one equation")
        self.equations = tuple(equations)
        n_eq = len(self.equations)
        self._matrix = np.zeros((n_eq, 26), dtype=np.int64)
        self._rhs = np.zeros(n_eq, dtype=np.int64)
        for row, (word, total) in enumerate(self.equations):
            for ch in word.lower():
                if not "a" <= ch <= "z":
                    raise ProblemError(f"word {word!r} contains non-letter {ch!r}")
                self._matrix[row, ord(ch) - ord("a")] += 1
            self._rhs[row] = total

    @property
    def size(self) -> int:
        return 26

    @property
    def name(self) -> str:
        return f"{self.family}-{len(self.equations)}eq"

    def spec(self) -> Mapping[str, Any]:
        return {"family": self.family, "equations": len(self.equations)}

    def default_solver_parameters(self) -> dict[str, Any]:
        return {
            "freeze_loc_min": 5,
            "reset_limit": 5,
            "reset_fraction": 0.25,
            "prob_select_loc_min": 0.5,
            "restart_limit": 10**9,
        }

    # ------------------------------------------------------------------
    def _residuals(self, config: np.ndarray) -> np.ndarray:
        return self._matrix @ config - self._rhs

    def cost(self, config: np.ndarray) -> float:
        config = np.asarray(config, dtype=np.int64)
        return float(np.abs(self._residuals(config)).sum())

    # ------------------------------------------------------------------
    def init_state(self, config: np.ndarray) -> AlphaState:
        self.check_configuration(config)
        cfg = np.array(config, dtype=np.int64, copy=True)
        res = self._residuals(cfg)
        return AlphaState(cfg, float(np.abs(res).sum()), res)

    def swap_deltas(self, state: AlphaState, i: int) -> np.ndarray:
        """Residual shift for every candidate swap, one matrix op."""
        cfg = state.config
        # coeff difference per equation and candidate letter j
        coeff_diff = self._matrix[:, i : i + 1] - self._matrix  # (n_eq, 26)
        value_diff = (cfg - cfg[i]).astype(np.int64)  # v_j - v_i per j
        new_res = state.residuals[:, None] + coeff_diff * value_diff[None, :]
        new_cost = np.abs(new_res).sum(axis=0).astype(np.float64)
        deltas = new_cost - state.cost
        deltas[i] = 0.0
        return deltas

    def swap_delta(self, state: AlphaState, i: int, j: int) -> float:
        if i == j:
            return 0.0
        coeff_diff = self._matrix[:, i] - self._matrix[:, j]
        dv = int(state.config[j] - state.config[i])
        new_res = state.residuals + coeff_diff * dv
        return float(np.abs(new_res).sum() - state.cost)

    def apply_swap(
        self, state: AlphaState, i: int, j: int, delta: float | None = None
    ) -> None:
        if i == j:
            return
        coeff_diff = self._matrix[:, i] - self._matrix[:, j]
        dv = int(state.config[j] - state.config[i])
        state.residuals += coeff_diff * dv
        cfg = state.config
        cfg[i], cfg[j] = cfg[j], cfg[i]
        state.cost = float(np.abs(state.residuals).sum())

    def variable_errors(self, state: AlphaState) -> np.ndarray:
        """Letters inherit |residual| of the equations they appear in."""
        abs_res = np.abs(state.residuals).astype(np.float64)
        return (self._matrix != 0).astype(np.float64).T @ abs_res

    # ------------------------------------------------------------------
    def assignment_table(self, config: np.ndarray) -> dict[str, int]:
        """Letter -> value mapping for display."""
        return {chr(ord("a") + k): int(config[k]) for k in range(26)}
