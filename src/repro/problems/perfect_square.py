"""Perfect Square placement (CSPLib prob009).

Pack a given multiset of squares into a master rectangle exactly (no overlap,
no empty cell).  The classic instance is the order-21 simple perfect squared
square: 21 squares of distinct sizes tiling a 112 x 112 master.

Local-search formulation
------------------------
The C benchmark drives placement coordinates directly; for the permutation
engine we use the standard *placement-order* encoding from strip-packing
local search: the configuration is a permutation of the square indices, and a
deterministic **lowest-gap decoder** converts it to a packing:

1. maintain the skyline (per-column filled height);
2. find the lowest skyline level, leftmost gap (maximal run of columns at
   that level);
3. if the next square fits the gap width, place it flush at the gap's left
   edge; otherwise the gap can never be filled — raise it to the lower of
   its two neighbouring levels and count the raised cells as *waste*;
4. cost = waste + area overflowing the master's top edge.

For an exact tiling, ordering its squares by (y, x) of their bottom-left
corner makes the decoder reconstruct the tiling, so zero-cost permutations
exist iff the instance is packable, and cost 0 certifies a perfect packing
(area conservation: no waste and no overflow forces every cell covered).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.errors import ProblemError
from repro.problems.base import Problem, WalkState
from repro.problems.registry import register_problem

__all__ = [
    "SquarePackingInstance",
    "PerfectSquareProblem",
    "PerfectSquareState",
    "Placement",
]

#: the order-21 simple perfect squared square (side 112), Duijvestijn 1978
CLASSIC21_SIZES = (50, 42, 37, 35, 33, 29, 27, 25, 24, 19, 18, 17, 16, 15, 11, 9, 8, 7, 6, 4, 2)
#: Moron's 32x33 squared rectangle (order 9)
MORON_SIZES = (18, 15, 14, 10, 9, 8, 7, 4, 1)


@dataclass(frozen=True)
class SquarePackingInstance:
    """A packing instance: master ``width x height`` and square sizes."""

    width: int
    height: int
    sizes: tuple[int, ...]
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ProblemError(
                f"master rectangle must be positive, got {self.width}x{self.height}"
            )
        if not self.sizes:
            raise ProblemError("instance needs at least one square")
        if any(s <= 0 for s in self.sizes):
            raise ProblemError(f"square sizes must be positive: {self.sizes}")
        if max(self.sizes) > min(self.width, self.height):
            raise ProblemError(
                f"square of size {max(self.sizes)} cannot fit the "
                f"{self.width}x{self.height} master"
            )
        area = sum(s * s for s in self.sizes)
        if area != self.width * self.height:
            raise ProblemError(
                f"square areas sum to {area} but master area is "
                f"{self.width * self.height}; exact packing impossible"
            )

    @classmethod
    def classic21(cls) -> "SquarePackingInstance":
        """Order-21 perfect squared square, side 112."""
        return cls(112, 112, CLASSIC21_SIZES, name="classic21")

    @classmethod
    def moron(cls) -> "SquarePackingInstance":
        """Moron's 32x33 squared rectangle (order 9) — a small instance."""
        return cls(33, 32, MORON_SIZES, name="moron")

    @classmethod
    def grid(cls, k: int, s: int = 1) -> "SquarePackingInstance":
        """``k*k`` equal squares of side ``s`` tiling a ``(k*s)^2`` master."""
        if k <= 0 or s <= 0:
            raise ProblemError(f"grid instance needs k, s > 0, got {k}, {s}")
        return cls(k * s, k * s, (s,) * (k * k), name=f"grid{k}x{s}")


@dataclass
class Placement:
    """Where one square ended up, in decoder order."""

    square: int  # index into instance.sizes
    x: int
    y: int
    size: int
    overflow: int  # area of this square above the master's top edge


@dataclass
class _DecodeResult:
    cost: float
    waste: float
    overflow: float
    placements: list[Placement] = field(default_factory=list)
    per_square_error: np.ndarray | None = None


class PerfectSquareState(WalkState):
    """Walk state caching the latest decode of the configuration."""

    __slots__ = ("decode",)

    def __init__(self, config: np.ndarray, decode: _DecodeResult) -> None:
        super().__init__(config, decode.cost)
        self.decode = decode


@register_problem("perfect_square")
class PerfectSquareProblem(Problem):
    """Perfect square/rectangle packing via permutation + lowest-gap decoder."""

    family = "perfect_square"

    def __init__(self, instance: SquarePackingInstance | str | None = None) -> None:
        if instance is None or instance == "moron":
            instance = SquarePackingInstance.moron()
        elif instance == "classic21":
            instance = SquarePackingInstance.classic21()
        elif isinstance(instance, str):
            raise ProblemError(
                f"unknown named instance {instance!r}; use 'moron', 'classic21' "
                "or pass a SquarePackingInstance"
            )
        self.instance = instance
        self._sizes = np.asarray(instance.sizes, dtype=np.int64)

    @property
    def size(self) -> int:
        return len(self.instance.sizes)

    @property
    def name(self) -> str:
        return f"{self.family}-{self.instance.name}"

    def spec(self) -> Mapping[str, Any]:
        return {
            "family": self.family,
            "instance": self.instance.name,
            "width": self.instance.width,
            "height": self.instance.height,
            "order": len(self.instance.sizes),
        }

    def default_solver_parameters(self) -> dict[str, Any]:
        n = self.size
        return {
            "freeze_loc_min": 5,
            "reset_limit": max(2, n // 2),
            "reset_fraction": 0.4,
            "prob_select_loc_min": 0.5,
            # decoder landscapes benefit from restarts
            "restart_limit": 1000,
        }

    # ------------------------------------------------------------------
    # decoder
    # ------------------------------------------------------------------
    def decode(self, config: np.ndarray) -> _DecodeResult:
        """Run the lowest-gap decoder; see module docstring."""
        inst = self.instance
        W, H = inst.width, inst.height
        heights = np.zeros(W, dtype=np.int64)
        waste = 0
        n = self.size
        per_square = np.zeros(n, dtype=np.float64)
        placements: list[Placement] = []
        for pos in range(n):
            sq = int(config[pos])
            s = int(self._sizes[sq])
            # fill unusable gaps until the square fits the lowest one
            while True:
                y = int(heights.min())
                x0 = int(np.argmin(heights))
                x1 = x0
                while x1 < W and heights[x1] == y:
                    x1 += 1
                gap = x1 - x0
                if s <= gap:
                    break
                left = int(heights[x0 - 1]) if x0 > 0 else None
                right = int(heights[x1]) if x1 < W else None
                if left is None and right is None:
                    raise ProblemError(
                        f"square {s} wider than master width {W}"
                    )  # pragma: no cover - instance validation prevents this
                new_h = min(v for v in (left, right) if v is not None)
                waste += gap * (new_h - y)
                per_square[sq] += gap * (new_h - y)
                heights[x0:x1] = new_h
            over = max(0, y + s - H) * s
            per_square[sq] += over
            heights[x0 : x0 + s] = y + s
            placements.append(Placement(square=sq, x=x0, y=y, size=s, overflow=over))
        overflow = float(sum(p.overflow for p in placements))
        cost = float(waste) + overflow
        return _DecodeResult(
            cost=cost,
            waste=float(waste),
            overflow=overflow,
            placements=placements,
            per_square_error=per_square,
        )

    # ------------------------------------------------------------------
    # problem protocol
    # ------------------------------------------------------------------
    def cost(self, config: np.ndarray) -> float:
        config = np.asarray(config, dtype=np.int64)
        return self.decode(config).cost

    def init_state(self, config: np.ndarray) -> PerfectSquareState:
        self.check_configuration(config)
        cfg = np.array(config, dtype=np.int64, copy=True)
        return PerfectSquareState(cfg, self.decode(cfg))

    def apply_swap(
        self,
        state: PerfectSquareState,
        i: int,
        j: int,
        delta: float | None = None,
    ) -> None:
        cfg = state.config
        cfg[i], cfg[j] = cfg[j], cfg[i]
        state.decode = self.decode(cfg)
        state.cost = state.decode.cost

    def variable_errors(self, state: PerfectSquareState) -> np.ndarray:
        """Error of position ``i`` = waste+overflow charged to its square."""
        per_square = state.decode.per_square_error
        assert per_square is not None
        return per_square[state.config]

    def resync_state(self, state: PerfectSquareState) -> None:
        state.decode = self.decode(state.config)
        state.cost = state.decode.cost

    # ------------------------------------------------------------------
    def render(self, config: np.ndarray) -> str:
        """ASCII occupancy grid of the decoded packing (letters per square)."""
        inst = self.instance
        decode = self.decode(np.asarray(config, dtype=np.int64))
        grid = [["." for _ in range(inst.width)] for _ in range(inst.height)]
        glyphs = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
        for p in decode.placements:
            glyph = glyphs[p.square % len(glyphs)]
            for yy in range(p.y, min(p.y + p.size, inst.height)):
                for xx in range(p.x, p.x + p.size):
                    grid[yy][xx] = glyph
        return "\n".join("".join(row) for row in reversed(grid))
