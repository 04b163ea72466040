"""The problem protocol consumed by the solvers.

A :class:`Problem` is an immutable description of one instance (size,
constants, precomputed tables).  Per-walk mutable data lives in a
:class:`WalkState` created by :meth:`Problem.init_state`; the solver drives
the walk exclusively through the protocol below, so problems are free to
cache whatever makes their deltas incremental.

The contract mirrors the C adaptive-search library's benchmark plug-in API
(``Cost_Of_Solution``, ``Cost_On_Swap``, ``Executed_Swap``,
``Cost_If_Swap`` ...), translated to vectorized numpy:

``cost(config)``
    stateless full evaluation — the reference semantics.
``init_state(config)``
    build incremental caches for a walk starting at ``config``.
``swap_deltas(state, i)``
    cost change of swapping position ``i`` with *every* position ``j``
    (vector of length ``n``; entry ``i`` is 0).  The hot call.
``apply_swap(state, i, j, delta=None)``
    commit a swap, updating config, cost and caches incrementally.  A
    caller that has already priced the move hands its ``delta`` over.
``variable_errors(state)``
    per-variable error projection driving worst-variable selection.

Default implementations fall back to full re-evaluation so a new problem is
correct from day one and can be made incremental afterwards; property tests
in ``tests/problems`` assert incremental ≡ reference on random states.

Kernel tables that are a pure function of the instance parameters and are
not already built by ``__init__`` are ``functools.cached_property`` values:
the first walk builds them, construction stays cheap (a server builds a
problem per request) and :meth:`Problem.__getstate__` keeps them out of the
pickle, so an instance's content digest is the same before and after use.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property
from typing import Any, Mapping

import numpy as np

from repro.csp.model import Model
from repro.csp.permutation import check_permutation, random_partial_reset
from repro.errors import ProblemError
from repro.util.derived import content_state
from repro.util.rng import SeedLike, as_generator

__all__ = ["WalkState", "Problem", "ModelProblem"]


class WalkState:
    """Mutable search state of one walk.

    Attributes
    ----------
    config:
        current configuration (int64 vector, owned by the state).
    cost:
        current total cost, kept consistent by ``apply_swap``.

    Problems subclass this to add caches (row sums, difference counts, ...).
    """

    __slots__ = ("config", "cost")

    def __init__(self, config: np.ndarray, cost: float) -> None:
        self.config = config
        self.cost = cost

    def copy_config(self) -> np.ndarray:
        return self.config.copy()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(cost={self.cost}, n={len(self.config)})"


class Problem(ABC):
    """One benchmark instance; see module docstring for the protocol."""

    #: short family name, e.g. ``"costas"`` (set by subclasses)
    family: str = "problem"
    #: permutation base value (configs are permutations of base..base+n-1)
    value_base: int = 0

    @property
    @abstractmethod
    def size(self) -> int:
        """Number of decision variables ``n``."""

    @property
    def name(self) -> str:
        """Unique human-readable instance name, e.g. ``costas-12``."""
        return f"{self.family}-{self.size}"

    def spec(self) -> Mapping[str, Any]:
        """Instance parameters (used for cache keys and reports)."""
        return {"family": self.family, "size": self.size}

    def __getstate__(self) -> dict[str, Any]:
        return content_state(self)

    # ------------------------------------------------------------------
    # reference (stateless) semantics
    # ------------------------------------------------------------------
    @abstractmethod
    def cost(self, config: np.ndarray) -> float:
        """Full cost evaluation; 0 iff ``config`` solves the instance."""

    def is_solution(self, config: np.ndarray) -> bool:
        return self.cost(config) == 0

    def random_configuration(self, seed: SeedLike = None) -> np.ndarray:
        """Uniform random permutation of the value range."""
        rng = as_generator(seed)
        config = rng.permutation(self.size).astype(np.int64, copy=False)
        base = self.value_base
        if base:
            config += base
        return config

    def check_configuration(self, config: np.ndarray) -> None:
        """Validate a configuration; raise :class:`ProblemError` if invalid."""
        arr = np.asarray(config)
        if arr.shape != (self.size,):
            raise ProblemError(
                f"{self.name}: configuration has shape {arr.shape}, "
                f"expected ({self.size},)"
            )
        check_permutation(arr, base=self.value_base)

    # ------------------------------------------------------------------
    # incremental walk protocol (override for speed)
    # ------------------------------------------------------------------
    def init_state(self, config: np.ndarray) -> WalkState:
        self.check_configuration(config)
        cfg = np.array(config, dtype=np.int64, copy=True)
        return WalkState(cfg, self.cost(cfg))

    def swap_delta(self, state: WalkState, i: int, j: int) -> float:
        """Cost change of swapping positions ``i`` and ``j`` (not applied)."""
        if i == j:
            return 0.0
        cfg = state.config
        cfg[i], cfg[j] = cfg[j], cfg[i]
        try:
            new_cost = self.cost(cfg)
        finally:
            cfg[i], cfg[j] = cfg[j], cfg[i]
        return float(new_cost - state.cost)

    def swap_deltas(self, state: WalkState, i: int) -> np.ndarray:
        """Deltas of swapping ``i`` with every position (entry ``i`` = 0)."""
        n = self.size
        deltas = np.zeros(n, dtype=np.float64)
        for j in range(n):
            if j != i:
                deltas[j] = self.swap_delta(state, i, j)
        return deltas

    def apply_swap(
        self, state: WalkState, i: int, j: int, delta: float | None = None
    ) -> None:
        """Commit the swap; default recomputes cost from scratch.

        ``delta``, when given, must be ``swap_delta(state, i, j)`` on the
        state as it is now — the solver loops always hold it, having just
        selected the move by it.  An override may then add it to
        ``state.cost`` instead of pricing the move a second time; one that
        rebuilds its cost from its caches anyway is free to ignore it.
        """
        cfg = state.config
        cfg[i], cfg[j] = cfg[j], cfg[i]
        state.cost = self.cost(cfg)

    @abstractmethod
    def variable_errors(self, state: WalkState) -> np.ndarray:
        """Non-negative per-variable errors; all zero iff cost is zero."""

    def partial_reset(
        self, state: WalkState, fraction: float, rng: np.random.Generator
    ) -> None:
        """Perturb the walk (C library reset): random swaps, then re-sync."""
        random_partial_reset(state.config, fraction, rng)
        self.resync_state(state)

    def resync_state(self, state: WalkState) -> None:
        """Rebuild caches after an external modification of ``state.config``.

        The default rebuilds the state object in place via ``init_state``;
        problems with heavy caches may override with something cheaper.
        """
        fresh = self.init_state(state.config)
        state.config = fresh.config
        state.cost = fresh.cost
        for klass in type(fresh).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if slot not in ("config", "cost"):
                    setattr(state, slot, getattr(fresh, slot))

    # ------------------------------------------------------------------
    # solver tuning
    # ------------------------------------------------------------------
    def default_solver_parameters(self) -> dict[str, Any]:
        """Per-problem tuning (mirrors the per-benchmark defaults of the C
        library).  Keys match :class:`repro.core.config.AdaptiveSearchConfig`
        fields; the solver merges them under any explicit user settings."""
        return {}

    @cached_property
    def derived(self) -> dict[Any, Any]:
        """What a solver derives from this instance for a walk and keeps
        for the next one — the merged configuration
        (:meth:`~repro.core.config.AdaptiveSearchConfig.for_problem`), the
        compiled lane layout (:mod:`repro.vector.problems`) — keyed by the
        class that derives it.  An entry is a pure function of the
        instance and of the inputs it records beside its value (a base
        configuration, a batch width), so two threads that fill one at once
        store equal values; and, like every derived table, it is never
        pickled."""
        return {}

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.spec().items())
        return f"{type(self).__name__}({params})"


class ModelWalkState(WalkState):
    """Walk state for :class:`ModelProblem`: the per-constraint error cache
    and, beside it, the left-hand sides of the model's stacked linear block
    (:meth:`Model.linear_lhs`) that its swap kernels work from."""

    __slots__ = ("constraint_errors", "lhs")

    def __init__(
        self,
        config: np.ndarray,
        cost: float,
        constraint_errors: np.ndarray,
        lhs: np.ndarray,
    ) -> None:
        super().__init__(config, cost)
        self.constraint_errors = constraint_errors
        self.lhs = lhs


class ModelProblem(Problem):
    """Adapter exposing a declarative :class:`~repro.csp.model.Model` (with a
    single permutation array) through the problem protocol.

    The walk protocol is incremental: the state caches every constraint's
    current error and the linear block's left-hand sides; swap deltas price
    all linear constraints at once from the stacked coefficient matrix and
    re-evaluate the others through their vectorized
    :meth:`~repro.csp.constraints.Constraint.swap_errors` kernels, and
    committed swaps refresh just the touched cache entries.  Declarative
    models therefore run within a constant factor of the hand-written
    incremental problems instead of paying a full-model evaluation per
    candidate move.
    """

    family = "model"

    def __init__(
        self,
        model: Model,
        array_name: str | None = None,
        *,
        solver_defaults: Mapping[str, Any] | None = None,
    ) -> None:
        if model.n_variables == 0:
            raise ProblemError("model has no variables")
        if array_name is None:
            if len(model.arrays) != 1:
                raise ProblemError(
                    "model has several arrays; pass array_name explicitly"
                )
            array = model.arrays[0]
        else:
            matches = [a for a in model.arrays if a.name == array_name]
            if not matches:
                raise ProblemError(f"model has no array named {array_name!r}")
            array = matches[0]
        if not model.is_permutation(array):
            raise ProblemError(
                f"array {array.name!r} must be declared a permutation "
                "(ModelProblem explores by swaps)"
            )
        if array.n != model.n_variables:
            raise ProblemError(
                "ModelProblem currently supports models whose permutation "
                "array covers all variables"
            )
        self.model = model
        self.array = array
        self._base = int(array.domain.values()[0])
        vals = array.domain.values()
        if not np.array_equal(vals, np.arange(self._base, self._base + array.n)):
            raise ProblemError(
                "permutation array domain must be a contiguous integer range"
            )
        self._solver_defaults = dict(solver_defaults or {})

    def default_solver_parameters(self) -> dict[str, Any]:
        return dict(self._solver_defaults)

    @property
    def value_base(self) -> int:  # type: ignore[override]
        return self._base

    @property
    def size(self) -> int:
        return self.array.n

    @property
    def name(self) -> str:
        return f"model:{self.model.name}"

    def spec(self) -> Mapping[str, Any]:
        return {
            "family": self.family,
            "model": self.model.name,
            "size": self.size,
        }

    def cost(self, config: np.ndarray) -> float:
        return self.model.cost(np.asarray(config, dtype=np.int64))

    # ------------------------------------------------------------------
    # incremental walk protocol, backed by the model's swap kernels
    # ------------------------------------------------------------------
    def init_state(self, config: np.ndarray) -> ModelWalkState:
        self.check_configuration(config)
        cfg = np.array(config, dtype=np.int64, copy=True)
        errors = self.model.constraint_errors(cfg)
        return ModelWalkState(
            cfg, float(errors.sum()), errors, self.model.linear_lhs(cfg)
        )

    def swap_delta(self, state: ModelWalkState, i: int, j: int) -> float:
        return self.model.swap_cost_delta(
            state.config, state.constraint_errors, i, j
        )

    def swap_deltas(self, state: ModelWalkState, i: int) -> np.ndarray:
        return self.model.swap_cost_deltas(
            state.config, state.constraint_errors, i, state.lhs
        )

    def apply_swap(
        self, state: ModelWalkState, i: int, j: int, delta: float | None = None
    ) -> None:
        self.model.apply_swap_update(
            state.config, state.constraint_errors, i, j, state.lhs
        )
        state.cost = float(state.constraint_errors.sum())

    def variable_errors(self, state: ModelWalkState) -> np.ndarray:
        return self.model.variable_errors(state.config, state.constraint_errors)
