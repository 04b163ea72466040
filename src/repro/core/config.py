"""Tuning knobs of the Adaptive Search engine.

Field names mirror the parameters of the original C library (``ad_solver``):

================== ==============================================
C library          here
================== ==============================================
PROB_SELECT_LOC_MIN ``prob_select_loc_min``
FREEZE_LOC_MIN      ``freeze_loc_min``
FREEZE_SWAP         ``freeze_swap``
RESET_LIMIT         ``reset_limit``
RESET_PERCENT       ``reset_fraction`` (a fraction, not a percent)
RESTART_LIMIT       ``restart_limit``
RESTART_MAX         ``max_restarts``
================== ==============================================

Each benchmark supplies its own defaults through
:meth:`repro.problems.base.Problem.default_solver_parameters`, exactly as the
C benchmarks do; explicit user settings always win.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from repro.errors import SolverError
from repro.util.validation import check_fraction, check_probability

if TYPE_CHECKING:
    from repro.problems.base import Problem

__all__ = ["AdaptiveSearchConfig"]

_UNSET = object()


@dataclass(frozen=True)
class AdaptiveSearchConfig:
    """Immutable solver configuration.

    Parameters
    ----------
    target_cost:
        stop as soon as the walk reaches a configuration with cost
        ``<= target_cost`` (0 = exact solution).
    max_iterations:
        global iteration budget across all restarts (``inf`` by default —
        walks normally end by solving or by ``time_limit``).
    time_limit:
        wall-clock budget in seconds (``inf`` = none).
    restart_limit:
        iterations allowed within one restart before the walk re-randomizes.
    max_restarts:
        how many re-randomizations are allowed (the first start is free).
        Effectively unbounded by default: the real budget is
        ``max_iterations`` / ``time_limit``, matching the C library where
        runs end by solving or by external limits.
    prob_select_loc_min:
        on a local minimum of the selected variable, probability of taking
        the best non-improving swap anyway instead of freezing the variable.
    freeze_loc_min:
        iterations a variable stays marked (tabu) after causing a local
        minimum that was not accepted.
    freeze_swap:
        extra iterations both variables of an *executed* swap stay marked
        (0 disables, as in most C benchmarks).
    reset_limit:
        number of simultaneously marked variables that triggers a partial
        reset.
    reset_fraction:
        fraction of variables perturbed by a partial reset.
    plateau_is_local_min:
        whether a best swap with delta 0 counts as a local minimum (the C
        library's behaviour) or is always taken.
    """

    target_cost: float = 0.0
    max_iterations: float = math.inf
    time_limit: float = math.inf
    restart_limit: float = math.inf
    max_restarts: int = 1_000_000_000
    prob_select_loc_min: float = 0.5
    freeze_loc_min: int = 1
    freeze_swap: int = 0
    reset_limit: int = 5
    reset_fraction: float = 0.1
    plateau_is_local_min: bool = True

    def __post_init__(self) -> None:
        if self.target_cost < 0:
            raise SolverError(f"target_cost must be >= 0, got {self.target_cost}")
        if self.max_iterations <= 0:
            raise SolverError(
                f"max_iterations must be > 0, got {self.max_iterations}"
            )
        if self.time_limit <= 0:
            raise SolverError(f"time_limit must be > 0, got {self.time_limit}")
        if self.restart_limit <= 0:
            raise SolverError(
                f"restart_limit must be > 0, got {self.restart_limit}"
            )
        if self.max_restarts < 0:
            raise SolverError(f"max_restarts must be >= 0, got {self.max_restarts}")
        try:
            check_probability("prob_select_loc_min", self.prob_select_loc_min)
            check_fraction("reset_fraction", self.reset_fraction)
        except ValueError as err:
            raise SolverError(str(err)) from None
        if self.freeze_loc_min < 0:
            raise SolverError(
                f"freeze_loc_min must be >= 0, got {self.freeze_loc_min}"
            )
        if self.freeze_swap < 0:
            raise SolverError(f"freeze_swap must be >= 0, got {self.freeze_swap}")
        if self.reset_limit < 1:
            raise SolverError(f"reset_limit must be >= 1, got {self.reset_limit}")

    def merged_with(self, defaults: Mapping[str, Any]) -> "AdaptiveSearchConfig":
        """Fill fields from ``defaults`` where the user kept library defaults.

        ``defaults`` usually comes from
        :meth:`Problem.default_solver_parameters`.  A field is overridden
        only when this config still carries the class default, so explicit
        user choices always survive.
        """
        field_defaults = {
            f.name: f.default for f in dataclasses.fields(AdaptiveSearchConfig)
        }
        unknown = set(defaults) - set(field_defaults)
        if unknown:
            raise SolverError(
                f"unknown solver parameter(s) from problem defaults: "
                f"{sorted(unknown)}"
            )
        updates = {
            name: value
            for name, value in defaults.items()
            if getattr(self, name) == field_defaults[name]
        }
        return dataclasses.replace(self, **updates) if updates else self

    def for_problem(self, problem: "Problem") -> "AdaptiveSearchConfig":
        """``merged_with(problem.default_solver_parameters())``, merged once
        per instance and held by it (:attr:`Problem.derived`) for as long
        as the configuration it is asked for is this one or equal to it:
        one entry, so a solver whose base configuration is replaced by a
        different one merges the new one on its next walk, and a caller
        that builds an equal configuration per call (``config or
        AdaptiveSearchConfig()``) gets the held merge, the same object."""
        held = problem.derived.get(AdaptiveSearchConfig)
        if held is not None and (held[0] is self or held[0] == self):
            return held[1]
        merged = self.merged_with(problem.default_solver_parameters())
        problem.derived[AdaptiveSearchConfig] = (self, merged)
        return merged

    def replace(self, **changes: Any) -> "AdaptiveSearchConfig":
        """Functional update returning a new validated config."""
        return dataclasses.replace(self, **changes)
