"""The Adaptive Search solver (Codognet & Diaz), sequential engine.

One iteration of the method:

1. project constraint errors onto variables and select the *worst*
   non-frozen variable (ties uniformly at random);
2. evaluate the cost change of swapping it with every other position and
   select the best swap (ties uniformly at random);
3. if the best swap improves the cost, execute it; otherwise the variable
   sits on a local minimum: with probability ``prob_select_loc_min`` execute
   the best swap anyway, else *freeze* (mark) the variable for
   ``freeze_loc_min`` iterations;
4. when more than ``reset_limit`` variables are simultaneously frozen,
   perform a *partial reset* (randomly perturb ``reset_fraction`` of the
   configuration and clear all marks);
5. on top of this, classic restarts: after ``restart_limit`` iterations the
   walk re-randomizes completely (up to ``max_restarts`` times).

The loop exists twice, as one walk bit for bit.  Where the compiled lane
kernels are loaded and cover the problem
(:func:`repro.vector.lane_kernel` answers ``"compiled"``: magic-square,
all-interval and Costas, and every declarative model whose constraints are
all linear rows with coefficients ``+-1`` and integer right-hand sides, on a
host with a C compiler) :meth:`AdaptiveSearch.solve` runs the walk as a
one-lane batch of :class:`repro.vector.engine.VectorWalkEngine`; everywhere
else — the other families, every other declarative model, a host without
the library — it runs
:class:`repro.core.session.AdaptiveSearchSession`, the resumable form the
cooperative runtime and checkpointing also step, and the independent witness
the lane is tested against (``AdaptiveSearch(cfg).session(problem,
seed).run()``).  Which one runs is observed, never chosen.

This is the engine the paper runs in ``k`` independent copies; see
:mod:`repro.parallel` for the multi-walk runtime.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.config import AdaptiveSearchConfig
from repro.core.result import SolveResult
from repro.core.session import AdaptiveSearchSession
from repro.problems.base import Problem
from repro.util.rng import SeedLike

__all__ = ["AdaptiveSearch"]


class AdaptiveSearch:
    """Sequential Adaptive Search engine.

    A solver object is stateless across calls; it only carries its base
    configuration, so one instance may be shared (even across threads).

    Parameters
    ----------
    config:
        base configuration; per-problem defaults from
        :meth:`Problem.default_solver_parameters` fill any field the caller
        left at its class default.
    use_problem_defaults:
        set to False to run the raw configuration exactly as given.
    """

    name = AdaptiveSearchSession.solver_name

    def __init__(
        self,
        config: AdaptiveSearchConfig | None = None,
        *,
        use_problem_defaults: bool = True,
    ) -> None:
        self.base_config = config or AdaptiveSearchConfig()
        self.use_problem_defaults = use_problem_defaults

    def effective_config(self, problem: Problem) -> AdaptiveSearchConfig:
        """The configuration that ``solve`` would use for ``problem``."""
        if not self.use_problem_defaults:
            return self.base_config
        return self.base_config.for_problem(problem)

    # ------------------------------------------------------------------
    def session(
        self,
        problem: Problem,
        seed: SeedLike = None,
        *,
        callbacks: Optional[Sequence[object]] = None,
        initial_configuration: Optional[np.ndarray] = None,
    ) -> AdaptiveSearchSession:
        """A resumable walk with this solver's effective configuration."""
        return AdaptiveSearchSession(
            problem,
            self.effective_config(problem),
            seed,
            callbacks=callbacks,
            initial_configuration=initial_configuration,
        )

    def solve(
        self,
        problem: Problem,
        seed: SeedLike = None,
        *,
        callbacks: Optional[Sequence[object]] = None,
        initial_configuration: Optional[np.ndarray] = None,
    ) -> SolveResult:
        """Run the search until solved or a budget is exhausted.

        ``initial_configuration`` pins the first start (restarts still
        re-randomize); by default the first start is random too.
        """
        # here, not at module level: ``import repro`` starts no compiler
        # and maps no library
        from repro.vector import VectorWalkEngine, lane_kernel

        cfg = self.effective_config(problem)
        if lane_kernel(problem) == "compiled":
            engine = VectorWalkEngine(
                problem,
                1,
                cfg,
                seeds=[seed],
                use_problem_defaults=False,
                callbacks=[callbacks],
                initial_configurations=[initial_configuration],
                solver_name=self.name,
            )
            return engine.run().walks[0]
        return AdaptiveSearchSession(
            problem,
            cfg,
            seed,
            callbacks=callbacks,
            initial_configuration=initial_configuration,
        ).run()
