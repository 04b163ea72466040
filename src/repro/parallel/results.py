"""Result types of multi-walk runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.core.termination import TerminationReason

__all__ = ["WalkOutcome", "ParallelResult"]


@dataclass
class WalkOutcome:
    """What one walk reported when it stopped.

    This class owns the walk-report format: every executor builds its
    outcomes through :meth:`from_result` / :meth:`from_session`, and a
    report crosses a process boundary as the plain dict of
    :meth:`to_payload` / :meth:`from_payload` (the cluster's
    ``walk_result`` frame in :mod:`repro.net.results` is the only other
    encoding).
    """

    walk_id: int
    solved: bool
    cost: float
    iterations: int
    wall_time: float
    reason: TerminationReason
    config: Optional[np.ndarray] = None

    @classmethod
    def from_result(
        cls, walk_id: int, result: Any, *, best_so_far: bool = False
    ) -> "WalkOutcome":
        """Report a finished :class:`~repro.core.result.SolveResult`.

        An unsolved walk's configuration is dropped unless ``best_so_far``
        is set: only the service path keeps it, because graceful
        degradation (deadline expiry, partial cluster loss) hands the best
        configuration *seen* back to the client.
        """
        return cls(
            walk_id=walk_id,
            solved=result.solved,
            cost=result.cost,
            iterations=result.stats.iterations,
            wall_time=result.stats.wall_time,
            reason=result.reason,
            config=result.config if result.solved or best_so_far else None,
        )

    @classmethod
    def from_session(
        cls,
        walk_id: int,
        session: Any,
        reason: Optional[TerminationReason] = None,
    ) -> "WalkOutcome":
        """Report an :class:`~repro.core.session.AdaptiveSearchSession`.

        ``reason`` overrides the session's own (an island ends a walk on
        its budget without the session knowing); a session stopped with
        neither is reported ``CANCELLED``.
        """
        if reason is None:
            reason = session.reason or TerminationReason.CANCELLED
        return cls(
            walk_id=walk_id,
            solved=session.solved,
            cost=session.best_cost,
            iterations=session.stats.iterations,
            wall_time=session.elapsed,
            reason=reason,
            config=session.best_config if session.solved else None,
        )

    def to_payload(self) -> dict[str, Any]:
        """The picklable report dict workers put on their result queue."""
        return {
            "solved": self.solved,
            "cost": self.cost,
            "iterations": self.iterations,
            "wall_time": self.wall_time,
            "reason": self.reason.name,
            "config": self.config.tolist() if self.config is not None else None,
        }

    @classmethod
    def from_payload(cls, walk_id: int, payload: dict[str, Any]) -> "WalkOutcome":
        config = payload["config"]
        return cls(
            walk_id=walk_id,
            solved=payload["solved"],
            cost=payload["cost"],
            iterations=payload["iterations"],
            wall_time=payload["wall_time"],
            reason=TerminationReason[payload["reason"]],
            config=(
                np.asarray(config, dtype=np.int64) if config is not None else None
            ),
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "walk_id": self.walk_id,
            "solved": self.solved,
            "cost": self.cost,
            "iterations": self.iterations,
            "wall_time": self.wall_time,
            "reason": self.reason.name,
        }


@dataclass
class ParallelResult:
    """Outcome of one independent multi-walk execution.

    ``wall_time`` is the parallel completion time under multi-walk
    semantics: the winner's solving time (inline executor computes it as the
    exact min across walks; the process executor measures it).
    ``elapsed_time`` is the real time the whole call took on this host —
    on a single-core machine running ``k`` inline walks it is roughly the
    *sum*, not the min, which is exactly why the platform simulation exists.
    """

    solved: bool
    n_walkers: int
    winner: Optional[WalkOutcome]
    walks: list[WalkOutcome] = field(default_factory=list)
    wall_time: float = 0.0
    elapsed_time: float = 0.0
    executor: str = "inline"

    @classmethod
    def from_walks(
        cls,
        walks: list[WalkOutcome],
        *,
        executor: str,
        elapsed_time: float,
        wall_time: Optional[float] = None,
    ) -> "ParallelResult":
        """Assemble a result whose winner is the fastest solved walk.

        ``wall_time`` is the measured time of the first solve where the
        executor has one; it defaults to the winner's own solving time, and
        to ``elapsed_time`` when nothing solved.
        """
        solved = [w for w in walks if w.solved]
        winner = min(solved, key=lambda w: w.wall_time) if solved else None
        if wall_time is None:
            wall_time = winner.wall_time if winner is not None else elapsed_time
        return cls(
            solved=winner is not None,
            n_walkers=len(walks),
            winner=winner,
            walks=walks,
            wall_time=wall_time,
            elapsed_time=elapsed_time,
            executor=executor,
        )

    @property
    def config(self) -> Optional[np.ndarray]:
        """The winning configuration, if any walk solved."""
        return self.winner.config if self.winner is not None else None

    @property
    def total_iterations(self) -> int:
        """Iterations summed over all walks (total work performed)."""
        return sum(w.iterations for w in self.walks)

    def summary(self) -> str:
        status = (
            f"SOLVED by walk {self.winner.walk_id}" if self.solved else "UNSOLVED"
        )
        return (
            f"multi-walk x{self.n_walkers} [{self.executor}]: {status}, "
            f"parallel wall time {self.wall_time:.3f}s, "
            f"total work {self.total_iterations} iterations"
        )
