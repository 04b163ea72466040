"""One island: a synchronized group of walkers around a local elite pool.

:class:`IslandRunner` is the round loop and the adoption policy of the
cooperative scheme — the only copy of either.  A
:class:`~repro.net.agent.NodeAgent` hosts one per cooperative assignment
on a thread, and the in-process
:class:`~repro.parallel.cooperative.CooperativeMultiWalk` is one island
over all walkers with no transport:

- the island's walkers are resumable
  :class:`~repro.core.session.AdaptiveSearchSession`\\ s advancing in
  synchronized rounds of ``report_interval`` iterations, each feeding a
  local :class:`~repro.parallel.cooperative.ElitePool`;
- every ``migration_interval`` rounds the island *reports* its best
  (cost, configuration) upward through ``send_report`` and then blocks on
  ``inbox`` for the matching migrant batch — arriving migrants are offered
  into the local pool, where the ordinary adoption policy picks them up;
- a report whose push never arrives within ``migration_timeout`` is
  counted in ``migrations_lost`` and the island simply continues — losing
  every migration degrades the scheme to independent multi-walk, never to
  a hang.

The runner is transport-agnostic on purpose: ``send_report`` is any
non-blocking callable and ``inbox`` any queue, so the same loop is driven
by the real cluster protocol in production and by plain lists in tests.
Without a ``send_report`` the island has nobody to migrate to and never
waits on one.

Determinism: the adoption RNG is derived solely from ``(coop.seed,
island id)`` (or handed in), walker trajectories from their walk seeds,
and migrant batches from the coordinator's deterministic relay — so a
fixed job seed reproduces the island's decisions exactly.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.coop.config import COOP_STREAM
from repro.core.config import AdaptiveSearchConfig
from repro.core.session import AdaptiveSearchSession
from repro.core.termination import TerminationReason
from repro.csp.permutation import random_partial_reset
from repro.errors import CoopError
from repro.parallel.cooperative import CooperationConfig, ElitePool
from repro.parallel.results import WalkOutcome
from repro.problems.base import Problem
from repro.telemetry.events import EliteAdopt

__all__ = ["IslandRunner", "IslandOutcome", "MigrantBatch"]


@dataclass(frozen=True)
class MigrantBatch:
    """One relayed migration round as the island receives it.

    ``migrants`` pairs each source island with the elite configuration it
    contributed; an empty list is a completed round that routed nothing to
    this island (e.g. a two-island ring where the partner died)."""

    round_index: int
    migrants: tuple[tuple[int, float, np.ndarray], ...] = ()


@dataclass
class IslandOutcome:
    """What one island hands back to its hosting agent."""

    island: int
    #: walkers that ended (solved or out of budget) — what an agent reports
    walks: list[WalkOutcome] = field(default_factory=list)
    #: walkers still searching when the island stopped (reason CANCELLED)
    unfinished: list[WalkOutcome] = field(default_factory=list)
    winner: Optional[WalkOutcome] = None
    rounds: int = 0
    cancelled: bool = False
    #: reports_sent / migrations_in / migrations_lost / adoptions /
    #: pool_offers / pool_accepts — folded into the job-level coop stats
    stats: dict[str, int] = field(default_factory=dict)


class IslandRunner:
    """Run one island of walkers with periodic elite migration.

    Parameters
    ----------
    problem / config:
        the instance and a fully resolved solver configuration (the
        coordinator ships the job's config; defaults were merged
        client-side exactly as for independent net walks).
    coop:
        the job's :class:`~repro.coop.config.CoopConfig`; ``coop.seed``
        must be filled in by this point (the client guarantees it).  An
        island without a transport reads only the adoption policy, so a
        plain :class:`~repro.parallel.cooperative.CooperationConfig` does.
    island:
        this island's coordinator-assigned id (keys the adoption RNG).
    walk_ids / seeds:
        the cluster-wide walk ids of this island's walkers and their
        :class:`~numpy.random.SeedSequence`\\ s, aligned index-for-index.
    send_report:
        non-blocking callable ``(round_index, cost, config)`` shipping
        this island's elite upward; ``None`` for a lone island, which
        then skips migration altogether.
    inbox:
        queue the host feeds :class:`MigrantBatch` instances into.
    cancel:
        event ending the island early (cluster-level job cancel).
    recorder:
        optional telemetry recorder for ``elite_adopt`` events.
    rng:
        the adoption stream; by default derived from ``(coop.seed,
        island)`` so it does not depend on which node hosts the island.
    """

    def __init__(
        self,
        problem: Problem,
        config: AdaptiveSearchConfig,
        coop: CooperationConfig,
        *,
        island: int,
        walk_ids: Sequence[int],
        seeds: Sequence[Any],
        send_report: Callable[[int, float, np.ndarray], None] | None = None,
        inbox: "queue.Queue[MigrantBatch] | None" = None,
        cancel: threading.Event | None = None,
        recorder: Any = None,
        trace_id: str = "",
        job_id: int = -1,
        rng: np.random.Generator | None = None,
    ) -> None:
        if len(walk_ids) != len(seeds):
            raise CoopError(
                f"island {island} got {len(walk_ids)} walk ids but "
                f"{len(seeds)} seeds"
            )
        if not walk_ids:
            raise CoopError(f"island {island} has no walkers")
        if rng is None:
            if coop.seed is None:
                raise CoopError(
                    "CoopConfig.seed must be set before an island runs"
                )
            # a stream owned by (seed, island): independent of walker
            # seeds and of which node hosts the island
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    coop.seed, spawn_key=(COOP_STREAM, island)
                )
            )
        self.problem = problem
        self.config = config
        self.coop = coop
        self.island = island
        self.walk_ids = list(walk_ids)
        self.seeds = list(seeds)
        self.send_report = send_report
        self.inbox = inbox
        self.cancel = cancel if cancel is not None else threading.Event()
        self.recorder = recorder
        self.trace_id = trace_id
        self.job_id = job_id
        self._rng = rng
        self.pool = ElitePool(coop.pool_size)

    # ------------------------------------------------------------------
    def run(self, max_rounds: int | None = None) -> IslandOutcome:
        """Drive the island to its end: a solve, every walker out of
        budget, a cancel, or ``max_rounds`` synchronized rounds."""
        coop = self.coop
        cfg = self.config
        sessions = {
            walk_id: AdaptiveSearchSession(self.problem, cfg, seed)
            for walk_id, seed in zip(self.walk_ids, self.seeds)
        }
        last_adopt = {walk_id: 0 for walk_id in self.walk_ids}
        finished: dict[int, TerminationReason] = {}
        stats = {
            "reports_sent": 0,
            "migrations_in": 0,
            "migrations_lost": 0,
            "adoptions": 0,
        }
        active = set(self.walk_ids)
        winner_id: Optional[int] = None
        rounds = 0
        started = time.perf_counter()

        while (
            active
            and winner_id is None
            and not self.cancel.is_set()
            and (max_rounds is None or rounds < max_rounds)
        ):
            rounds += 1
            for walk_id in sorted(active):
                if self.cancel.is_set():
                    break
                session = sessions[walk_id]
                chunk = self._iteration_allowance(session, started)
                if chunk is None:  # budget spent between rounds
                    finished[walk_id] = (
                        TerminationReason.MAX_ITERATIONS
                        if session.stats.iterations >= cfg.max_iterations
                        else TerminationReason.TIME_LIMIT
                    )
                    active.discard(walk_id)
                    continue
                out = session.step(chunk)
                if out is TerminationReason.SOLVED:
                    winner_id = walk_id
                    finished[walk_id] = out
                    active.discard(walk_id)
                    break
                if out is not None:  # restarts exhausted / callback cancel
                    finished[walk_id] = out
                    active.discard(walk_id)
                    continue
                self.pool.offer(session.cost, session.state.config)
                self._maybe_adopt(session, walk_id, last_adopt, stats)
            if (
                self.send_report is not None
                and winner_id is None
                and active
                and not self.cancel.is_set()
                and rounds % coop.migration_interval == 0
            ):
                self._migrate(rounds, stats)

        walks = [
            WalkOutcome.from_session(
                walk_id, sessions[walk_id], finished[walk_id]
            )
            for walk_id in self.walk_ids
            if walk_id in finished
        ]
        winner = next((w for w in walks if w.walk_id == winner_id), None)
        stats["pool_offers"] = self.pool.offers
        stats["pool_accepts"] = self.pool.accepts
        return IslandOutcome(
            island=self.island,
            walks=walks,
            unfinished=[
                WalkOutcome.from_session(walk_id, sessions[walk_id])
                for walk_id in self.walk_ids
                if walk_id not in finished
            ],
            winner=winner,
            rounds=rounds,
            cancelled=self.cancel.is_set(),
            stats=stats,
        )

    # ------------------------------------------------------------------
    def _iteration_allowance(
        self, session: AdaptiveSearchSession, started: float
    ) -> Optional[int]:
        """This round's step size, or ``None`` when the budget is spent."""
        cfg = self.config
        remaining = cfg.max_iterations - session.stats.iterations
        if remaining <= 0:
            return None
        if time.perf_counter() - started >= cfg.time_limit:
            return None
        return int(min(self.coop.report_interval, remaining))

    def _maybe_adopt(
        self,
        session: AdaptiveSearchSession,
        walk_id: int,
        last_adopt: dict[int, int],
        stats: dict[str, int],
    ) -> None:
        """The adoption policy: maybe restart ``session`` from a perturbed
        copy of the pool's best entry."""
        coop = self.coop
        if session.stats.iterations - last_adopt[walk_id] < coop.adopt_interval:
            return
        last_adopt[walk_id] = session.stats.iterations
        if self._rng.random() >= coop.p_adopt:
            return
        elite = self.pool.best()
        if elite is None or elite[0] >= (
            1.0 - coop.min_relative_gain
        ) * session.cost:
            return
        cost_before = session.cost
        adopted = elite[1]
        random_partial_reset(adopted, coop.perturb_fraction, self._rng)
        session.inject_configuration(adopted)
        stats["adoptions"] += 1
        if self.recorder is not None and self.recorder.enabled:
            self.recorder.emit(
                EliteAdopt(
                    trace_id=self.trace_id,
                    job_id=self.job_id,
                    walk_id=walk_id,
                    island=self.island,
                    iteration=session.stats.iterations,
                    cost_before=float(cost_before),
                    cost_elite=float(elite[0]),
                )
            )

    def _migrate(self, round_index: int, stats: dict[str, int]) -> None:
        """Report the island's elite and wait for the relayed migrants."""
        best = self.pool.best()
        if best is None:  # nothing finite reported yet: skip this round
            return
        cost, config = best
        self.send_report(round_index, float(cost), config)
        stats["reports_sent"] += 1
        deadline = time.monotonic() + self.coop.migration_timeout
        while not self.cancel.is_set():
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                stats["migrations_lost"] += 1
                return
            try:
                batch = self.inbox.get(timeout=min(timeout, 0.05))
            except queue.Empty:
                continue
            if batch.round_index > round_index:  # pragma: no cover - guard
                return  # protocol skew; never relayed for unreported rounds
            for _, migrant_cost, migrant_config in batch.migrants:
                self.pool.offer(float(migrant_cost), migrant_config)
                stats["migrations_in"] += 1
            if batch.round_index == round_index:
                return
            # an older round's push straggled in: its migrants were folded
            # into the pool above, but keep waiting for the current round
