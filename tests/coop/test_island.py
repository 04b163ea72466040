"""IslandRunner driven by plain callables and queues (no cluster).

The runner is transport-agnostic: ``send_report`` is any callable and
``inbox`` any queue, so these tests exercise the full island loop —
rounds, reporting, migration timeouts, migrant folding, adoption,
cancellation — without a coordinator.
"""

import queue
import threading
import time

import numpy as np
import pytest

from repro.coop import CoopConfig, IslandRunner, MigrantBatch
from repro.core.config import AdaptiveSearchConfig
from repro.core.termination import TerminationReason
from repro.errors import CoopError
from repro.problems import make_problem


def _seeds(n, root=1234):
    return np.random.SeedSequence(root).spawn(n)


def _runner(problem, config, coop, *, send_report, inbox, **kwargs):
    defaults = dict(
        island=0,
        walk_ids=[0, 1],
        seeds=_seeds(2),
        send_report=send_report,
        inbox=inbox,
        cancel=threading.Event(),
    )
    defaults.update(kwargs)
    return IslandRunner(problem, config, coop, **defaults)


class TestConstruction:
    def test_seed_must_be_filled(self):
        with pytest.raises(CoopError, match="seed"):
            _runner(
                make_problem("magic_square", n=5),
                AdaptiveSearchConfig(),
                CoopConfig(),  # seed=None
                send_report=lambda *a: None,
                inbox=queue.Queue(),
            )

    def test_walk_ids_and_seeds_must_align(self):
        with pytest.raises(CoopError, match="walk ids"):
            _runner(
                make_problem("magic_square", n=5),
                AdaptiveSearchConfig(),
                CoopConfig(seed=1),
                send_report=lambda *a: None,
                inbox=queue.Queue(),
                walk_ids=[0, 1, 2],
                seeds=_seeds(2),
            )

    def test_empty_island_rejected(self):
        with pytest.raises(CoopError, match="no walkers"):
            _runner(
                make_problem("magic_square", n=5),
                AdaptiveSearchConfig(),
                CoopConfig(seed=1),
                send_report=lambda *a: None,
                inbox=queue.Queue(),
                walk_ids=[],
                seeds=[],
            )


class TestRunLoop:
    def test_budget_exhaustion_counts_lost_migrations(self):
        """No pushes ever arrive: every report times out, search continues
        to budget exhaustion — graceful degradation to independent."""
        problem = make_problem("magic_square", n=12)
        config = AdaptiveSearchConfig(max_iterations=200)
        coop = CoopConfig(
            report_interval=50,
            migration_interval=1,
            migration_timeout=0.05,
            seed=7,
        )
        reports = []
        runner = _runner(
            problem,
            config,
            coop,
            send_report=lambda r, c, cfg: reports.append((r, float(c))),
            inbox=queue.Queue(),
        )
        outcome = runner.run()
        assert not outcome.cancelled
        assert outcome.winner is None
        assert len(outcome.walks) == 2
        assert all(
            w.reason is TerminationReason.MAX_ITERATIONS
            for w in outcome.walks
        )
        assert outcome.stats["reports_sent"] == len(reports) >= 1
        assert outcome.stats["migrations_lost"] == len(reports)
        assert outcome.stats["migrations_in"] == 0
        # reports carry finite costs and increasing round indices
        rounds = [r for r, _ in reports]
        assert rounds == sorted(rounds)
        assert all(np.isfinite(c) for _, c in reports)

    def test_echoed_pushes_are_folded_into_the_pool(self):
        """A loopback transport answers each report instantly: every
        migration round completes and no round is counted lost."""
        problem = make_problem("magic_square", n=12)
        config = AdaptiveSearchConfig(max_iterations=200)
        coop = CoopConfig(
            report_interval=50,
            migration_interval=1,
            migration_timeout=5.0,
            seed=7,
        )
        inbox = queue.Queue()

        def echo(round_index, cost, cfg):
            inbox.put(
                MigrantBatch(
                    round_index=round_index,
                    migrants=((9, float(cost), cfg.copy()),),
                )
            )

        runner = _runner(problem, config, coop, send_report=echo, inbox=inbox)
        outcome = runner.run()
        assert outcome.stats["reports_sent"] >= 1
        assert outcome.stats["migrations_lost"] == 0
        assert outcome.stats["migrations_in"] == outcome.stats["reports_sent"]
        assert outcome.stats["pool_offers"] > 0

    def test_straggling_older_push_does_not_complete_current_round(self):
        problem = make_problem("magic_square", n=12)
        config = AdaptiveSearchConfig(max_iterations=100)
        coop = CoopConfig(
            report_interval=50,
            migration_interval=1,
            migration_timeout=0.2,
            seed=7,
        )
        inbox = queue.Queue()
        reports = []

        def stale_echo(round_index, cost, cfg):
            reports.append(round_index)
            # always answer with the *previous* round's push
            inbox.put(
                MigrantBatch(
                    round_index=round_index - 1,
                    migrants=((3, float(cost), cfg.copy()),),
                )
            )

        runner = _runner(
            problem, config, coop, send_report=stale_echo, inbox=inbox
        )
        outcome = runner.run()
        # stale migrants are folded in, but the round still times out
        assert outcome.stats["migrations_lost"] == len(reports) >= 1
        assert outcome.stats["migrations_in"] == len(reports)

    def test_pre_set_cancel_returns_immediately(self):
        cancel = threading.Event()
        cancel.set()
        runner = _runner(
            make_problem("magic_square", n=12),
            AdaptiveSearchConfig(max_iterations=10_000),
            CoopConfig(seed=7),
            send_report=lambda *a: None,
            inbox=queue.Queue(),
            cancel=cancel,
        )
        outcome = runner.run()
        assert outcome.cancelled
        assert outcome.walks == []
        assert outcome.winner is None

    def test_lone_island_never_waits_on_a_migration(self):
        """No transport, nobody to migrate to: the 5 s migration timeout
        must not be sat out once per round."""
        runner = IslandRunner(
            make_problem("magic_square", n=12),
            AdaptiveSearchConfig(max_iterations=10_000),
            CoopConfig(
                report_interval=50,
                migration_interval=1,
                migration_timeout=5.0,
                seed=7,
            ),
            island=0,
            walk_ids=[0, 1],
            seeds=_seeds(2),
        )
        started = time.perf_counter()
        outcome = runner.run(max_rounds=3)
        assert time.perf_counter() - started < 1.0
        assert outcome.rounds == 3
        assert outcome.stats["reports_sent"] == 0
        assert outcome.stats["migrations_lost"] == 0
        assert outcome.stats["pool_offers"] == 6
        # nobody finished in three rounds: all still searching
        assert outcome.walks == [] and outcome.winner is None
        assert [w.walk_id for w in outcome.unfinished] == [0, 1]
        assert all(
            w.iterations == 150 and w.reason is TerminationReason.CANCELLED
            for w in outcome.unfinished
        )

    def test_solvable_island_wins(self):
        problem = make_problem("magic_square", n=4)
        config = AdaptiveSearchConfig(max_iterations=500_000)
        coop = CoopConfig(
            report_interval=64, migration_timeout=0.05, seed=11
        )
        runner = _runner(
            problem,
            config,
            coop,
            send_report=lambda *a: None,
            inbox=queue.Queue(),
        )
        outcome = runner.run()
        assert outcome.winner is not None
        assert outcome.winner.solved
        assert problem.is_solution(outcome.winner.config)

    def test_identical_inputs_reproduce_the_island_exactly(self):
        problem = make_problem("magic_square", n=12)
        config = AdaptiveSearchConfig(max_iterations=300)
        coop = CoopConfig(
            report_interval=50,
            migration_interval=1,
            migration_timeout=0.05,
            adopt_interval=60,
            seed=21,
        )

        def run_once():
            reports = []
            runner = _runner(
                problem,
                config,
                coop,
                send_report=lambda r, c, cfg: reports.append(
                    (r, float(c), cfg.tobytes())
                ),
                inbox=queue.Queue(),
            )
            outcome = runner.run()
            return reports, outcome

        reports_a, outcome_a = run_once()
        reports_b, outcome_b = run_once()
        assert reports_a == reports_b
        assert outcome_a.rounds == outcome_b.rounds
        assert outcome_a.stats == outcome_b.stats
        assert [w.iterations for w in outcome_a.walks] == [
            w.iterations for w in outcome_b.walks
        ]
