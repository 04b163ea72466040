"""Shared-memory problem store: zero-copy attach, ownership, leak-freedom.

The publisher owns every segment; attachers map read-only views and must
never perturb the (process-tree-wide) resource tracker.  The leak tests
assert the contract that matters operationally: after a pool shuts down —
cleanly, after a worker hard-crash, or under a chaos fault plan — no
``repro-*`` segment remains in ``/dev/shm`` and the resource tracker exits
silently (no KeyError spam, no "leaked shared_memory" warnings).
"""

import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.chaos import FaultPlan, WalkFault
from repro.core.config import AdaptiveSearchConfig
from repro.core.solver import AdaptiveSearch
from repro.core.value_solver import ValueAdaptiveSearch
from repro.errors import ParallelError
from repro.parallel.shm import (
    SharedProblemStore,
    attach_problem,
    problem_digest,
)
from repro.problems import (
    CostasProblem,
    MagicSquareProblem,
    available_problems,
    make_problem,
)
from repro.problems.value_base import ValueProblem
from repro.service import JobStatus, RetryPolicy, SolverService

SHM_DIR = Path("/dev/shm")

pytestmark = pytest.mark.skipif(
    not SHM_DIR.is_dir(), reason="needs a POSIX shared-memory filesystem"
)


def repro_segments() -> list[str]:
    return sorted(p.name for p in SHM_DIR.glob("repro-*"))


class TestPublishAttach:
    def test_attached_problem_solves_identically(self):
        problem = MagicSquareProblem(6)
        config = AdaptiveSearchConfig(max_iterations=3000)
        expected = AdaptiveSearch(config).solve(problem, seed=5)
        with SharedProblemStore() as store:
            manifest = store.publish(problem)
            handle = attach_problem(manifest)
            try:
                result = AdaptiveSearch(config).solve(handle.problem, seed=5)
                assert result.solved == expected.solved
                assert result.cost == expected.cost
                assert np.array_equal(result.config, expected.config)
                assert result.stats.iterations == expected.stats.iterations
            finally:
                handle.detach()

    def test_attached_arrays_are_readonly_views(self):
        problem = CostasProblem(9)
        with SharedProblemStore() as store:
            handle = attach_problem(store.publish(problem))
            arrays = [
                value
                for value in vars(handle.problem).values()
                if isinstance(value, np.ndarray)
            ]
            assert arrays, "expected numpy tables on the problem"
            writeable = [array.flags.writeable for array in arrays]
            # drop every alias of the mapped pages before detaching — the
            # handle's contract (detach only once the problem is unused)
            del arrays
            handle.detach()
            assert not any(writeable)

    def test_manifest_digest_matches_problem_digest(self):
        problem = MagicSquareProblem(5)
        with SharedProblemStore() as store:
            manifest = store.publish(problem)
            assert manifest.digest == problem_digest(problem)

    @pytest.mark.parametrize("name", available_problems())
    def test_digest_and_pickle_do_not_change_with_use(self, name):
        """Tables an instance builds at its first walk are derived, not
        content: a problem that has walked must not re-ship or re-publish
        as a new one (``known_problems``, ``_problem_cache``, the store)."""
        problem = make_problem(name)
        fresh = problem_digest(problem), len(pickle.dumps(problem))
        solver = (
            ValueAdaptiveSearch if isinstance(problem, ValueProblem)
            else AdaptiveSearch
        )
        result = solver(AdaptiveSearchConfig(max_iterations=50)).solve(
            problem, seed=0
        )
        assert result.stats.iterations > 0
        assert (problem_digest(problem), len(pickle.dumps(problem))) == fresh

    def test_publish_deduplicates_by_identity_and_content(self):
        problem = MagicSquareProblem(5)
        twin = MagicSquareProblem(5)
        with SharedProblemStore() as store:
            first = store.publish(problem)
            assert store.publish(problem) is first
            # equal content -> same segment, no second allocation
            assert store.publish(twin).segment == first.segment
            assert len(store.segment_names) == 1

    def test_release_unlinks_and_attach_fails(self):
        problem = CostasProblem(8)
        store = SharedProblemStore()
        manifest = store.publish(problem)
        assert manifest.segment in repro_segments()
        store.release(manifest)
        assert manifest.segment not in repro_segments()
        with pytest.raises(ParallelError, match="vanished"):
            attach_problem(manifest)
        store.close()

    def test_close_is_idempotent(self):
        store = SharedProblemStore()
        store.publish(MagicSquareProblem(4))
        store.close()
        store.close()
        assert store.segment_names == []


CFG = AdaptiveSearchConfig(max_iterations=200_000)


@pytest.mark.slow
class TestPoolLifecycle:
    def test_clean_shutdown_leaves_no_segments(self):
        before = repro_segments()
        with SolverService(2) as service:
            problem = CostasProblem(8)
            result = service.solve(problem, 2, seed=0, config=CFG, timeout=120)
            assert result.solved
            # while the pool is live its problem segment exists
            assert len(repro_segments()) > len(before)
        assert repro_segments() == before

    def test_worker_hard_crash_leaks_nothing(self):
        """A chaos 'exit' fault kills the worker mid-walk; the respawned
        worker re-attaches the cached shm message and the segment is still
        unlinked exactly once at shutdown."""
        before = repro_segments()
        plan = FaultPlan([WalkFault("exit", max_count=1)], seed=0)
        problem = CostasProblem(8)
        with SolverService(1, chaos=plan) as service:
            first = service.solve(
                problem, 1, seed=0, config=CFG,
                retry=RetryPolicy(max_retries=0), timeout=120,
            )
            assert first.status is JobStatus.FAILED
            # respawned worker must still know the problem (cached shm
            # manifest message, not a fresh pickle) and solve with it
            second = service.solve(problem, 1, seed=1, config=CFG, timeout=120)
            assert second.status is JobStatus.SOLVED
        assert repro_segments() == before

    def test_respawn_reuses_cached_payload(self):
        """The pool re-ships the cached problem message on respawn instead
        of re-publishing: the segment set does not grow."""
        plan = FaultPlan([WalkFault("exit", max_count=1)], seed=0)
        problem = CostasProblem(8)
        with SolverService(1, chaos=plan) as service:
            service.solve(
                problem, 1, seed=0, config=CFG,
                retry=RetryPolicy(max_retries=0), timeout=120,
            )
            segments_after_crash = repro_segments()
            result = service.solve(problem, 1, seed=1, config=CFG, timeout=120)
            assert result.solved
            assert repro_segments() == segments_after_crash


@pytest.mark.slow
class TestResourceTrackerSilence:
    def test_pool_run_emits_no_tracker_noise(self):
        """End-to-end subprocess run: a pool solves through shm problems,
        shuts down, and the interpreter exits without resource_tracker
        KeyErrors or leaked-object warnings on stderr — and every worker
        closes its mapping cleanly (exit 0, no BufferError traceback)."""
        code = (
            "from repro.core.config import AdaptiveSearchConfig\n"
            "from repro.problems import CostasProblem\n"
            "from repro.service import SolverService\n"
            "cfg = AdaptiveSearchConfig(max_iterations=200_000)\n"
            "with SolverService(2) as service:\n"
            "    r = service.solve(CostasProblem(8), 2, seed=0, config=cfg,\n"
            "                      timeout=120)\n"
            "    assert r.solved\n"
            "    workers = service._pool.live_processes()\n"
            "assert [w.exitcode for w in workers] == [0, 0]\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "KeyError" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr
        assert proc.stderr == ""
