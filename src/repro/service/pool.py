"""Persistent warm-worker pool.

``WorkerPool`` owns ``n_workers`` long-lived processes that are spawned
**once** and then fed tasks (each a slice of one job's walks, see
:class:`~repro.service.worker.WalkTask`) over per-worker inbox queues;
results come back on one shared outbox queue.  Compared with the cold
process executor (spawn ``k`` processes per solve, pickle the problem
``k`` times, tear everything down), the pool amortizes process start-up and problem
serialization across an arbitrary number of jobs — the paper's model of
``k`` dedicated engines already sitting on cores.

The pool is mechanism only: it knows about processes, queues, problems and
cancel slots.  Policy (which task runs where and when, retries, deadlines)
lives in :class:`repro.service.scheduler.SolverService`.

Cancellation tokens
-------------------
The pool carries a fixed shared array of *cancel generations* (int64, one
entry per slot).  ``acquire_slot`` hands out ``(slot, generation)`` pairs
with strictly increasing generations per slot; ``cancel`` raises the slot's
shared entry to the token's generation.  Walks compare their token against
the shared entry (see :mod:`repro.service.worker`), so cancelling one job
can never affect the slot's next tenant.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ParallelError
from repro.parallel.shm import SharedProblemStore
from repro.problems.base import Problem
from repro.service.worker import (
    TERMINATION_SIGNALS,
    WalkTask,
    service_worker_main,
)

__all__ = ["WorkerPool", "CancelToken"]


@dataclass(frozen=True)
class CancelToken:
    """A job's handle on one cancel slot (see module docstring)."""

    slot: int
    generation: int


@dataclass
class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    worker_id: int
    process: Any
    inbox: Any
    #: problem ids already shipped to this worker process
    known_problems: set[int] = field(default_factory=set)
    #: lifetime respawn count (for metrics / debugging)
    incarnation: int = 0


class WorkerPool:
    """A fixed-size pool of persistent solver workers.

    Parameters
    ----------
    n_workers:
        worker processes kept alive for the pool's lifetime.
    mp_context:
        multiprocessing start method (``None`` = platform default).
    cancel_slots:
        how many jobs can hold cancel tokens simultaneously; the scheduler
        queues jobs beyond this (64 is far above any sane concurrent-job
        count for a pool this size).
    """

    def __init__(
        self,
        n_workers: int,
        *,
        mp_context: str | None = None,
        cancel_slots: int = 64,
        use_shared_memory: bool = True,
    ) -> None:
        if n_workers < 1:
            raise ParallelError(f"n_workers must be >= 1, got {n_workers}")
        if cancel_slots < 1:
            raise ParallelError(
                f"cancel_slots must be >= 1, got {cancel_slots}"
            )
        self.n_workers = n_workers
        self._ctx = mp.get_context(mp_context)
        self._cancel_generations = self._ctx.RawArray("q", cancel_slots)
        #: per-worker iteration counters, written by the walks themselves
        #: (see GenerationCancelCallback) — the straggler detector's feed
        self.progress = self._ctx.RawArray("q", n_workers)
        self._free_slots = list(range(cancel_slots - 1, -1, -1))
        self._slot_generations = [0] * cancel_slots
        self.outbox: Any = self._ctx.Queue()
        self._problems: dict[int, Problem] = {}
        #: the exact inbox message shipped for each problem, built once at
        #: registration: a shared-memory manifest when available, else the
        #: problem pickled a single time — respawns and late workers reuse
        #: it instead of re-serializing (and the manifest is ~200 bytes)
        self._problem_msgs: dict[int, tuple] = {}
        self._problem_ids: dict[int, int] = {}  # id(problem) -> problem_id
        self._next_problem_id = 0
        self._shm_store = SharedProblemStore() if use_shared_memory else None
        self._workers: dict[int, _WorkerHandle] = {}
        self._closed = False
        for worker_id in range(n_workers):
            self._workers[worker_id] = self._spawn(worker_id)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, worker_id: int, incarnation: int = 0) -> _WorkerHandle:
        inbox = self._ctx.Queue()
        process = self._ctx.Process(
            target=service_worker_main,
            args=(
                worker_id, inbox, self.outbox, self._cancel_generations,
                self.progress,
            ),
            daemon=True,
            name=f"repro-service-worker-{worker_id}",
        )
        # blocked across the fork: the child resets both to their defaults
        # before it unblocks them, so neither can land on a handler this
        # process installed (the CLI's) while the child boots
        held = signal.pthread_sigmask(signal.SIG_BLOCK, TERMINATION_SIGNALS)
        try:
            process.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
        return _WorkerHandle(
            worker_id=worker_id,
            process=process,
            inbox=inbox,
            incarnation=incarnation,
        )

    def respawn(self, worker_id: int) -> None:
        """Replace a dead worker with a fresh process.

        The new process receives every registered problem again before any
        task, preserving the inbox-FIFO invariant that a problem always
        arrives before tasks referencing it.
        """
        self._check_open()
        old = self._workers[worker_id]
        if old.process.is_alive():  # pragma: no cover - defensive
            old.process.terminate()
        old.process.join(timeout=5.0)
        # the dead worker's inbox may hold queued messages; abandon it
        old.inbox.close()
        old.inbox.cancel_join_thread()
        self.progress[worker_id] = 0
        handle = self._spawn(worker_id, incarnation=old.incarnation + 1)
        self._workers[worker_id] = handle
        # reuse the registration-time payloads: nothing is re-pickled on a
        # respawn, and shared-memory problems re-ship as manifests only
        for problem_id, message in sorted(self._problem_msgs.items()):
            handle.inbox.put(message)
            handle.known_problems.add(problem_id)

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop every worker and release the queues (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._workers.values():
            if handle.process.is_alive():
                try:
                    handle.inbox.put(("shutdown",))
                except (ValueError, OSError):  # pragma: no cover
                    pass
        deadline = time.monotonic() + timeout
        for handle in self._workers.values():
            remaining = max(0.1, deadline - time.monotonic())
            handle.process.join(timeout=remaining)
        for handle in self._workers.values():
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
        for handle in self._workers.values():
            handle.inbox.close()
            handle.inbox.cancel_join_thread()
        self.outbox.close()
        self.outbox.cancel_join_thread()
        if self._shm_store is not None:
            # workers are gone; unlinking now cannot strand an attachment
            self._shm_store.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.shutdown(timeout=1.0)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def worker_ids(self) -> list[int]:
        return sorted(self._workers)

    def is_alive(self, worker_id: int) -> bool:
        return self._workers[worker_id].process.is_alive()

    @property
    def outbox_reader(self) -> Any:
        """The outbox's read end: waitable with
        :func:`multiprocessing.connection.wait`, ready while a result is
        queued (then ``outbox.get_nowait()`` returns it)."""
        return self.outbox._reader

    @property
    def sentinels(self) -> list[int]:
        """One waitable handle per worker process, ready once it died
        (:meth:`respawn` replaces the process and with it the handle)."""
        return [h.process.sentinel for h in self._workers.values()]

    def live_processes(self) -> list[Any]:
        """Worker processes currently alive (empty after a clean shutdown)."""
        return [
            h.process for h in self._workers.values() if h.process.is_alive()
        ]

    def worker_pids(self) -> list[int]:
        """OS pids of the live worker processes (ops/debugging surface:
        ``repro service --pid-file`` writes these so an operator — or the
        signal-cleanup test — can verify the children were reaped)."""
        return [p.pid for p in self.live_processes() if p.pid is not None]

    def incarnation(self, worker_id: int) -> int:
        """How many times this worker slot has been respawned."""
        return self._workers[worker_id].incarnation

    # ------------------------------------------------------------------
    # problems
    # ------------------------------------------------------------------
    def holds_problem(self, problem: Problem) -> bool:
        """Whether this very object is registered already (and so was
        serialized once and is kept alive: its ``id`` cannot be reused)."""
        return id(problem) in self._problem_ids

    def register_problem(self, problem: Problem) -> int:
        """Idempotently register ``problem``; returns its pool-wide id.

        The pool keeps a strong reference, so ``id(problem)`` based
        deduplication is stable: submitting the same object repeatedly
        reuses the already-shipped copy in every worker.
        """
        self._check_open()
        existing = self._problem_ids.get(id(problem))
        if existing is not None:
            return existing
        # serialize exactly once, in the caller's frame, so a pickle error
        # surfaces here with the offending type named — not asynchronously
        # in the queue feeder thread as a crash-retry loop.  Preferred
        # form: a shared-memory manifest (workers attach, zero copies);
        # fallback: the pickled bytes, cached for respawns.
        message: tuple
        if self._shm_store is not None:
            try:
                manifest = self._shm_store.publish(problem)
                message = ("problem_shm", self._next_problem_id, manifest)
            except OSError:  # pragma: no cover - no usable /dev/shm
                self._shm_store = None
                message = ()
        if self._shm_store is None:
            try:
                payload = pickle.dumps(
                    problem, protocol=pickle.HIGHEST_PROTOCOL
                )
            except Exception as err:
                raise ParallelError(
                    f"problem {type(problem).__name__!r} is not picklable "
                    f"and cannot be shipped to pool workers: {err}"
                ) from err
            message = ("problem_bytes", self._next_problem_id, payload)
        problem_id = self._next_problem_id
        self._next_problem_id += 1
        self._problems[problem_id] = problem
        self._problem_msgs[problem_id] = message
        self._problem_ids[id(problem)] = problem_id
        for handle in self._workers.values():
            handle.inbox.put(message)
            handle.known_problems.add(problem_id)
        return problem_id

    # ------------------------------------------------------------------
    # tasks and cancellation
    # ------------------------------------------------------------------
    def send_task(self, worker_id: int, task: WalkTask) -> None:
        self._check_open()
        self._workers[worker_id].inbox.put(("walk", task))

    def acquire_slot(self) -> Optional[CancelToken]:
        """Take a cancel slot, or ``None`` when all are in use."""
        self._check_open()
        if not self._free_slots:
            return None
        slot = self._free_slots.pop()
        self._slot_generations[slot] += 1
        return CancelToken(slot=slot, generation=self._slot_generations[slot])

    def release_slot(self, token: CancelToken) -> None:
        """Return a slot to the free list.

        Safe even while stale walks of the token's job are still draining:
        the next ``acquire_slot`` on this slot bumps the generation past
        every cancel ever issued for previous tenants.
        """
        self._free_slots.append(token.slot)

    def cancel(self, token: CancelToken) -> None:
        """Cancel every in-flight walk holding ``token`` (idempotent)."""
        if self._cancel_generations[token.slot] < token.generation:
            self._cancel_generations[token.slot] = token.generation

    def is_cancelled(self, token: CancelToken) -> bool:
        return self._cancel_generations[token.slot] >= token.generation

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ParallelError("worker pool is shut down")
