"""Seeded, deterministic fault plans.

A :class:`FaultPlan` is a seeded RNG plus a list of typed fault specs.
Production code never imports this module directly — it queries the
module-global hook in :mod:`repro.chaos.hooks`, which is ``None`` unless a
test or the ``repro chaos`` runner installed a plan (one attribute load and
one branch on the hot path, nothing else).

Determinism contract
--------------------
Every decision a plan makes is a pure function of ``(seed, query
sequence)``: probability draws come from one ``random.Random(seed)`` and
fire counters advance under a lock.  Replaying the same scenario with the
same seed therefore injects the *same fault sequence* — the property the
``tests/chaos`` matrix asserts — as long as the query sequence itself is
deterministic (faults with ``probability=1.0`` and explicit match fields
are immune even to query interleaving, which is why the named scenarios
use exact matches).

Fault vocabulary
----------------
:class:`FrameFault`
    drop / delay / corrupt / duplicate one matching protocol frame on the
    send side (checked in :mod:`repro.net.protocol`).
:class:`WalkFault`
    make one matching walk raise, hard-exit its worker process, or run
    slowed (checked at dispatch in the scheduler; the spec rides inside
    the :class:`~repro.service.worker.WalkTask` into the worker process,
    so it must stay picklable).
:class:`NodeFault`
    kill, partition, or stall one node after a delay (checked by the node
    agent's own loops — a partitioned agent keeps running but neither
    sends nor processes frames).
:class:`CoordinatorCrash`
    crash the coordinator at a lifecycle point (``submit`` / ``dispatch``
    / ``walk_result`` / ``finish``), dropping any unflushed journal tail —
    the in-process stand-in for ``kill -9``.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import ChaosError

__all__ = [
    "FrameFault",
    "WalkFault",
    "NodeFault",
    "CoordinatorCrash",
    "FaultPlan",
    "fault_from_dict",
    "plan_from_dict",
]

_FRAME_ACTIONS = ("drop", "delay", "corrupt", "duplicate")
_WALK_ACTIONS = ("raise", "exit", "slow")
_NODE_ACTIONS = ("kill", "partition", "stall")
_CRASH_POINTS = ("submit", "dispatch", "walk_result", "finish")


@dataclass(frozen=True)
class FrameFault:
    """Tamper with protocol frames on the send side.

    ``message_type`` matches the frame's ``type`` field exactly (empty =
    any frame); ``skip_first`` lets that many matching frames through
    untouched before the fault becomes eligible, so a scenario can target
    e.g. "the second walk_result" deterministically.
    """

    action: str
    message_type: str = ""
    probability: float = 1.0
    max_count: int = 1
    delay: float = 0.05
    skip_first: int = 0

    def __post_init__(self) -> None:
        if self.action not in _FRAME_ACTIONS:
            raise ChaosError(
                f"unknown frame fault action {self.action!r} "
                f"(expected one of {_FRAME_ACTIONS})"
            )


@dataclass(frozen=True)
class WalkFault:
    """Make a walk misbehave inside its worker process.

    ``walk_id`` / ``job_id`` match the *cluster-scope* labels when the
    walk came through a coordinator, the local ids otherwise (-1 = any).
    ``iteration_delay`` is the per-iteration sleep for ``slow``;
    ``at_iteration`` is when ``raise`` / ``exit`` trigger (0 = before the
    first iteration).
    """

    action: str
    walk_id: int = -1
    job_id: int = -1
    probability: float = 1.0
    max_count: int = 1
    iteration_delay: float = 0.0
    at_iteration: int = 0

    def __post_init__(self) -> None:
        if self.action not in _WALK_ACTIONS:
            raise ChaosError(
                f"unknown walk fault action {self.action!r} "
                f"(expected one of {_WALK_ACTIONS})"
            )


@dataclass(frozen=True)
class NodeFault:
    """Degrade one node ``after`` seconds (from plan arming).

    ``kill`` — the agent aborts its connection and tears down (a crashed
    host); ``partition`` — the agent keeps running but neither sends nor
    processes frames for ``duration`` seconds; ``stall`` — heartbeats stop
    but walks keep running and reporting (a hung failure detector path).
    """

    action: str
    node: str = ""
    after: float = 0.0
    duration: float = float("inf")

    def __post_init__(self) -> None:
        if self.action not in _NODE_ACTIONS:
            raise ChaosError(
                f"unknown node fault action {self.action!r} "
                f"(expected one of {_NODE_ACTIONS})"
            )


@dataclass(frozen=True)
class CoordinatorCrash:
    """Crash the coordinator on the ``(skip_first+1)``-th hit of a point."""

    point: str
    skip_first: int = 0
    max_count: int = 1
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.point not in _CRASH_POINTS:
            raise ChaosError(
                f"unknown coordinator crash point {self.point!r} "
                f"(expected one of {_CRASH_POINTS})"
            )


class FaultPlan:
    """An ordered set of fault specs driven by one seeded RNG.

    Thread-safe: queries arrive from the scheduler thread, the asyncio
    loop thread, and (indirectly, via specs shipped in tasks) worker
    processes.  Only the query side lives here — *applying* a fault is the
    call site's job, so the plan never imports net/service code.
    """

    def __init__(
        self,
        faults: Any = (),
        *,
        seed: int = 0,
        name: str = "",
    ) -> None:
        self.faults: tuple[Any, ...] = tuple(faults)
        for fault in self.faults:
            if not isinstance(
                fault, (FrameFault, WalkFault, NodeFault, CoordinatorCrash)
            ):
                raise ChaosError(f"not a fault spec: {fault!r}")
        self.seed = int(seed)
        self.name = name
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        #: fault index -> times fired
        self._fired: dict[int, int] = {}
        #: fault index -> matching queries seen (drives skip_first)
        self._seen: dict[int, int] = {}
        #: node-fault index -> True once its transition was logged
        self._node_logged: set[int] = set()
        self._armed_at: float | None = None
        #: chronological record of every injected fault (the replay log
        #: the determinism tests compare across runs)
        self.log: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    def arm(self) -> "FaultPlan":
        """Start the plan's clock (idempotent; install() calls this)."""
        if self._armed_at is None:
            self._armed_at = time.monotonic()
        return self

    def elapsed(self) -> float:
        return 0.0 if self._armed_at is None else time.monotonic() - self._armed_at

    def _record(self, site: str, **detail: Any) -> None:
        self.log.append({"site": site, **detail})

    def _try_fire(self, index: int, fault: Any) -> bool:
        """Shared skip/probability/max_count gate (caller holds the lock)."""
        seen = self._seen.get(index, 0)
        self._seen[index] = seen + 1
        if seen < getattr(fault, "skip_first", 0):
            return False
        if self._fired.get(index, 0) >= fault.max_count:
            return False
        if fault.probability < 1.0 and self._rng.random() >= fault.probability:
            return False
        self._fired[index] = self._fired.get(index, 0) + 1
        return True

    # ------------------------------------------------------------------
    # queries (one per seam)
    # ------------------------------------------------------------------
    def frame_fault(self, message_type: str) -> Optional[FrameFault]:
        """The fault to apply to an outgoing frame, if any."""
        with self._lock:
            for index, fault in enumerate(self.faults):
                if not isinstance(fault, FrameFault):
                    continue
                if fault.message_type and fault.message_type != message_type:
                    continue
                if self._try_fire(index, fault):
                    self._record(
                        "frame", action=fault.action, type=message_type
                    )
                    return fault
        return None

    def walk_fault(
        self, walk_id: int, job_id: int = -1
    ) -> Optional[WalkFault]:
        """The fault this dispatch of ``walk_id`` should carry, if any."""
        with self._lock:
            for index, fault in enumerate(self.faults):
                if not isinstance(fault, WalkFault):
                    continue
                if fault.walk_id >= 0 and fault.walk_id != walk_id:
                    continue
                if fault.job_id >= 0 and fault.job_id != job_id:
                    continue
                if self._try_fire(index, fault):
                    self._record(
                        "walk",
                        action=fault.action,
                        walk_id=walk_id,
                        job_id=job_id,
                    )
                    return fault
        return None

    def _active_node_fault(
        self, node: str
    ) -> Optional[tuple[int, NodeFault, float]]:
        """``(index, fault, plan time now)`` of the node fault currently
        injected on ``node``, if any."""
        now = self.elapsed()
        for index, fault in enumerate(self.faults):
            if not isinstance(fault, NodeFault):
                continue
            if fault.node and fault.node != node:
                continue
            if fault.after <= now < fault.after + fault.duration:
                return index, fault, now
        return None

    def node_state(self, node: str) -> str:
        """Current injected state of ``node``: ok / kill / partition / stall.

        Purely time-based (no RNG, no counters): the same wall-clock query
        window yields the same answer, and the transition is logged once.
        """
        active = self._active_node_fault(node)
        if active is None:
            return "ok"
        index, fault, _ = active
        with self._lock:
            if index not in self._node_logged:
                self._node_logged.add(index)
                self._record("node", action=fault.action, node=node)
        return fault.action

    def node_fault_remaining(self, node: str) -> float:
        """Seconds until the fault now injected on ``node`` ends: ``0.0``
        when none is active, ``inf`` for one that never heals.  Lets a
        caller holding work back during a partition sleep exactly until
        the heal instead of polling :meth:`node_state`."""
        active = self._active_node_fault(node)
        if active is None:
            return 0.0
        _, fault, now = active
        return fault.after + fault.duration - now

    def coordinator_crash(self, point: str) -> bool:
        """Should the coordinator crash at this lifecycle point?"""
        with self._lock:
            for index, fault in enumerate(self.faults):
                if not isinstance(fault, CoordinatorCrash):
                    continue
                if fault.point != point:
                    continue
                if self._try_fire(index, fault):
                    self._record("coordinator", action="crash", point=point)
                    return True
        return False

    def corrupt_frame(self, frame: bytes, header_size: int) -> bytes:
        """Flip one deterministic-random byte of the frame body."""
        if len(frame) <= header_size:
            return frame
        with self._lock:
            offset = self._rng.randrange(header_size, len(frame))
        corrupted = bytearray(frame)
        corrupted[offset] ^= 0xFF
        return bytes(corrupted)

    # ------------------------------------------------------------------
    def reset(self) -> "FaultPlan":
        """Forget all fire/skip state and re-seed the RNG (fresh replay)."""
        with self._lock:
            self._rng = random.Random(self.seed)
            self._fired.clear()
            self._seen.clear()
            self._node_logged.clear()
            self._armed_at = None
            self.log = []
        return self

    def reseeded(self, seed: int) -> "FaultPlan":
        """A fresh plan with the same faults under a different seed."""
        return FaultPlan(self.faults, seed=seed, name=self.name)

    def summary(self) -> str:
        kinds = ", ".join(type(f).__name__ for f in self.faults) or "none"
        return (
            f"FaultPlan({self.name or 'anonymous'}, seed={self.seed}, "
            f"faults=[{kinds}], injected={len(self.log)})"
        )


# ----------------------------------------------------------------------
# JSON scenario files (the `repro chaos --file` surface)
# ----------------------------------------------------------------------
_FAULT_TYPES = {
    "frame": FrameFault,
    "walk": WalkFault,
    "node": NodeFault,
    "coordinator_crash": CoordinatorCrash,
}


def fault_from_dict(data: dict[str, Any]) -> Any:
    """Build one fault spec from ``{"kind": ..., **fields}``."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ChaosError(f"fault spec must be an object with a 'kind': {data!r}")
    fields = dict(data)
    kind = fields.pop("kind")
    cls = _FAULT_TYPES.get(kind)
    if cls is None:
        raise ChaosError(
            f"unknown fault kind {kind!r} "
            f"(expected one of {sorted(_FAULT_TYPES)})"
        )
    if "duration" in fields and fields["duration"] is None:
        fields["duration"] = float("inf")
    try:
        return cls(**fields)
    except TypeError as err:
        raise ChaosError(f"bad {kind} fault spec: {err}") from None


def plan_from_dict(data: dict[str, Any]) -> FaultPlan:
    """Build a plan from ``{"seed": ..., "name": ..., "faults": [...]}``."""
    if not isinstance(data, dict):
        raise ChaosError(f"fault plan must be an object, got {data!r}")
    return FaultPlan(
        [fault_from_dict(f) for f in data.get("faults", [])],
        seed=int(data.get("seed", 0)),
        name=str(data.get("name", "")),
    )
