"""Typed telemetry events and spans.

Every event is a frozen dataclass with a class-level ``kind`` tag; the
module keeps a registry mapping kinds back to classes so JSONL records
round-trip losslessly (:func:`event_to_record` / :func:`event_from_record`).

Common fields:

``ts``
    wall-clock (epoch) timestamp; ``0.0`` means "stamp me on emit" — the
    recorder fills it in so call sites never touch the clock themselves;
``trace_id``
    correlates all events of one distributed solve across processes
    (client, coordinator, node agents, pool workers);
``job_id`` / ``walk_id``
    cluster-scope identifiers where they apply (``-1`` = not applicable).

Spans are the duration-bearing counterpart: ``ts`` is the epoch *start*
and ``duration`` is measured on the monotonic clock, so a span is immune
to wall-clock steps while still sortable into one global timeline.
``parent_id`` links child spans to their parents, letting the ``repro
trace`` reconstruction nest dispatch inside submit inside the whole solve.

:class:`TraceContext` is the tiny picklable token that rides along with a
job through every layer (client frame → coordinator → assign frame →
agent → local Job → WalkTask → worker) so each layer can stamp its events
with the same ``trace_id``.
"""

from __future__ import annotations

import dataclasses
import uuid
from dataclasses import dataclass, field
from typing import Any, Optional, Type

from repro.errors import TelemetryError

__all__ = [
    "TelemetryEvent",
    "JobSubmit",
    "JobDispatch",
    "JobFinish",
    "WalkStart",
    "WalkFinish",
    "IterationMilestone",
    "RestartEvent",
    "ResetEvent",
    "AssignEvent",
    "CancelBroadcast",
    "CancelAck",
    "FirstSolve",
    "HedgeDispatch",
    "EliteReport",
    "EliteAdopt",
    "Migration",
    "FaultInjected",
    "FailoverBegin",
    "FailoverComplete",
    "Span",
    "TraceContext",
    "EVENT_KINDS",
    "new_trace_id",
    "new_span_id",
    "event_to_record",
    "event_from_record",
]


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (one per distributed solve)."""
    return uuid.uuid4().hex[:16]


def new_span_id() -> str:
    """A fresh 12-hex-char span id."""
    return uuid.uuid4().hex[:12]


@dataclass(frozen=True, kw_only=True)
class TelemetryEvent:
    """Base of every typed event (never emitted itself)."""

    kind = "event"

    ts: float = 0.0
    trace_id: str = ""


@dataclass(frozen=True, kw_only=True)
class JobSubmit(TelemetryEvent):
    """A solve job entered the system (client or service edge)."""

    kind = "job_submit"

    job_id: int = -1
    n_walkers: int = 0
    problem: str = ""


@dataclass(frozen=True, kw_only=True)
class JobDispatch(TelemetryEvent):
    """One task handed to a concrete executor slot.

    A pool task is a slice of a job's walks: ``walk_ids`` names them all
    (``walk_id`` is the first), ``lanes`` is how many run as lanes of one
    vector engine (0 = a single walk on the scalar session) and ``kernel``
    is what those lanes run on — ``"compiled"`` (``lanes.c``; a one-walk
    slice of a problem it covers is one compiled lane), ``"numpy"`` (its
    build is not there, or has no kernels for the problem) or
    ``"scalar"``; empty where the dispatcher does not decide it (a
    coordinator handing walks to a node).
    """

    kind = "job_dispatch"

    job_id: int = -1
    walk_id: int = -1
    worker: int = -1
    node: str = ""
    walk_ids: tuple[int, ...] = ()
    lanes: int = 0
    kernel: str = ""


@dataclass(frozen=True, kw_only=True)
class JobFinish(TelemetryEvent):
    """A job completed (any terminal status)."""

    kind = "job_finish"

    job_id: int = -1
    status: str = ""
    latency: float = 0.0
    queue_wait: float = 0.0


@dataclass(frozen=True, kw_only=True)
class WalkStart(TelemetryEvent):
    """One Adaptive Search walk began iterating."""

    kind = "walk_start"

    job_id: int = -1
    walk_id: int = -1
    cost: float = 0.0


@dataclass(frozen=True, kw_only=True)
class WalkFinish(TelemetryEvent):
    """One walk terminated (solved, budget exhausted, or cancelled)."""

    kind = "walk_finish"

    job_id: int = -1
    walk_id: int = -1
    solved: bool = False
    cost: float = 0.0
    iterations: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True, kw_only=True)
class IterationMilestone(TelemetryEvent):
    """Sampled snapshot of the hot loop (every N-th iteration)."""

    kind = "iteration"

    job_id: int = -1
    walk_id: int = -1
    iteration: int = 0
    cost: float = 0.0
    best_cost: float = 0.0


@dataclass(frozen=True, kw_only=True)
class RestartEvent(TelemetryEvent):
    """The solver restarted from a fresh configuration."""

    kind = "restart"

    job_id: int = -1
    walk_id: int = -1
    restart_index: int = 0
    cost: float = 0.0


@dataclass(frozen=True, kw_only=True)
class ResetEvent(TelemetryEvent):
    """The solver performed a partial reset."""

    kind = "reset"

    job_id: int = -1
    walk_id: int = -1
    iteration: int = 0
    cost: float = 0.0


@dataclass(frozen=True, kw_only=True)
class AssignEvent(TelemetryEvent):
    """The coordinator shipped a walk slice to a node."""

    kind = "assign"

    job_id: int = -1
    node: str = ""
    walk_ids: tuple[int, ...] = ()
    generation: int = 0


@dataclass(frozen=True, kw_only=True)
class CancelBroadcast(TelemetryEvent):
    """First-finisher-wins: cancel fanned out to slice-holding nodes."""

    kind = "cancel_broadcast"

    job_id: int = -1
    nodes: tuple[str, ...] = ()


@dataclass(frozen=True, kw_only=True)
class CancelAck(TelemetryEvent):
    """A node acknowledged a cancel; ``latency`` is the coordinator-measured
    round trip (both stamps on the coordinator's monotonic clock — no
    cross-host clock skew)."""

    kind = "cancel_ack"

    job_id: int = -1
    node: str = ""
    latency: float = 0.0


@dataclass(frozen=True, kw_only=True)
class FirstSolve(TelemetryEvent):
    """The cluster-wide winning walk reported in."""

    kind = "first_solve"

    job_id: int = -1
    walk_id: int = -1
    node: str = ""
    wall_time: float = 0.0


@dataclass(frozen=True, kw_only=True)
class HedgeDispatch(TelemetryEvent):
    """A straggling walk was hedged: a duplicate copy (same seed, same
    generation) dispatched to another node; the first copy to report wins
    and the loser is dropped as stale."""

    kind = "hedge"

    job_id: int = -1
    walk_id: int = -1
    node: str = ""
    from_node: str = ""
    elapsed: float = 0.0
    #: why the hedge fired: ``"quantile"`` (walk outlived the fitted
    #: runtime quantile) or ``"median_factor"`` (the fixed-multiplier
    #: rule).  Empty on records from before this field existed.
    trigger: str = ""
    #: the threshold (seconds) the walk's elapsed time exceeded
    threshold: float = 0.0


@dataclass(frozen=True, kw_only=True)
class EliteReport(TelemetryEvent):
    """An island reported its elite (cost, configuration) for one
    migration round (coordinator-side, protocol v6 ``elite_report``)."""

    kind = "elite_report"

    job_id: int = -1
    island: int = -1
    round_index: int = 0
    cost: float = 0.0
    node: str = ""


@dataclass(frozen=True, kw_only=True)
class EliteAdopt(TelemetryEvent):
    """A walker restarted from a pool elite (island-side): the walker's
    cost before the jump and the elite cost it adopted."""

    kind = "elite_adopt"

    job_id: int = -1
    walk_id: int = -1
    island: int = -1
    iteration: int = 0
    cost_before: float = 0.0
    cost_elite: float = 0.0


@dataclass(frozen=True, kw_only=True)
class Migration(TelemetryEvent):
    """The coordinator relayed one elite between two islands.  ``digest``
    is a short content hash of the migrating configuration, so two runs'
    migration logs can be compared for bit-identical cooperation."""

    kind = "migration"

    job_id: int = -1
    round_index: int = 0
    from_island: int = -1
    to_island: int = -1
    cost: float = 0.0
    digest: str = ""


@dataclass(frozen=True, kw_only=True)
class FaultInjected(TelemetryEvent):
    """The chaos layer injected one fault (site = frame/walk/node/
    coordinator) — lets a merged trace show *when* the failure happened
    relative to the recovery machinery reacting to it."""

    kind = "fault"

    site: str = ""
    action: str = ""
    detail: str = ""


@dataclass(frozen=True, kw_only=True)
class FailoverBegin(TelemetryEvent):
    """A hot standby detected leader failure and began its takeover
    (protocol v7): the leader it was tailing, its own serving address,
    and why it fired (``"lease-timeout"`` or ``"connection-lost"``)."""

    kind = "failover_begin"

    leader: str = ""
    standby: str = ""
    reason: str = ""


@dataclass(frozen=True, kw_only=True)
class FailoverComplete(TelemetryEvent):
    """The standby finished its takeover: mirrored journal replayed,
    generations bumped, and the promoted coordinator is serving.
    ``elapsed`` is detection-to-serving seconds."""

    kind = "failover_complete"

    standby: str = ""
    jobs_recovered: int = 0
    elapsed: float = 0.0


@dataclass(frozen=True, kw_only=True)
class Span(TelemetryEvent):
    """A named duration; ``ts`` is the epoch start time."""

    kind = "span"

    name: str = ""
    duration: float = 0.0
    span_id: str = ""
    parent_id: str = ""
    attrs: dict[str, Any] = field(default_factory=dict)


#: kind tag -> event class, for JSONL reconstruction
EVENT_KINDS: dict[str, Type[TelemetryEvent]] = {
    cls.kind: cls
    for cls in (
        JobSubmit, JobDispatch, JobFinish, WalkStart, WalkFinish,
        IterationMilestone, RestartEvent, ResetEvent, AssignEvent,
        CancelBroadcast, CancelAck, FirstSolve, HedgeDispatch,
        EliteReport, EliteAdopt, Migration, FaultInjected,
        FailoverBegin, FailoverComplete, Span,
    )
}


def event_to_record(event: TelemetryEvent, proc: str = "") -> dict[str, Any]:
    """Flatten an event into the JSONL record shape.

    Tuples become lists (JSON has no tuples); ``event_from_record``
    restores them from the dataclass field types.
    """
    record = dataclasses.asdict(event)
    record["event"] = event.kind
    if proc:
        record["proc"] = proc
    for key, value in record.items():
        if isinstance(value, tuple):
            record[key] = list(value)
    return record


def event_from_record(record: dict[str, Any]) -> TelemetryEvent:
    """Reconstruct the typed event from a JSONL record (strict)."""
    kind = record.get("event")
    cls = EVENT_KINDS.get(kind)  # type: ignore[arg-type]
    if cls is None:
        raise TelemetryError(f"unknown event kind {kind!r} in trace record")
    kwargs: dict[str, Any] = {}
    for f in dataclasses.fields(cls):
        if f.name not in record:
            continue
        value = record[f.name]
        if isinstance(value, list) and f.type.startswith("tuple"):
            value = tuple(value)
        kwargs[f.name] = value
    return cls(**kwargs)


@dataclass(frozen=True)
class TraceContext:
    """Picklable trace token carried through every layer of one solve."""

    trace_id: str
    job_id: int = -1
    walk_id: int = -1

    def for_walk(self, walk_id: int) -> "TraceContext":
        return TraceContext(self.trace_id, self.job_id, walk_id)

    def for_job(self, job_id: int) -> "TraceContext":
        return TraceContext(self.trace_id, job_id, self.walk_id)

    def to_wire(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "job_id": self.job_id,
            "walk_id": self.walk_id,
        }

    @classmethod
    def from_wire(cls, data: Optional[dict[str, Any]]) -> Optional["TraceContext"]:
        if not data or not data.get("trace_id"):
            return None
        return cls(
            trace_id=data["trace_id"],
            job_id=int(data.get("job_id", -1)),
            walk_id=int(data.get("walk_id", -1)),
        )
