"""Trace reconstruction: merge per-process JSONL files into one timeline.

A traced distributed solve leaves one JSONL file per process in the trace
directory (``client.jsonl``, ``coordinator.jsonl``, ``node-0.jsonl``,
worker records shipped through the node files...).  :func:`load_trace`
merges them, :func:`analyze_trace` folds the merged records into a
:class:`TraceSummary` (per-walk timing, dispatch overhead, cancel
latency), and the render helpers print the human timeline + latency
breakdown that back the ``repro trace`` CLI verb.

All cross-process ordering uses the wall-clock ``ts`` stamps; durations
(spans, cancel latency) were measured on monotonic clocks inside one
process, so the *numbers* are skew-free even if the ordering between
hosts is only as good as their clock sync.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.errors import TelemetryError
from repro.telemetry.sinks import read_jsonl

__all__ = [
    "WalkTimeline",
    "TraceSummary",
    "load_trace",
    "analyze_trace",
    "render_timeline",
    "render_report",
]


def load_trace(path: str | Path) -> list[dict[str, Any]]:
    """Load one trace file or every ``*.jsonl`` in a directory, merged and
    sorted by timestamp."""
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.jsonl"))
        if not files:
            raise TelemetryError(f"no .jsonl trace files under {path}")
        records: list[dict[str, Any]] = []
        for file in files:
            records.extend(read_jsonl(file))
    elif path.is_file():
        records = read_jsonl(path)
    else:
        raise TelemetryError(f"trace path {path} does not exist")
    records.sort(key=lambda r: r.get("ts", 0.0))
    return records


@dataclass
class WalkTimeline:
    """Reconstructed lifecycle of one walk of the traced job."""

    walk_id: int
    dispatch_ts: Optional[float] = None
    start_ts: Optional[float] = None
    finish_ts: Optional[float] = None
    node: str = ""
    proc: str = ""
    solved: bool = False
    iterations: int = 0
    wall_time: float = 0.0

    @property
    def dispatch_overhead(self) -> Optional[float]:
        """Dispatch decision -> walk actually iterating (seconds)."""
        if self.dispatch_ts is None or self.start_ts is None:
            return None
        return max(0.0, self.start_ts - self.dispatch_ts)


@dataclass
class TraceSummary:
    """Everything :func:`analyze_trace` can say about one traced solve."""

    trace_id: str = ""
    submit_ts: Optional[float] = None
    finish_ts: Optional[float] = None
    status: str = ""
    n_events: int = 0
    walks: dict[int, WalkTimeline] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)
    assigns: list[dict[str, Any]] = field(default_factory=list)
    cancel_broadcast_ts: Optional[float] = None
    cancel_acks: list[dict[str, Any]] = field(default_factory=list)
    first_solve: Optional[dict[str, Any]] = None
    restarts: int = 0
    resets: int = 0
    hedges: list[dict[str, Any]] = field(default_factory=list)
    faults: list[dict[str, Any]] = field(default_factory=list)
    elite_reports: list[dict[str, Any]] = field(default_factory=list)
    elite_adopts: list[dict[str, Any]] = field(default_factory=list)
    migrations: list[dict[str, Any]] = field(default_factory=list)
    failovers: list[dict[str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def roundtrip(self) -> Optional[float]:
        """Client-observed submit -> finish, when both ends were traced."""
        if self.submit_ts is None or self.finish_ts is None:
            return None
        return max(0.0, self.finish_ts - self.submit_ts)

    @property
    def dispatch_overheads(self) -> list[float]:
        return sorted(
            w.dispatch_overhead
            for w in self.walks.values()
            if w.dispatch_overhead is not None
        )

    @property
    def cancel_latencies(self) -> list[float]:
        return sorted(a["latency"] for a in self.cancel_acks)

    @property
    def complete(self) -> bool:
        """Does the trace cover the full dispatch -> solve -> cancel arc?"""
        return (
            self.submit_ts is not None
            and any(w.start_ts is not None for w in self.walks.values())
            and any(w.finish_ts is not None for w in self.walks.values())
            and self.first_solve is not None
            and self.cancel_broadcast_ts is not None
            and len(self.cancel_acks) > 0
        )


#: precedence of terminal statuses when one trace carries several
#: ``job_finish`` events (higher wins; "cancelled" is the weakest because
#: losing sub-jobs of a *solved* race finish cancelled by design)
_STATUS_RANK = {"cancelled": 1, "timed_out": 2, "failed": 3, "solved": 4}


def _walk(summary: TraceSummary, walk_id: int) -> WalkTimeline:
    timeline = summary.walks.get(walk_id)
    if timeline is None:
        timeline = WalkTimeline(walk_id=walk_id)
        summary.walks[walk_id] = timeline
    return timeline


def analyze_trace(
    records: list[dict[str, Any]], trace_id: str | None = None
) -> TraceSummary:
    """Fold merged trace records into a :class:`TraceSummary`.

    With ``trace_id=None`` the dominant trace id in the records is
    analyzed (most solves produce exactly one); pass an explicit id to
    pick one solve out of a busy trace directory.
    """
    if trace_id is None:
        counts: dict[str, int] = {}
        for record in records:
            tid = record.get("trace_id") or ""
            if tid:
                counts[tid] = counts.get(tid, 0) + 1
        if counts:
            trace_id = max(counts, key=counts.get)  # type: ignore[arg-type]
    summary = TraceSummary(trace_id=trace_id or "")
    for record in records:
        if trace_id and record.get("trace_id") not in ("", trace_id):
            continue
        summary.n_events += 1
        kind = record.get("event")
        ts = record.get("ts", 0.0)
        walk_id = record.get("walk_id", -1)
        if kind == "job_submit":
            if summary.submit_ts is None or ts < summary.submit_ts:
                summary.submit_ts = ts
        elif kind == "job_dispatch":
            # a pool slice dispatches several walks in one event
            for dispatched in record.get("walk_ids") or (walk_id,):
                timeline = _walk(summary, dispatched)
                if timeline.dispatch_ts is None or ts < timeline.dispatch_ts:
                    timeline.dispatch_ts = ts
                if record.get("node"):
                    timeline.node = record["node"]
        elif kind == "walk_start":
            timeline = _walk(summary, walk_id)
            if timeline.start_ts is None or ts < timeline.start_ts:
                timeline.start_ts = ts
                timeline.proc = record.get("proc", "")
        elif kind == "walk_finish":
            timeline = _walk(summary, walk_id)
            timeline.finish_ts = ts
            timeline.solved = bool(record.get("solved"))
            timeline.iterations = int(record.get("iterations", 0))
            timeline.wall_time = float(record.get("wall_time", 0.0))
        elif kind == "assign":
            summary.assigns.append(record)
            for assigned in record.get("walk_ids", ()):
                timeline = _walk(summary, assigned)
                if record.get("node") and not timeline.node:
                    timeline.node = record["node"]
        elif kind == "cancel_broadcast":
            if (
                summary.cancel_broadcast_ts is None
                or ts < summary.cancel_broadcast_ts
            ):
                summary.cancel_broadcast_ts = ts
        elif kind == "cancel_ack":
            summary.cancel_acks.append(record)
        elif kind == "first_solve":
            if summary.first_solve is None:
                summary.first_solve = record
        elif kind == "job_finish":
            if summary.finish_ts is None or ts > summary.finish_ts:
                summary.finish_ts = ts
            # several layers emit a finish for the same solve (client,
            # coordinator, per-node sub-jobs); the most decisive status
            # wins, so a late node-local "cancelled" (a loser sub-job)
            # cannot mask the job having been solved
            status = record.get("status", "")
            rank = _STATUS_RANK.get(status, 0)
            if rank >= _STATUS_RANK.get(summary.status, -1):
                summary.status = status
        elif kind == "restart":
            summary.restarts += 1
        elif kind == "reset":
            summary.resets += 1
        elif kind == "hedge":
            summary.hedges.append(record)
        elif kind == "elite_report":
            summary.elite_reports.append(record)
        elif kind == "elite_adopt":
            summary.elite_adopts.append(record)
        elif kind == "migration":
            summary.migrations.append(record)
        elif kind in ("failover_begin", "failover_complete"):
            summary.failovers.append(record)
        elif kind == "fault":
            summary.faults.append(record)
        elif kind == "span":
            summary.spans.append(record)
    return summary


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f}ms"


def render_timeline(
    records: list[dict[str, Any]], summary: TraceSummary
) -> str:
    """Chronological event listing, offsets relative to the submit."""
    origin = summary.submit_ts
    if origin is None:
        stamps = [r.get("ts", 0.0) for r in records if r.get("ts")]
        origin = min(stamps) if stamps else 0.0
    lines = [f"trace {summary.trace_id or '<untagged>'}"]
    for record in records:
        if summary.trace_id and record.get("trace_id") not in (
            "",
            summary.trace_id,
        ):
            continue
        kind = record.get("event", "?")
        if kind == "iteration":
            continue  # milestones are for metrics, not the timeline listing
        offset = record.get("ts", 0.0) - origin
        proc = record.get("proc", "?")
        detail = _describe(record)
        lines.append(f"  +{offset * 1e3:9.1f}ms  [{proc:>12}]  {detail}")
    return "\n".join(lines)


def _describe(record: dict[str, Any]) -> str:
    kind = record.get("event", "?")
    if kind == "job_submit":
        return (
            f"job_submit job={record.get('job_id')} "
            f"n_walkers={record.get('n_walkers')} "
            f"problem={record.get('problem') or '?'}"
        )
    if kind == "assign":
        return (
            f"assign job={record.get('job_id')} -> {record.get('node')} "
            f"walks={record.get('walk_ids')} gen={record.get('generation')}"
        )
    if kind == "job_dispatch":
        where = record.get("node") or f"worker {record.get('worker')}"
        if record.get("lanes"):
            walks = ",".join(str(w) for w in record.get("walk_ids", ()))
            kernel = record.get("kernel")
            lanes = record["lanes"]
            return (
                f"dispatch job={record.get('job_id')} walks={walks} "
                f"as {lanes} lane{'s' if lanes > 1 else ''} -> {where}"
                + (f" kernel={kernel}" if kernel else "")
            )
        return (
            f"dispatch job={record.get('job_id')} "
            f"walk={record.get('walk_id')} -> {where}"
        )
    if kind == "walk_start":
        return (
            f"walk_start walk={record.get('walk_id')} "
            f"cost={record.get('cost')}"
        )
    if kind == "walk_finish":
        verdict = "SOLVED" if record.get("solved") else "unsolved"
        return (
            f"walk_finish walk={record.get('walk_id')} {verdict} "
            f"iters={record.get('iterations')} "
            f"wall={_ms(record.get('wall_time', 0.0))}"
        )
    if kind == "first_solve":
        return (
            f"first_solve walk={record.get('walk_id')} "
            f"on {record.get('node') or '?'}"
        )
    if kind == "cancel_broadcast":
        return (
            f"cancel_broadcast job={record.get('job_id')} "
            f"-> {list(record.get('nodes', ()))}"
        )
    if kind == "cancel_ack":
        return (
            f"cancel_ack from {record.get('node')} "
            f"rtt={_ms(record.get('latency', 0.0))}"
        )
    if kind == "job_finish":
        return (
            f"job_finish job={record.get('job_id')} "
            f"status={record.get('status')} "
            f"latency={_ms(record.get('latency', 0.0))}"
        )
    if kind == "span":
        return (
            f"span {record.get('name')} {_ms(record.get('duration', 0.0))}"
        )
    if kind == "hedge":
        line = (
            f"hedge job={record.get('job_id')} walk={record.get('walk_id')} "
            f"{record.get('from_node') or '?'} -> {record.get('node')} "
            f"after {_ms(record.get('elapsed', 0.0))}"
        )
        if record.get("trigger"):
            line += (
                f" [{record['trigger']} > "
                f"{_ms(record.get('threshold', 0.0))}]"
            )
        return line
    if kind == "elite_report":
        return (
            f"elite_report island={record.get('island')} "
            f"round={record.get('round_index')} "
            f"cost={record.get('cost')} from {record.get('node') or '?'}"
        )
    if kind == "elite_adopt":
        return (
            f"elite_adopt walk={record.get('walk_id')} "
            f"island={record.get('island')} "
            f"cost {record.get('cost_before')} -> {record.get('cost_elite')} "
            f"@iter {record.get('iteration')}"
        )
    if kind == "migration":
        return (
            f"migration round={record.get('round_index')} "
            f"island {record.get('from_island')} -> "
            f"{record.get('to_island')} "
            f"cost={record.get('cost')} digest={record.get('digest')}"
        )
    if kind == "failover_begin":
        return (
            f"failover_begin leader={record.get('leader')} "
            f"standby={record.get('standby')} "
            f"reason={record.get('reason')}"
        )
    if kind == "failover_complete":
        return (
            f"failover_complete standby={record.get('standby')} "
            f"jobs_recovered={record.get('jobs_recovered')} "
            f"took {_ms(record.get('elapsed', 0.0))}"
        )
    if kind == "fault":
        detail = record.get("detail") or ""
        return (
            f"fault injected: {record.get('site')}/{record.get('action')}"
            + (f" ({detail})" if detail else "")
        )
    if kind == "restart":
        return f"restart #{record.get('restart_index')} walk={record.get('walk_id')}"
    if kind == "reset":
        return (
            f"reset walk={record.get('walk_id')} "
            f"iter={record.get('iteration')}"
        )
    return " ".join(
        f"{k}={v}"
        for k, v in record.items()
        if k not in ("ts", "proc", "trace_id")
    )


def render_report(summary: TraceSummary) -> str:
    """Latency-breakdown report: per-walk spans, dispatch overhead,
    cancel-propagation latency."""
    lines: list[str] = ["", "latency breakdown"]
    if summary.roundtrip is not None:
        lines.append(
            f"  end-to-end           {_ms(summary.roundtrip)} "
            f"(status {summary.status or '?'})"
        )
    overheads = summary.dispatch_overheads
    if overheads:
        lines.append(
            f"  dispatch overhead    min {_ms(overheads[0])}  "
            f"median {_ms(overheads[len(overheads) // 2])}  "
            f"max {_ms(overheads[-1])}  ({len(overheads)} walks)"
        )
    acks = summary.cancel_latencies
    if acks:
        lines.append(
            f"  cancel propagation   min {_ms(acks[0])}  "
            f"median {_ms(acks[len(acks) // 2])}  "
            f"max {_ms(acks[-1])}  ({len(acks)} acks)"
        )
    if summary.first_solve is not None and summary.submit_ts is not None:
        lines.append(
            f"  time to first solve  "
            f"{_ms(summary.first_solve.get('ts', 0.0) - summary.submit_ts)}"
            f" (walk {summary.first_solve.get('walk_id')} on "
            f"{summary.first_solve.get('node') or '?'})"
        )
    lines.append("")
    lines.append(f"per-walk spans ({len(summary.walks)} walks)")
    for walk_id in sorted(summary.walks):
        walk = summary.walks[walk_id]
        parts = [f"  walk {walk_id:3d}"]
        if walk.node:
            parts.append(f"on {walk.node:<10}")
        if walk.dispatch_overhead is not None:
            parts.append(f"dispatch {_ms(walk.dispatch_overhead):>8}")
        if walk.finish_ts is not None:
            verdict = "SOLVED" if walk.solved else "unsolved"
            parts.append(
                f"busy {_ms(walk.wall_time):>9} "
                f"iters {walk.iterations:>7} {verdict}"
            )
        elif walk.start_ts is not None:
            parts.append("started, no finish recorded (cancelled mid-walk)")
        else:
            parts.append("never started (cancelled before dispatch landed)")
        lines.append("  ".join(parts))
    if summary.restarts or summary.resets:
        lines.append("")
        lines.append(
            f"solver: {summary.restarts} restart(s), "
            f"{summary.resets} partial reset(s)"
        )
    if summary.hedges:
        lines.append("")
        lines.append(f"hedged re-dispatches ({len(summary.hedges)})")
        for hedge in summary.hedges:
            attribution = ""
            if hedge.get("trigger"):
                # why it fired: which rule tripped and what threshold the
                # observed elapsed time exceeded
                attribution = (
                    f" [{hedge['trigger']} > "
                    f"{_ms(hedge.get('threshold', 0.0))}]"
                )
            lines.append(
                f"  walk {hedge.get('walk_id')} "
                f"{hedge.get('from_node') or '?'} -> {hedge.get('node')} "
                f"after {_ms(hedge.get('elapsed', 0.0))}"
                + attribution
            )
    if summary.migrations or summary.elite_reports or summary.elite_adopts:
        lines.append("")
        lines.append(
            f"cooperative search: {len(summary.elite_reports)} elite "
            f"report(s), {len(summary.migrations)} migration(s), "
            f"{len(summary.elite_adopts)} adoption(s)"
        )
        for migration in summary.migrations:
            lines.append(
                f"  round {migration.get('round_index'):>3}  "
                f"island {migration.get('from_island')} -> "
                f"{migration.get('to_island')}  "
                f"cost {migration.get('cost')}  "
                f"digest {migration.get('digest')}"
            )
    if summary.failovers:
        lines.append("")
        completes = [
            f for f in summary.failovers if f.get("event") == "failover_complete"
        ]
        lines.append(
            f"coordinator failover ({len(completes)} takeover(s))"
        )
        for record in summary.failovers:
            if record.get("event") == "failover_begin":
                lines.append(
                    f"  leader {record.get('leader')} lost "
                    f"({record.get('reason')}), standby "
                    f"{record.get('standby')} taking over"
                )
            else:
                lines.append(
                    f"  promoted {record.get('standby')} in "
                    f"{_ms(record.get('elapsed', 0.0))}, "
                    f"{record.get('jobs_recovered')} job(s) recovered"
                )
    if summary.faults:
        lines.append("")
        lines.append(
            f"injected faults ({len(summary.faults)}): "
            + ", ".join(
                f"{f.get('site')}/{f.get('action')}" for f in summary.faults
            )
        )
    return "\n".join(lines)
