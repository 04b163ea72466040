"""Framed wire protocol of the distributed backend.

Every message on a coordinator/agent/client connection is one
length-prefixed frame::

    uint32 body_len | uint8 kind | uint32 crc32 | body

with two body kinds,

``JSON`` (kind 0)
    UTF-8 JSON object holding ``{"type": ..., **fields}`` — all control
    traffic (handshakes, heartbeats, cancels, stats) is JSON so a frame can
    be inspected with nothing but a hex dump and ``json.loads``;
``BLOB`` (kind 1)
    ``uint32 header_len | JSON header | raw bytes`` — control header plus
    an opaque binary payload (pickled problem instances, seed sequences,
    solution configurations) that would be wasteful or impossible as JSON.

Both directions speak the same frames; :class:`Message` is the symmetric
in-memory form.  The module offers the codec twice: asyncio stream helpers
(:func:`read_message` / :func:`write_message`) for the coordinator and node
agents, and blocking socket helpers (:func:`recv_message` /
:func:`send_message`) for the synchronous client.

Security note: BLOB payloads are unpickled by the receiver, which is only
acceptable between mutually trusted processes — the coordinator and its
agents are assumed to live inside one trust domain (a private cluster
network), exactly like the paper's MPI ranks.

Handshake
---------
The first frame on any connection must be ``hello`` carrying ``role``
(``"node"``, ``"client"`` or ``"replica"``) and ``protocol``; the
coordinator answers ``welcome`` (echoing its version; a node also gets its
``node_id``) or ``reject`` + close.  Peers are built from one tree, so
there is exactly one version: any ``protocol`` other than the integer
:data:`PROTOCOL_VERSION` is rejected with an error naming both versions.

Frame set
---------
Everything optional below is simply absent when unused, so a plain
independent job's frames carry none of it.

- **Jobs** — client ``submit`` (blob: pickled problem, config, seeds;
  fields ``n_walkers``, ``trace_id``, ``client_key`` idempotent
  resubmission token, ``deadline`` seconds of cluster-side budget,
  ``priority`` int where higher dispatches sooner and 0 keeps FIFO,
  ``coop``) answered by ``job_accepted`` then ``job_result`` (or
  ``error``); coordinator ``assign`` to a node (walk ids, generation,
  priority, ``problem_digest`` — see
  :func:`repro.parallel.shm.problem_digest` — with the pickled problem
  itself only the *first* time a digest goes to a connection; the node
  caches problems by digest, so repeat assigns are a few hundred bytes);
  node ``walk_result`` per finished walk.
- **Cancellation** — ``cancel`` carries ``sent_at`` (the coordinator's
  monotonic send stamp) and nodes answer ``cancel_ack`` echoing it
  verbatim, so cancel-propagation round trips are measured on the
  coordinator's *own* clock (no cross-host skew).
- **Liveness** — node ``heartbeat`` with a full ``load`` snapshot or a
  ``load_delta`` (changed keys only) and ``progress`` (per-walk iteration
  counts feeding the straggler detector); ``stats`` request/response;
  ``hello`` may carry ``reconnect`` (keep this client's jobs alive across
  a disconnect).
- **Cooperative search** — a ``coop`` object on ``submit`` (the
  :class:`~repro.coop.config.CoopConfig` wire dict) rides into ``assign``
  together with an ``island`` id; island agents send ``elite_report``
  (island's best cost + pickled configuration per migration round) and
  receive ``elite_push`` (the coordinator's topology-routed migrant batch
  for that round); a finishing island sends one ``island_stats`` frame
  folding its adoption and migration-loss counters into the job result.
- **High availability** — to a ``replica`` (hot-standby coordinator) the
  leader answers ``welcome``, then one ``replica_snapshot`` frame (the
  journal-style records of every live job, so a late-attaching standby
  starts from the leader's current truth) and one ``replica_record`` per
  subsequent journal append (submit / generation / finish, carrying
  priority and coop metadata verbatim) — the write-ahead journal, tailed
  over the wire.  The leader broadcasts periodic ``lease`` frames from
  its heartbeat watchdog to standbys *and* node agents (whose connections
  can outlive a dead leader without ever seeing an EOF, e.g. when forked
  workers still hold the socket's fd; lease silence is their re-homing
  trigger).  A standby whose lease goes silent past its
  ``lease_timeout`` (or whose connection drops) promotes itself: it
  replays its mirrored journal through the ordinary recovery path, bumps
  every generation, and re-dispatches in-flight walks under the existing
  exactly-one-winner ``client_key`` dedup.

History: v2 added telemetry fields and ``cancel_ack``, v3 the CRC and
resilience fields, v4 digest dedup, v5 priority, v6 the cooperative
frames, v7 the replica role and leases.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import socket
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.chaos import hooks as _chaos
from repro.errors import NetError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "Message",
    "encode_message",
    "decode_frame_body",
    "read_message",
    "write_message",
    "recv_message",
    "send_message",
    "pickle_blob",
    "unpickle_blob",
]

PROTOCOL_VERSION = 7

#: hard frame-size ceiling: a problem pickle is kilobytes, so anything in
#: the hundreds of megabytes is a corrupt length prefix, not a real frame
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct("!IBI")  # body length, kind, crc32(body)
_LEN = struct.Struct("!I")

_KIND_JSON = 0
_KIND_BLOB = 1


@dataclass(frozen=True)
class Message:
    """One decoded frame: a type tag, JSON-safe fields, optional blob."""

    type: str
    fields: dict[str, Any] = field(default_factory=dict)
    blob: Optional[bytes] = None

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


def pickle_blob(obj: Any) -> bytes:
    """Serialize an arbitrary object for a BLOB frame."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def unpickle_blob(blob: Optional[bytes]) -> Any:
    if blob is None:
        raise NetError("message carries no binary payload")
    return pickle.loads(blob)


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
def encode_message(message: Message) -> bytes:
    """Encode one message into a complete wire frame."""
    header = dict(message.fields)
    header["type"] = message.type
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if message.blob is None:
        body = header_bytes
        kind = _KIND_JSON
    else:
        body = _LEN.pack(len(header_bytes)) + header_bytes + message.blob
        kind = _KIND_BLOB
    if len(body) > MAX_FRAME_BYTES:
        raise NetError(
            f"refusing to send a {len(body)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(len(body), kind, zlib.crc32(body)) + body


def _verify_crc(body: bytes, expected: int) -> None:
    """Protocol v3: reject a frame whose body fails its CRC32."""
    actual = zlib.crc32(body)
    if actual != expected:
        raise NetError(
            f"frame CRC mismatch (got {actual:#010x}, header says "
            f"{expected:#010x}); closing connection"
        )


def decode_frame_body(kind: int, body: bytes) -> Message:
    """Decode a frame body (everything after the header)."""
    if kind == _KIND_JSON:
        header_bytes, blob = body, None
    elif kind == _KIND_BLOB:
        if len(body) < _LEN.size:
            raise NetError("truncated BLOB frame")
        (header_len,) = _LEN.unpack_from(body)
        if _LEN.size + header_len > len(body):
            raise NetError("BLOB frame header overruns the frame")
        header_bytes = body[_LEN.size : _LEN.size + header_len]
        blob = body[_LEN.size + header_len :]
    else:
        raise NetError(f"unknown frame kind {kind}")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise NetError(f"malformed frame header: {err}") from None
    if not isinstance(header, dict) or "type" not in header:
        raise NetError(f"frame header is not a typed object: {header!r}")
    message_type = header.pop("type")
    return Message(type=message_type, fields=header, blob=blob)


def _check_length(body_len: int) -> None:
    if body_len > MAX_FRAME_BYTES:
        raise NetError(
            f"incoming frame claims {body_len} bytes "
            f"(limit {MAX_FRAME_BYTES}); closing connection"
        )


def _faulted_frames(
    plan: Any, message: Message, frame: bytes
) -> tuple[list[bytes], float]:
    """Apply an installed fault plan to one outgoing frame.

    Returns the frames to actually put on the wire (empty = dropped,
    doubled = duplicated) and a pre-send delay in seconds.
    """
    fault = plan.frame_fault(message.type)
    if fault is None:
        return [frame], 0.0
    if fault.action == "drop":
        return [], 0.0
    if fault.action == "delay":
        return [frame], fault.delay
    if fault.action == "corrupt":
        return [plan.corrupt_frame(frame, _HEADER.size)], 0.0
    return [frame, frame], 0.0  # duplicate


# ----------------------------------------------------------------------
# asyncio streams (coordinator, node agents)
# ----------------------------------------------------------------------
async def read_message(reader: asyncio.StreamReader) -> Optional[Message]:
    """Read one message; ``None`` on a clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as err:
        if not err.partial:
            return None
        raise NetError("connection closed mid-frame") from None
    body_len, kind, crc = _HEADER.unpack(header)
    _check_length(body_len)
    try:
        body = await reader.readexactly(body_len)
    except asyncio.IncompleteReadError:
        raise NetError("connection closed mid-frame") from None
    _verify_crc(body, crc)
    return decode_frame_body(kind, body)


async def write_message(
    writer: asyncio.StreamWriter, message: Message
) -> None:
    """Write one message and drain the transport."""
    frame = encode_message(message)
    plan = _chaos.active()
    if plan is not None:
        frames, delay = _faulted_frames(plan, message, frame)
        if delay:
            await asyncio.sleep(delay)
        if not frames:
            return
        for faulted in frames:
            writer.write(faulted)
        await writer.drain()
        return
    writer.write(frame)
    await writer.drain()


# ----------------------------------------------------------------------
# blocking sockets (synchronous client)
# ----------------------------------------------------------------------
def _recv_exactly(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == n:
                return None  # clean EOF at a frame boundary
            raise NetError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[Message]:
    """Blocking read of one message; ``None`` on clean EOF."""
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    body_len, kind, crc = _HEADER.unpack(header)
    _check_length(body_len)
    body = _recv_exactly(sock, body_len) if body_len else b""
    if body is None:
        raise NetError("connection closed mid-frame")
    _verify_crc(body, crc)
    return decode_frame_body(kind, body)


def send_message(sock: socket.socket, message: Message) -> None:
    """Blocking write of one complete frame."""
    frame = encode_message(message)
    plan = _chaos.active()
    if plan is not None:
        frames, delay = _faulted_frames(plan, message, frame)
        if delay:
            time.sleep(delay)
        for faulted in frames:
            sock.sendall(faulted)
        return
    sock.sendall(frame)
