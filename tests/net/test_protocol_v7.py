"""Protocol v7 (high availability frames) codec + handshake tests.

Mirrors the v6 test layout, three concerns again:

1. the new ``replica_snapshot`` / ``replica_record`` / ``lease`` frames
   round-trip through the codec;
2. damaged v7 frames die cleanly (hypothesis fuzz, same harness as the
   v3 CRC tests in ``test_protocol_fuzz.py``);
3. the replica handshake: a standby speaking another version is
   rejected like any other peer (strict single version, see
   ``test_protocol_v6.py``), and a proper replica hello gets the welcome
   + snapshot stream.
"""

import socket
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetError
from repro.net import LocalCluster
from repro.net.protocol import (
    PROTOCOL_VERSION,
    Message,
    decode_frame_body,
    encode_message,
    recv_message,
    send_message,
)
from repro.problems import make_problem


def roundtrip(message: Message) -> Message:
    frame = encode_message(message)
    body_len = int.from_bytes(frame[:4], "big")
    kind = frame[4]
    crc = int.from_bytes(frame[5:9], "big")
    body = frame[9:]
    assert body_len == len(body)
    assert crc == zlib.crc32(body)
    return decode_frame_body(kind, body)


class TestVersionWindow:
    def test_v7_window(self):
        assert PROTOCOL_VERSION == 7


class TestV7FrameCodec:
    def test_lease_roundtrip(self):
        out = roundtrip(
            Message(
                "lease",
                {"sent_at": 123.5, "jobs_active": 3, "jobs_pending": 1},
            )
        )
        assert out.type == "lease"
        assert out["sent_at"] == 123.5
        assert out["jobs_active"] == 3
        assert out["jobs_pending"] == 1

    def test_replica_record_roundtrip(self):
        record = {
            "kind": "submit",
            "job_id": 9,
            "n_walkers": 4,
            "generation": 2,
            "priority": 1,
            "client_key": "abc-123",
            "coop": {"topology": "ring", "seed": 7},
        }
        out = roundtrip(Message("replica_record", {"record": record}))
        assert out.type == "replica_record"
        assert out["record"] == record

    def test_replica_snapshot_roundtrip(self):
        records = [
            {"kind": "submit", "job_id": 1, "generation": 0},
            {"kind": "generation", "job_id": 1, "generation": 3},
        ]
        out = roundtrip(Message("replica_snapshot", {"records": records}))
        assert out.type == "replica_snapshot"
        assert out["records"] == records
        assert out.blob is None


def _recv_bytes(data: bytes):
    left, right = socket.socketpair()
    try:
        left.sendall(data)
        left.close()
        return recv_message(right)
    finally:
        right.close()


@settings(max_examples=60, deadline=None)
@given(
    job_id=st.integers(min_value=0, max_value=10_000),
    generation=st.integers(min_value=0, max_value=64),
    cut=st.integers(min_value=1, max_value=10_000),
)
def test_truncated_replica_record_never_hangs(job_id, generation, cut):
    frame = encode_message(
        Message(
            "replica_record",
            {
                "record": {
                    "kind": "generation",
                    "job_id": job_id,
                    "generation": generation,
                }
            },
        )
    )
    cut = min(cut, len(frame))
    if cut == len(frame):
        out = _recv_bytes(frame)
        assert out is not None and out["record"]["job_id"] == job_id
        return
    with pytest.raises(NetError):
        _recv_bytes(frame[:cut])


@settings(max_examples=80, deadline=None)
@given(
    sent_at=st.floats(
        allow_nan=False, allow_infinity=False, min_value=0, max_value=1e9
    ),
    bit=st.integers(min_value=0, max_value=7),
    data=st.data(),
)
def test_bit_flipped_lease_always_rejected(sent_at, bit, data):
    frame = bytearray(
        encode_message(
            Message(
                "lease",
                {"sent_at": sent_at, "jobs_active": 1, "jobs_pending": 0},
            )
        )
    )
    index = data.draw(
        st.integers(min_value=0, max_value=len(frame) - 1), label="index"
    )
    frame[index] ^= 1 << bit
    with pytest.raises(NetError):
        _recv_bytes(bytes(frame))


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(n_nodes=1, workers_per_node=1) as local:
        yield local


def _handshake(cluster, hello_payload):
    sock = socket.create_connection(cluster.address, timeout=10)
    try:
        send_message(sock, Message("hello", hello_payload))
        return sock, recv_message(sock)
    except BaseException:
        sock.close()
        raise


@pytest.mark.slow
class TestReplicaHandshake:
    def test_v6_replica_hello_is_rejected(self, cluster):
        sock, reply = _handshake(cluster, {"role": "replica", "protocol": 6})
        try:
            assert reply is not None and reply.type == "reject"
            assert reply["protocol"] == PROTOCOL_VERSION
            assert "peer sent 6" in reply["error"]
        finally:
            sock.close()

    def test_v7_replica_gets_welcome_then_snapshot(self, cluster):
        # pre-load one live job so the snapshot is non-trivial
        client = cluster.client()
        problem = make_problem("magic_square", n=4)
        result = client.solve(problem, 1, seed=1, timeout=120)
        assert result.solved
        sock, welcome = _handshake(
            cluster, {"role": "replica", "protocol": PROTOCOL_VERSION}
        )
        try:
            assert welcome is not None and welcome.type == "welcome"
            assert welcome["protocol"] == PROTOCOL_VERSION
            snapshot = recv_message(sock)
            assert snapshot is not None
            assert snapshot.type == "replica_snapshot"
            assert isinstance(snapshot.get("records"), list)
        finally:
            sock.close()
