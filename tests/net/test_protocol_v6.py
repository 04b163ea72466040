"""Protocol v6 (cooperative search frames) codec + handshake tests.

Three concerns:

1. the new ``elite_report`` / ``elite_push`` / ``island_stats`` frames
   round-trip through the codec, blobs included;
2. damaged v6 frames die cleanly (hypothesis fuzz, same harness as the
   v3 CRC tests in ``test_protocol_fuzz.py``);
3. the handshake is strict: peers are built from one tree, so any
   ``protocol`` other than the integer ``PROTOCOL_VERSION`` is rejected
   with an error naming both versions.
"""

import socket
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetError
from repro.net import LocalCluster
from repro.net.protocol import (
    PROTOCOL_VERSION,
    Message,
    decode_frame_body,
    encode_message,
    pickle_blob,
    recv_message,
    send_message,
    unpickle_blob,
)


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
    def test_v6_window(self):
        # the v6 frames belong to the one version every peer speaks
        assert PROTOCOL_VERSION >= 6


class TestV6FrameCodec:
    def test_elite_report_roundtrip(self):
        config = np.arange(16, dtype=np.int64)
        msg = Message(
            "elite_report",
            {"job_id": 3, "island": 1, "round_index": 4, "cost": 12.5},
            blob=pickle_blob(config),
        )
        out = roundtrip(msg)
        assert out.type == "elite_report"
        assert out["island"] == 1
        assert out["round_index"] == 4
        assert out["cost"] == 12.5
        np.testing.assert_array_equal(unpickle_blob(out.blob), config)

    def test_elite_push_roundtrip_with_raw_blob_list(self):
        """The push blob is a pickled list of *raw* report blobs — the
        coordinator relays configurations without unpickling them."""
        raw = [
            pickle_blob(np.arange(9, dtype=np.int64)),
            pickle_blob(np.arange(9, dtype=np.int64)[::-1].copy()),
        ]
        msg = Message(
            "elite_push",
            {
                "job_id": 3,
                "island": 0,
                "round_index": 4,
                "migrants": [
                    {"from": 1, "cost": 3.0},
                    {"from": 2, "cost": 5.0},
                ],
            },
            blob=pickle_blob(raw),
        )
        out = roundtrip(msg)
        assert out.type == "elite_push"
        assert [m["from"] for m in out["migrants"]] == [1, 2]
        decoded = [unpickle_blob(b) for b in unpickle_blob(out.blob)]
        np.testing.assert_array_equal(
            decoded[0], np.arange(9, dtype=np.int64)
        )

    def test_empty_push_roundtrip(self):
        """A completed round that routed nothing still pushes a frame."""
        out = roundtrip(
            Message(
                "elite_push",
                {"job_id": 1, "island": 2, "round_index": 7, "migrants": []},
            )
        )
        assert out["migrants"] == []
        assert out.blob is None

    def test_island_stats_roundtrip(self):
        msg = Message(
            "island_stats",
            {
                "job_id": 2,
                "island": 3,
                "rounds": 12,
                "reports_sent": 11,
                "adoptions": 4,
                "migrations_in": 9,
                "migrations_lost": 2,
            },
        )
        out = roundtrip(msg)
        assert out["migrations_lost"] == 2
        assert out["rounds"] == 12


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
    island=st.integers(min_value=0, max_value=10_000),
    cost=st.floats(allow_nan=False, allow_infinity=False, width=32),
    blob=st.binary(max_size=128),
    cut=st.integers(min_value=1, max_value=10_000),
)
def test_truncated_v6_frame_never_hangs(island, cost, blob, cut):
    frame = encode_message(
        Message(
            "elite_report",
            {"job_id": 0, "island": island, "round_index": 1, "cost": cost},
            blob=blob,
        )
    )
    cut = min(cut, len(frame))
    if cut == len(frame):
        out = _recv_bytes(frame)
        assert out is not None and out["island"] == island
        return
    with pytest.raises(NetError):
        _recv_bytes(frame[:cut])


@settings(max_examples=80, deadline=None)
@given(
    migrants=st.lists(
        st.fixed_dictionaries(
            {
                "from": st.integers(min_value=0, max_value=64),
                "cost": st.floats(allow_nan=False, allow_infinity=False),
            }
        ),
        max_size=4,
    ),
    bit=st.integers(min_value=0, max_value=7),
    data=st.data(),
)
def test_bit_flipped_elite_push_always_rejected(migrants, bit, data):
    frame = bytearray(
        encode_message(
            Message(
                "elite_push",
                {"job_id": 1, "island": 0, "round_index": 2,
                 "migrants": migrants},
                blob=pickle_blob([b"x" * 8]),
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
class TestNegotiateDown:
    """The negotiate-down window is retired: one version, strict reject."""

    @pytest.mark.parametrize(
        "version", [5, 6, PROTOCOL_VERSION + 1, str(PROTOCOL_VERSION), None]
    )
    def test_any_other_version_is_rejected_naming_both(self, cluster, version):
        sock, reply = _handshake(
            cluster, {"role": "node", "name": "odd", "protocol": version}
        )
        try:
            assert reply is not None and reply.type == "reject"
            assert reply["protocol"] == PROTOCOL_VERSION
            assert "mismatch" in reply["error"]
            assert f"speaks {PROTOCOL_VERSION}," in reply["error"]
            assert f"peer sent {version!r}" in reply["error"]
            # graceful close: the reject was readable, then a clean EOF
            assert recv_message(sock) is None
        finally:
            sock.close()

    def test_below_window_version_rejected(self, cluster):
        sock, reply = _handshake(cluster, {"role": "client", "protocol": 4})
        try:
            assert reply is not None and reply.type == "reject"
            assert "mismatch" in reply["error"]
            assert "min_protocol" not in reply.fields
        finally:
            sock.close()

    def test_bool_version_is_not_an_int(self, cluster):
        # True == 1 numerically; the handshake must not be fooled
        sock, reply = _handshake(cluster, {"role": "client", "protocol": True})
        try:
            assert reply is not None and reply.type == "reject"
        finally:
            sock.close()

    def test_current_version_is_welcomed_without_negotiation(self, cluster):
        sock, welcome = _handshake(
            cluster, {"role": "client", "protocol": PROTOCOL_VERSION}
        )
        try:
            assert welcome is not None and welcome.type == "welcome"
            assert welcome.fields == {"protocol": PROTOCOL_VERSION}
        finally:
            sock.close()
