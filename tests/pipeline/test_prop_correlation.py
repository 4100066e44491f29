"""Property: pipelined correlation survives any reordering and any drops.

A stub frame-level server replies to a batch of requests in a
Hypothesis-chosen permutation, silently dropping a Hypothesis-chosen
subset, then closes the connection.  Whatever the schedule: every
answered request's future resolves with the reply carrying *its*
correlation id, and every dropped request fails with
``TransportFailure`` — never a misdelivered or stranded future.

The same schedules then run through ``request`` with a retry policy:
every caller gets *its* reply, each dropped id is re-sent exactly once
with the same bytes, and no answered id goes on the wire twice.
"""

from __future__ import annotations

import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.framing import DEFAULT_MAX_FRAME_SIZE, encode_frame, read_frame
from repro.net.pipeline import (
    PipelinedClient,
    extract_correlation,
    extract_message_id,
)
from repro.protocol.errors import TransportFailure
from repro.protocol.retry import RetryPolicy
from repro.protocol.soap import SoapCodec

from .conftest import grant_message

pytestmark = pytest.mark.pipeline


def request_payload(index: int) -> bytes:
    return (
        f'<envelope><routing message-id="m-{index}" sender="cli" '
        f'recipient="stub" correlation="" /></envelope>'
    ).encode()


def reply_payload(index: int, correlation: str) -> bytes:
    return (
        f'<envelope><routing message-id="srv-{index}" sender="stub" '
        f'recipient="cli" correlation="{correlation}" /></envelope>'
    ).encode()


class ReorderServer:
    """Accept one connection; answer ``order``'s requests, skip ``drops``.

    With ``second_chance`` a second connection is then accepted on which
    the dropped requests, redelivered, are all answered.
    """

    def __init__(
        self,
        count: int,
        order: list[int],
        drops: set[int],
        second_chance: bool = False,
    ):
        self.count = count
        self.order = order
        self.drops = drops
        self.second_chance = second_chance
        self.frames: list[bytes] = []
        self.error: BaseException | None = None
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self._listener.settimeout(5)
        self.address = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            self._answer(self.count, self.drops)
            if self.second_chance and self.drops:
                self._answer(len(self.drops), set())
        except BaseException as exc:  # noqa: BLE001 - surfaced by the test
            self.error = exc

    def _answer(self, expected: int, drops: set[int]):
        conn, _ = self._listener.accept()
        conn.settimeout(5)
        try:
            ids: dict[int, str] = {}
            for _ in range(expected):
                frame = read_frame(conn.recv, DEFAULT_MAX_FRAME_SIZE)
                assert frame is not None
                self.frames.append(frame)
                message_id = extract_message_id(frame)
                assert message_id is not None
                ids[int(message_id.removeprefix("m-"))] = message_id
            for index in self.order:
                if index in drops or index not in ids:
                    continue
                conn.sendall(
                    encode_frame(
                        reply_payload(index, ids[index]),
                        DEFAULT_MAX_FRAME_SIZE,
                    )
                )
        finally:
            conn.close()  # EOF: dropped requests fail, not hang

    def close(self):
        self._thread.join(timeout=5)
        self._listener.close()
        assert self.error is None


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_any_reorder_and_drops_preserve_correlation(data):
    count = data.draw(st.integers(min_value=1, max_value=6), label="count")
    order = data.draw(st.permutations(list(range(count))), label="order")
    drops = data.draw(
        st.sets(st.integers(min_value=0, max_value=count - 1)), label="drops"
    )
    server = ReorderServer(count, list(order), drops)
    client = PipelinedClient(server.address, timeout=5.0)
    try:
        futures = [
            client.submit(request_payload(index)) for index in range(count)
        ]
        for index, future in enumerate(futures):
            if index in drops:
                with pytest.raises(TransportFailure):
                    future.result(timeout=5)
            else:
                reply = future.result(timeout=5)
                assert extract_correlation(reply) == f"m-{index}"
    finally:
        client.close()
        server.close()


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_retry_rides_out_any_reorder_and_drops(data):
    count = data.draw(st.integers(min_value=1, max_value=6), label="count")
    order = data.draw(st.permutations(list(range(count))), label="order")
    drops = data.draw(
        st.sets(st.integers(min_value=0, max_value=count - 1)), label="drops"
    )
    server = ReorderServer(count, list(order), drops, second_chance=True)
    client = PipelinedClient(
        server.address, timeout=5.0, retry=RetryPolicy.fast(max_attempts=2)
    )
    replies: dict[int, bytes] = {}

    def call(index: int) -> None:
        replies[index] = client.request(request_payload(index))

    callers = [
        threading.Thread(target=call, args=(index,)) for index in range(count)
    ]
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=10)
        assert sorted(replies) == list(range(count))
        for index, reply in replies.items():
            assert extract_correlation(reply) == f"m-{index}"
        # Same bytes, and on the wire again only for the ids that needed it.
        sent = sorted(server.frames)
        expected = [request_payload(index) for index in range(count)]
        expected += [request_payload(index) for index in drops]
        assert sent == sorted(expected)
        assert client.metrics.value("client.retries") == len(drops)
        assert client.outstanding == 0
    finally:
        client.close()
        server.close()


@given(
    message_id=st.from_regex(r"[A-Za-z0-9:\-]{1,24}", fullmatch=True),
    reply_id=st.from_regex(r"[A-Za-z0-9:\-]{1,24}", fullmatch=True),
)
@settings(max_examples=50, deadline=None)
def test_extraction_roundtrips_through_the_codec(message_id, reply_id):
    codec = SoapCodec()
    request = grant_message(message_id, "req-1", "product-0")
    encoded = codec.encode(request).encode()
    assert extract_message_id(encoded) == message_id
    reply = codec.encode(request.reply(reply_id)).encode()
    assert extract_message_id(reply) == reply_id
    assert extract_correlation(reply) == message_id
