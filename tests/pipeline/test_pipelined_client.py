"""The one wire client, end to end over TCP.

Everything the calling side promises is tested here, against the one
class that promises it: many requests in flight on one connection,
replies correlated back by message id whatever order the server
finishes them in, the window as flow control, clean failure of
everything pending when the connection dies — and the single
``request`` path on top (retry, deadline, breaker), whose invariant is
*an id is on the wire at most once at a time, and a retry re-sends the
same bytes*.  The grant run is additionally audited by the offline
history checker — pipelining must not cost isolation.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.faults.history import HistoryRecorder
from repro.net import NetworkTransport, PipelinedClient, ThreadedServer
from repro.net.framing import FrameTooLarge, encode_frame, read_frame
from repro.net.pipeline import extract_correlation, extract_message_id
from repro.net.server import PromiseServer
from repro.protocol.errors import RequestTimeout, TransportFailure
from repro.protocol.messages import Message
from repro.protocol.retry import RetryPolicy
from repro.protocol.soap import SoapCodec
from repro.resilience import CircuitBreaker, CircuitOpen

from .conftest import build_server, build_shop, grant_message, pools

pytestmark = pytest.mark.pipeline

CODEC = SoapCodec()


def encode(message) -> bytes:
    return CODEC.encode(message).encode()


# --------------------------------------------------------------- extraction


def test_extraction_reads_the_codec_wire_format():
    message = grant_message("cli:m-17", "cli:r-17", "product-0")
    payload = encode(message)
    assert extract_message_id(payload) == "cli:m-17"
    reply = encode(message.reply("srv:m-99"))
    assert extract_message_id(reply) == "srv:m-99"
    assert extract_correlation(reply) == "cli:m-17"


def test_extraction_tolerates_garbage():
    assert extract_message_id(b"not xml at all") is None
    assert extract_correlation(b"<routing />") is None
    assert extract_message_id(b'<routing message-id="" sender="a">') is None


def test_submit_without_message_id_is_rejected():
    client = PipelinedClient(("127.0.0.1", 1))
    with pytest.raises(TransportFailure):
        client.submit(b"<envelope>no routing element</envelope>")
    client.close()


# --------------------------------------------------------- grants over TCP


def test_pipelined_grants_round_trip_in_request_order(tmp_path):
    shop = build_shop(tmp_path)
    history = HistoryRecorder()
    history.attach(0, shop.store.wal)
    server = build_server(shop, workers=4)
    with ThreadedServer(server) as address:
        with PipelinedClient(address, timeout=10.0) as client:
            requests = [
                grant_message(f"cli:m-{i}", f"cli:r-{i}", pools()[i % 8])
                for i in range(32)
            ]
            replies = client.request_many([encode(r) for r in requests])
            assert client.metrics.value("pipeline.submitted") == 32
            assert client.metrics.value("pipeline.completed") == 32
            assert client.metrics.value("pipeline.orphan_replies") == 0
    assert len(replies) == 32
    for request, raw in zip(requests, replies):
        # Reply order is request order even though the server finished
        # them across four workers: that is what correlation buys.
        assert extract_correlation(raw) == request.message_id
        decoded = CODEC.decode(raw.decode())
        assert decoded.promise_responses[0].accepted
    history.detach_all()
    assert history.events_recorded > 0
    assert history.check() == []
    shop.close()


def test_transport_pipelined_mode_keeps_at_most_once(tmp_path):
    # The transport's one mode: every send rides the pipelined client.
    shop = build_shop(tmp_path)
    server = build_server(shop, workers=4)
    with ThreadedServer(server) as address:
        with NetworkTransport(address) as transport:
            message = grant_message("cli:dup-1", "cli:dup-r1", "product-0")
            first = transport.send(message)
            again = transport.send(message)  # redelivery, same id
    assert first.promise_responses[0].accepted
    assert again == first
    assert server.metrics.value("server.duplicates_served") == 1
    shop.close()


# ------------------------------------------------- ordering and the window


class _NullMutex:
    """Stands in for the store mutex of a store doing its own locking,
    so a parked handler does not serialise the whole rig."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


class EchoRig:
    """A parallel server whose handler can be parked on an event."""

    def __init__(self, workers: int = 4):
        self.release = threading.Event()
        self.executed: list[str] = []
        self._lock = threading.Lock()
        self.server = PromiseServer(workers=workers)
        self.server.txn_mutex = _NullMutex()
        self.server.register(
            "echo",
            self._handle,
            keys=lambda message: frozenset({message.message_id}),
        )

    def _handle(self, message):
        if message.message_id.startswith("slow"):
            assert self.release.wait(timeout=10)
        with self._lock:
            self.executed.append(message.message_id)
        return message.reply(f"echo:{message.message_id}")

    def message(self, message_id: str) -> bytes:
        return encode(
            Message(message_id=message_id, sender="cli", recipient="echo")
        )


def test_replies_overtake_a_stalled_request():
    rig = EchoRig()
    with ThreadedServer(rig.server) as address:
        with PipelinedClient(address, timeout=10.0) as client:
            slow = client.submit(rig.message("slow-1"))
            fast = client.submit(rig.message("fast-1"))
            # The second request's reply arrives while the first is
            # still parked in its handler: the pipeline did not
            # head-of-line block.
            assert extract_correlation(fast.result(timeout=5)) == "fast-1"
            assert not slow.done()
            rig.release.set()
            assert extract_correlation(slow.result(timeout=5)) == "slow-1"
    assert rig.executed == ["fast-1", "slow-1"]


def test_an_inline_server_runs_a_window_in_arrival_order_on_its_loop():
    # workers=0 is the same dispatch path with an inline executor: a
    # window of disjoint requests still executes one at a time, in
    # arrival order, on the event loop's thread.
    executed: list[tuple[str, str]] = []

    def handle(message):
        executed.append((message.message_id, threading.current_thread().name))
        return message.reply(f"echo:{message.message_id}")

    server = PromiseServer()
    server.register(
        "echo", handle, keys=lambda message: frozenset({message.message_id})
    )
    ids = [f"m-{n}" for n in range(16)]
    with ThreadedServer(server) as address:
        with PipelinedClient(address, timeout=10.0) as client:
            replies = client.request_many(
                [
                    encode(Message(message_id=i, sender="cli", recipient="echo"))
                    for i in ids
                ]
            )
    assert [extract_correlation(reply) for reply in replies] == ids
    assert executed == [(i, "promise-server") for i in ids]


def test_window_full_stalls_submit():
    rig = EchoRig()
    with ThreadedServer(rig.server) as address:
        client = PipelinedClient(address, timeout=0.3, max_outstanding=1)
        slow = client.submit(rig.message("slow-2"))
        with pytest.raises(RequestTimeout):
            client.submit(rig.message("fast-2"))
        assert client.metrics.value("pipeline.window_stalls") == 1
        rig.release.set()
        slow.result(timeout=5)
        client.close()


def test_duplicate_in_flight_id_is_rejected():
    rig = EchoRig()
    with ThreadedServer(rig.server) as address:
        client = PipelinedClient(address, timeout=5.0)
        slow = client.submit(rig.message("slow-3"))
        with pytest.raises(TransportFailure):
            client.submit(rig.message("slow-3"))
        rig.release.set()
        slow.result(timeout=5)
        client.close()


def test_connection_death_fails_every_pending_request():
    # A "server" that accepts, answers nothing, and slams the door: the
    # reader's EOF must fail every pending future, not strand them.
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    rig = EchoRig()
    client = PipelinedClient(listener.getsockname(), timeout=10.0)
    pending = [client.submit(rig.message(f"dead-{i}")) for i in range(3)]
    conn, _ = listener.accept()
    conn.close()
    for future in pending:
        with pytest.raises(TransportFailure):
            future.result(timeout=5)
    assert client.outstanding == 0
    client.close()
    listener.close()


# ------------------------------------------------- the one request path


def envelope(message_id: str, recipient: str = "stub") -> bytes:
    return encode(Message(message_id=message_id, sender="cli", recipient=recipient))


def free_address() -> tuple[str, int]:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()


def wait_until(condition, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


class FrameServer:
    """A raw framed peer: answers each request with a correlated reply,
    or (``black_hole``) reads and says nothing.  Records every frame."""

    def __init__(self, address=("127.0.0.1", 0), black_hole: bool = False):
        self.black_hole = black_hole
        self.frames: list[bytes] = []
        self._connections: list[socket.socket] = []
        self._lock = threading.Lock()
        self._listener = socket.socket()
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(address)
        self._listener.listen(8)
        self.address = self._listener.getsockname()
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with self._lock:
                self._connections.append(conn)
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            while (payload := read_frame(conn.recv, 1 << 24)) is not None:
                with self._lock:
                    self.frames.append(payload)
                if self.black_hole:
                    continue
                request = CODEC.decode(payload.decode())
                reply = encode(request.reply(f"srv:{request.message_id}"))
                conn.sendall(encode_frame(reply, 1 << 24))
        except Exception:  # noqa: BLE001 - the client hung up mid-frame
            pass

    def drop_connections(self) -> None:
        """Close every accepted connection (the client's idles die)."""
        with self._lock:
            connections, self._connections = self._connections, []
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()

    def close(self) -> None:
        self._listener.close()
        self.drop_connections()


@pytest.fixture
def frame_server():
    server = FrameServer()
    yield server
    server.close()


@pytest.fixture
def black_hole():
    server = FrameServer(black_hole=True)
    yield server
    server.close()


def test_server_closing_the_idle_connection_costs_no_retry(frame_server):
    """What the pool's staleness sweep protected: a connection the peer
    closed while idle is replaced on the next request, without spending
    one of the caller's retry attempts on it."""
    with PipelinedClient(
        frame_server.address, timeout=2.0, retry=RetryPolicy.none()
    ) as client:
        assert extract_correlation(client.request(envelope("one"))) == "one"
        frame_server.drop_connections()
        wait_until(lambda: client._sock is None)  # the reader saw the EOF
        assert extract_correlation(client.request(envelope("two"))) == "two"
        assert client.metrics.value("client.connections_opened") == 2
        assert client.metrics.value("client.retries") == 0


def test_a_replaced_connections_reader_cannot_fail_its_successor(frame_server):
    with PipelinedClient(frame_server.address, timeout=2.0) as client:
        client.request(envelope("one"))
        old = client._sock
        frame_server.drop_connections()
        wait_until(lambda: client._sock is None)
        client.request(envelope("two"))
        current = client._sock
        # The old connection's teardown arriving late (its reader waking
        # after the reconnect) must leave the live connection alone.
        with client._lock:
            client._drop_locked(old, TransportFailure("late"))
        assert client._sock is current
        assert extract_correlation(client.request(envelope("three"))) == "three"
        assert client.metrics.value("client.connections_opened") == 2


def test_retries_into_a_black_hole_really_resend(black_hole):
    """Bug (a): every retry puts the same bytes on the wire again."""
    retry = RetryPolicy.network()
    message = Message(message_id="m-1", sender="cli", recipient="stub")
    with NetworkTransport(
        black_hole.address, timeout=0.2, retry=retry
    ) as transport:
        with pytest.raises(RequestTimeout):
            transport.send(message)
        metrics = transport.client.metrics
        assert metrics.value("client.retries") == retry.max_attempts - 1 == 3
        assert metrics.value("client.timeouts") == retry.max_attempts
        assert metrics.value("client.failures") == 1
        assert transport.client.outstanding == 0
        wait_until(lambda: len(black_hole.frames) == retry.max_attempts)
    assert len(set(black_hole.frames)) == 1  # the same bytes, every time


def test_late_answer_reaches_the_retry_and_the_handler_runs_once():
    """Bug (b): the server answers after 1.5 x timeout; the retry's
    redelivery is served the one execution's reply."""
    ran: list[str] = []
    server = PromiseServer()

    def slow(message):
        ran.append(message.message_id)
        time.sleep(0.3)
        return message.reply(f"srv:{message.message_id}")

    server.register("slow", slow)
    message = Message(message_id="m-1", sender="cli", recipient="slow")
    with ThreadedServer(server) as address:
        with NetworkTransport(
            address, timeout=0.2, retry=RetryPolicy.fast(3)
        ) as transport:
            reply = transport.send(message)
            metrics = transport.client.metrics
            assert reply.correlation == "m-1"
            assert metrics.value("client.retries") == 1
            # Both copies of the reply came back; the forgotten first
            # attempt's is the orphan.
            wait_until(lambda: metrics.value("pipeline.orphan_replies") == 1)
    assert ran == ["m-1"]
    assert server.metrics.value("server.duplicates_served") == 1


def test_timed_out_request_forgets_its_id_and_frees_its_slot():
    rig = EchoRig()
    with ThreadedServer(rig.server) as address:
        with PipelinedClient(address, timeout=0.2, max_outstanding=1) as client:
            with pytest.raises(RequestTimeout):
                client.request(rig.message("slow-4"))
            assert client.outstanding == 0
            # The only window slot is back: the next request fits.
            reply = client.request(rig.message("fast-4"))
            assert extract_correlation(reply) == "fast-4"
            rig.release.set()
            wait_until(
                lambda: client.metrics.value("pipeline.orphan_replies") == 1
            )


def test_connect_refused_storm_does_not_wedge_the_window():
    """Bug (c): a failover's connect-refused storm must not eat the
    window — every failed submit gives its slot back."""
    address = free_address()
    client = PipelinedClient(address, timeout=0.5, max_outstanding=2)
    for n in range(5):
        with pytest.raises(TransportFailure, match="cannot connect"):
            client.request(envelope(f"refused-{n}"))
    server = FrameServer(address)
    try:
        reply = client.request(envelope("after"))
        assert extract_correlation(reply) == "after"
        assert client.metrics.value("pipeline.window_stalls") == 0
    finally:
        client.close()
        server.close()


def test_rejected_submits_return_their_window_slot():
    rig = EchoRig()
    with ThreadedServer(rig.server) as address:
        client = PipelinedClient(
            address, timeout=0.3, max_outstanding=2, max_frame_size=4096
        )
        slow = client.submit(rig.message("slow-5"))
        for _ in range(3):
            with pytest.raises(TransportFailure, match="already in flight"):
                client.submit(rig.message("slow-5"))
            with pytest.raises(FrameTooLarge):
                client.submit(rig.message("big-5") + b" " * 5000)
        fast = client.submit(rig.message("fast-5"))
        assert extract_correlation(fast.result(timeout=5)) == "fast-5"
        rig.release.set()
        slow.result(timeout=5)
        client.close()
        with pytest.raises(TransportFailure, match="closed"):
            client.submit(rig.message("fast-6"))
        assert client.metrics.value("pipeline.window_stalls") == 0


def test_a_peer_that_stops_reading_fails_the_send():
    """Writes are bounded: a stalled peer with a full socket buffer
    turns into a TransportFailure, not a caller parked on the lock."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client = PipelinedClient(
        listener.getsockname(), timeout=0.3, max_frame_size=1 << 24
    )
    padding = b" " * (1 << 20)  # never decoded: the peer never reads
    started = time.monotonic()
    with pytest.raises(TransportFailure, match="send failed"):
        for n in range(64):
            client.submit(envelope(f"big-{n}") + padding)
    assert time.monotonic() - started < 10
    assert client.outstanding == 0
    client.close()
    listener.close()


def test_transport_breaker_opens_against_a_dead_address():
    """Bug (d): the transport's breaker guards every send."""
    breaker = CircuitBreaker("dead", failure_threshold=2, reset_timeout=60)
    message = Message(message_id="m-1", sender="cli", recipient="stub")
    with NetworkTransport(
        free_address(), timeout=0.2, retry=RetryPolicy.none(), breaker=breaker
    ) as transport:
        for _ in range(2):
            with pytest.raises(TransportFailure):
                transport.send(message)
        with pytest.raises(CircuitOpen):
            transport.send(message)
    assert breaker.trips == 1
    assert breaker.fast_failures == 1


def test_transport_counts_on_the_clients_registry(frame_server):
    with NetworkTransport(frame_server.address) as transport:
        transport.send(Message(message_id="m-1", sender="cli", recipient="stub"))
        assert transport.metrics is transport.client.metrics
        assert transport.metrics.value("transport.sent") == 1
        assert transport.metrics.value("transport.delivered") == 1
        assert transport.metrics.value("client.requests") == 1
        # The one ``stats`` read left (the perf harness's leg count).
        assert transport.stats.sent == 1
