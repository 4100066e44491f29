"""Integration tests for the asyncio server, driven through the wire client.

What the *client* promises on its own (window, correlation, retry,
reconnect) is tested against it in ``tests/pipeline/test_pipelined_client.py``.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import pytest

from repro.faults.crashpoints import SimulatedCrash
from repro.net.framing import HEADER, FrameTooLarge
from repro.net.pipeline import PipelinedClient
from repro.net.server import PromiseServer, ThreadedServer
from repro.protocol.errors import RequestTimeout, TransportFailure
from repro.protocol.messages import Message
from repro.protocol.retry import RetryPolicy
from repro.protocol.soap import SoapCodec

CODEC = SoapCodec()


def encode(message: Message) -> bytes:
    return CODEC.encode(message).encode("utf-8")


def decode(payload: bytes) -> Message:
    return CODEC.decode(payload.decode("utf-8"))


def echo_server(**kwargs) -> PromiseServer:
    server = PromiseServer(**kwargs)
    counter = iter(range(1, 1_000_000))
    server.register(
        "echo", lambda m: m.reply(message_id=f"echo:msg-{next(counter)}")
    )
    return server


@pytest.fixture
def running_echo():
    server = echo_server()
    with ThreadedServer(server) as address:
        with PipelinedClient(address, timeout=5.0) as client:
            yield server, client


class TestRoundTrip:
    def test_request_reply(self, running_echo):
        server, client = running_echo
        reply = decode(client.request(encode(Message("m1", "a", "echo"))))
        assert reply.correlation == "m1"
        assert reply.sender == "echo" and reply.recipient == "a"
        assert server.metrics.value("server.requests") == 1
        assert server.metrics.value("server.replies") == 1

    def test_one_connection_serves_every_request(self, running_echo):
        server, client = running_echo
        for n in range(5):
            client.request(encode(Message(f"m{n}", "a", "echo")))
        assert client.metrics.value("client.connections_opened") == 1
        assert server.metrics.value("server.connections") == 1

    def test_concurrent_clients(self):
        server = echo_server()
        with ThreadedServer(server) as address:
            replies: list[Message] = []
            errors: list[Exception] = []

            def worker(name: str) -> None:
                try:
                    with PipelinedClient(address, timeout=10.0) as client:
                        for n in range(10):
                            reply = decode(client.request(
                                encode(Message(f"{name}:m{n}", name, "echo"))
                            ))
                            replies.append(reply)
                except Exception as exc:  # pragma: no cover - debug aid
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(f"c{i}",))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert len(replies) == 80
            assert server.metrics.value("server.requests") == 80


class TestFaults:
    def test_unknown_endpoint_becomes_transport_fault(self, running_echo):
        __, client = running_echo
        reply = decode(client.request(encode(Message("m1", "a", "nowhere"))))
        assert any("transport:unknown-endpoint" in f for f in reply.faults)

    def test_handler_crash_is_contained(self, running_echo):
        server, client = running_echo

        def boom(message: Message) -> Message:
            raise RuntimeError("kaput")

        server.register("bomb", boom)
        reply = decode(client.request(encode(Message("m1", "a", "bomb"))))
        assert any("transport:handler-error" in f for f in reply.faults)
        # The connection (and server) survive for the next request.
        ok = decode(client.request(encode(Message("m2", "a", "echo"))))
        assert ok.correlation == "m2"

    def test_a_simulated_crash_drops_only_its_connection(self):
        """A crash probe firing inside an inline (``workers=0``) request
        leaves that connection unanswered without escaping to the event
        loop, and the server goes on serving new connections."""
        server = echo_server()

        def crash(message: Message) -> Message:
            raise SimulatedCrash("test.crash")

        server.register("crash", crash)
        escaped: list[dict] = []

        async def record_escapes() -> None:
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: escaped.append(context)
            )

        runner = ThreadedServer(server)
        address = runner.start()
        try:
            asyncio.run_coroutine_threadsafe(
                record_escapes(), runner._loop
            ).result(timeout=5)
            with PipelinedClient(
                address, timeout=5.0, retry=RetryPolicy.none()
            ) as client:
                with pytest.raises(TransportFailure):
                    client.request(encode(Message("m1", "a", "crash")))
            with PipelinedClient(address, timeout=5.0) as client:
                ok = decode(client.request(encode(Message("m2", "a", "echo"))))
                assert ok.correlation == "m2"
        finally:
            runner.stop()
        assert escaped == []

    def test_duplicate_request_served_from_cache(self, running_echo):
        server, client = running_echo
        payload = encode(Message("m1", "a", "echo"))
        first = client.request(payload)
        second = client.request(payload)
        assert first == second  # byte-identical redelivery reply
        assert server.metrics.value("server.duplicates_served") == 1

    def test_a_failed_original_tells_the_waiting_duplicate_to_retry(self):
        """``_process`` raising (here: the durability barrier) drops the
        original's connection; a duplicate that was awaiting it in flight
        must get a retryable ``transport:`` fault — not an empty frame —
        and nothing may be cached: the retry runs the handler again."""
        server = PromiseServer(workers=2)
        entered, proceed, runs = threading.Event(), threading.Event(), []

        def slow(message: Message) -> Message:
            runs.append(message.message_id)
            entered.set()
            assert proceed.wait(5.0)
            return message.reply(message_id=f"slow:re:{message.message_id}")

        def broken_barrier() -> None:
            raise OSError("fsync failed")

        server.register("slow", slow)
        server.durability = broken_barrier
        payload = encode(Message("m1", "a", "slow"))
        outcomes: dict[str, object] = {}

        def deliver(name: str, client: PipelinedClient) -> None:
            try:
                outcomes[name] = client.request(payload)
            except TransportFailure as failure:
                outcomes[name] = failure

        def wait_for(condition) -> None:
            deadline = time.monotonic() + 5.0
            while not condition():
                assert time.monotonic() < deadline
                time.sleep(0.005)

        with ThreadedServer(server) as address:
            once = RetryPolicy.none()
            with PipelinedClient(address, timeout=5.0, retry=once) as original, \
                    PipelinedClient(address, timeout=5.0, retry=once) as duplicate:
                first = threading.Thread(target=deliver, args=("original", original))
                first.start()
                assert entered.wait(5.0)
                second = threading.Thread(target=deliver, args=("duplicate", duplicate))
                second.start()
                wait_for(lambda: server.metrics.value("server.duplicates_served") == 1)
                proceed.set()
                first.join(5.0)
                second.join(5.0)

                assert isinstance(outcomes["original"], TransportFailure)
                answer = outcomes["duplicate"]
                assert isinstance(answer, bytes) and answer, "empty frame"
                fault, = decode(answer).faults
                assert fault.startswith("transport:aborted")
                assert decode(answer).correlation == "m1"

                server.durability = None
                retried = decode(duplicate.request(payload))
                assert retried.message_id == "slow:re:m1" and not retried.faults
                assert runs == ["m1", "m1"]  # the failure was not cached

    def test_connection_refused_is_transport_failure(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        client = PipelinedClient(("127.0.0.1", free_port), timeout=0.5)
        with pytest.raises(TransportFailure):
            client.request(encode(Message("m1", "a", "echo")))

    def test_request_timeout(self):
        server = echo_server()

        def sleepy(message: Message) -> Message:
            time.sleep(1.0)
            return message.reply(message_id="slow:msg-1")

        server.register("slow", sleepy)
        with ThreadedServer(server) as address:
            with PipelinedClient(address, timeout=0.2) as client:
                with pytest.raises(RequestTimeout):
                    client.request(encode(Message("m1", "a", "slow")))
                assert client.metrics.value("client.timeouts") >= 1

    def test_client_retry_reconnects(self):
        server = echo_server()
        with ThreadedServer(server) as address:
            client = PipelinedClient(
                address, timeout=5.0,
                retry=RetryPolicy(max_attempts=3, base_delay=0.01),
            )
            payload = encode(Message("m1", "a", "echo"))
            client.request(payload)
            # Kill the connection under the client; the retry must open
            # a fresh one and redeliver.
            client._sock.shutdown(socket.SHUT_RDWR)
            reply = client.request(encode(Message("m2", "a", "echo")))
            assert decode(reply).correlation == "m2"
            assert client.metrics.value("client.connections_opened") == 2
            client.close()


class TestFrameLimits:
    def test_server_rejects_oversized_frame(self):
        server = echo_server(max_frame_size=256)
        with ThreadedServer(server) as address:
            with socket.create_connection(address, timeout=5.0) as sock:
                sock.sendall(HEADER.pack(1024) + b"x" * 1024)
                # Server drops the connection without a reply (the unread
                # payload may surface as a reset instead of a clean FIN).
                try:
                    data = sock.recv(1)
                except OSError:
                    data = b""
                assert data == b""
            deadline = time.monotonic() + 5.0
            while server.metrics.value("server.malformed") < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)

    def test_client_rejects_oversized_payload(self, running_echo):
        __, client = running_echo
        client.max_frame_size = 64
        with pytest.raises(FrameTooLarge):
            client.request(encode(Message("m1", "a", "echo")) + b" " * 65)

    def test_mid_frame_connection_drop_leaves_server_healthy(self):
        server = echo_server()
        with ThreadedServer(server) as address:
            sock = socket.create_connection(address, timeout=5.0)
            sock.sendall(HEADER.pack(100) + b"only half")  # then vanish
            sock.close()
            deadline = time.monotonic() + 5.0
            while server.metrics.value("server.malformed") < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            # The next well-formed request still succeeds.
            with PipelinedClient(address, timeout=5.0) as client:
                reply = decode(client.request(encode(Message("m1", "a", "echo"))))
                assert reply.correlation == "m1"


class TestGracefulShutdown:
    def test_stop_drains_and_refuses_new_work(self):
        server = echo_server()
        threaded = ThreadedServer(server)
        address = threaded.start()
        client = PipelinedClient(address, timeout=2.0)
        client.request(encode(Message("m1", "a", "echo")))
        threaded.stop()
        with pytest.raises(TransportFailure):
            client.request(encode(Message("m2", "a", "echo")))
        client.close()

    def test_stop_is_idempotent(self):
        server = echo_server()
        threaded = ThreadedServer(server)
        threaded.start()
        threaded.stop()
        threaded.stop()  # no-op, no error
