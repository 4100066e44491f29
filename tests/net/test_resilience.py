"""Integration tests: admission control, deadlines and breakers on the wire."""

from __future__ import annotations

import socket
import time

import pytest

from repro.core.parser import P
from repro.core.promise import PromiseRequest
from repro.net.pipeline import PipelinedClient
from repro.net.server import PromiseServer, ThreadedServer
from repro.net.transport import NetworkTransport
from repro.protocol.errors import Overloaded, RequestTimeout, TransportFailure
from repro.protocol.messages import ActionPayload, Message
from repro.protocol.retry import RetryPolicy
from repro.protocol.soap import SoapCodec
from repro.resilience import AdmissionController, CircuitBreaker, CircuitOpen

CODEC = SoapCodec()


def encode(message: Message) -> bytes:
    return CODEC.encode(message).encode("utf-8")


PAYLOAD = encode(Message("m0", "alice", "echo"))


def decode(payload: bytes) -> Message:
    return CODEC.decode(payload.decode("utf-8"))


def echo_server(**kwargs) -> PromiseServer:
    server = PromiseServer(**kwargs)
    counter = iter(range(1, 1_000_000))
    server.register(
        "echo", lambda m: m.reply(message_id=f"echo:msg-{next(counter)}")
    )
    return server


def check_message(message_id: str) -> Message:
    return Message(
        message_id,
        "alice",
        "echo",
        promise_requests=(
            PromiseRequest(
                request_id=f"{message_id}:r",
                client_id="alice",
                predicates=(P("quantity('widgets') >= 1"),),
                duration=10,
            ),
        ),
    )


def action_message(message_id: str) -> Message:
    return Message(
        message_id,
        "alice",
        "echo",
        action=ActionPayload(service="echo", operation="ping"),
    )


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestServerSheds:
    def test_checks_shed_when_bucket_empty(self):
        # burst=2, reserve=0: two checks pass, the third is shed with an
        # overloaded transport fault the client can map back.
        admission = AdmissionController(
            max_queue=8, rate=0.001, burst=2.0, reserve=0.0
        )
        server = echo_server(admission=admission)
        with ThreadedServer(server) as address:
            with PipelinedClient(address, timeout=5.0) as client:
                ok1 = decode(client.request(encode(check_message("m1"))))
                ok2 = decode(client.request(encode(check_message("m2"))))
                shed = decode(client.request(encode(check_message("m3"))))
        assert not ok1.faults and not ok2.faults
        assert any("overloaded" in fault for fault in shed.faults)
        assert server.stats.shed == 1
        assert admission.stats.shed_checks == 1

    def test_releases_survive_what_sheds_checks(self):
        # Bucket empty: checks shed, but a release (environment-only
        # message, classified last in shed order) still goes through —
        # degradation must never strand a granted reservation.
        admission = AdmissionController(
            max_queue=8, rate=0.001, burst=1.0, reserve=0.0
        )
        server = echo_server(admission=admission)
        with ThreadedServer(server) as address:
            with PipelinedClient(address, timeout=5.0) as client:
                client.request(encode(check_message("m1")))  # drains bucket
                shed = decode(client.request(encode(check_message("m2"))))
                release = decode(
                    client.request(encode(Message("m3", "alice", "echo")))
                )
        assert any("overloaded" in fault for fault in shed.faults)
        assert not release.faults
        assert admission.stats.shed_checks == 1
        assert admission.stats.shed_releases == 0

    def test_duplicates_are_never_shed(self):
        # The reply cache answers before admission control runs: a
        # redelivered message id must get its cached reply even under
        # full shed, or retries would see a request the server already
        # executed refused.
        admission = AdmissionController(
            max_queue=8, rate=0.001, burst=1.0, reserve=0.0
        )
        server = echo_server(admission=admission)
        with ThreadedServer(server) as address:
            with PipelinedClient(address, timeout=5.0) as client:
                first = decode(client.request(encode(check_message("m1"))))
                again = decode(client.request(encode(check_message("m1"))))
        assert first.message_id == again.message_id
        assert server.stats.duplicates_served == 1
        assert server.stats.shed == 0

    def test_shed_replies_are_not_cached(self):
        # A shed message id is welcome back: once the bucket refills the
        # retry must execute, not be served the stale overloaded fault.
        clock = FakeClock()
        admission = AdmissionController(
            max_queue=8, rate=10.0, burst=1.0, reserve=0.0, clock=clock
        )
        server = echo_server(admission=admission)
        with ThreadedServer(server) as address:
            with PipelinedClient(address, timeout=5.0) as client:
                client.request(encode(check_message("m1")))  # drains bucket
                shed = decode(client.request(encode(check_message("m2"))))
                clock.advance(1.0)  # refill
                retried = decode(client.request(encode(check_message("m2"))))
        assert any("overloaded" in fault for fault in shed.faults)
        assert not retried.faults
        assert server.stats.duplicates_served == 0


class TestServerDeadlines:
    def test_expired_deadline_rejected_cheaply(self):
        calls = []
        server = PromiseServer()
        server.register(
            "echo", lambda m: (calls.append(1), m.reply(message_id="r1"))[1]
        )
        with ThreadedServer(server) as address:
            with PipelinedClient(address, timeout=5.0) as client:
                dead = Message("m1", "alice", "echo", deadline=-0.5)
                reply = decode(client.request(encode(dead)))
        assert any("deadline-expired" in fault for fault in reply.faults)
        assert calls == []  # the handler never ran
        assert server.stats.deadline_rejected == 1

    def test_live_deadline_dispatches_normally(self):
        server = echo_server()
        with ThreadedServer(server) as address:
            with PipelinedClient(address, timeout=5.0) as client:
                live = Message("m1", "alice", "echo", deadline=30.0)
                reply = decode(client.request(encode(live)))
        assert not reply.faults
        assert server.stats.deadline_rejected == 0


class TestTransportMapping:
    def test_overloaded_fault_raises_overloaded(self):
        admission = AdmissionController(
            max_queue=8, rate=0.001, burst=1.0, reserve=0.0
        )
        server = echo_server(admission=admission)
        with ThreadedServer(server) as address:
            with NetworkTransport(address, retry=RetryPolicy.none()) as transport:
                transport.send(check_message("m1"))
                with pytest.raises(Overloaded):
                    transport.send(check_message("m2"))

    def test_overloaded_is_retryable(self):
        # Overloaded subclasses TransportFailure, so the *caller's*
        # retry policy (PromiseClient._send in real wiring) backs off
        # and redelivers — and succeeds once the bucket refills.
        assert issubclass(Overloaded, TransportFailure)
        admission = AdmissionController(
            max_queue=8, rate=200.0, burst=1.0, reserve=0.0
        )
        server = echo_server(admission=admission)
        retry = RetryPolicy(max_attempts=4, base_delay=0.05, max_delay=0.2)
        with ThreadedServer(server) as address:
            with NetworkTransport(address, retry=RetryPolicy.none()) as transport:
                transport.send(check_message("m1"))  # drains the bucket
                reply = retry.run(lambda: transport.send(check_message("m2")))
        assert not reply.faults
        assert retry.retries >= 1
        assert server.stats.shed >= 1

    def test_dead_request_raises_request_timeout(self):
        server = echo_server()
        with ThreadedServer(server) as address:
            with NetworkTransport(address, retry=RetryPolicy.none()) as transport:
                dead = Message("m1", "alice", "echo", deadline=-1.0)
                with pytest.raises(RequestTimeout):
                    transport.send(dead)


class TestClientBreaker:
    def _dead_address(self) -> tuple[str, int]:
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        address = probe.getsockname()
        probe.close()
        return address

    def test_breaker_opens_after_connect_failures(self):
        breaker = CircuitBreaker("dead", failure_threshold=2, reset_timeout=60)
        client = PipelinedClient(
            self._dead_address(), timeout=0.2, breaker=breaker
        )
        for _ in range(2):
            with pytest.raises(TransportFailure):
                client.request(PAYLOAD)
        with pytest.raises(CircuitOpen):
            client.request(PAYLOAD)
        assert breaker.fast_failures == 1
        assert breaker.trips == 1

    def test_circuit_open_cuts_the_retry_loop_short(self):
        breaker = CircuitBreaker("dead", failure_threshold=1, reset_timeout=60)
        retry = RetryPolicy.fast(max_attempts=5)
        client = PipelinedClient(
            self._dead_address(), timeout=0.2, retry=retry, breaker=breaker
        )
        # Attempt 1 fails and trips the breaker; attempt 2 fails fast
        # with CircuitOpen, which is NOT a TransportFailure — so the
        # remaining three attempts of the schedule are never made.
        with pytest.raises(CircuitOpen):
            client.request(PAYLOAD)
        assert retry.retries == 1
        assert breaker.fast_failures == 1

    def test_probe_closes_breaker_when_server_recovers(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "echo", failure_threshold=1, reset_timeout=5.0, clock=clock
        )
        server = echo_server()
        with ThreadedServer(server) as address:
            client = PipelinedClient(address, timeout=2.0, breaker=breaker)
            breaker.record_failure()  # trip it by hand: threshold=1
            with pytest.raises(CircuitOpen):
                client.request(encode(Message("m1", "a", "echo")))
            clock.advance(5.0)  # open -> half-open: one probe allowed
            reply = decode(client.request(encode(Message("m2", "a", "echo"))))
            client.close()
        assert reply.correlation == "m2"
        assert breaker.state.value == "closed"


class TestPromiseClientDeadline:
    def test_wire_messages_carry_remaining_budget(self):
        from repro.protocol.client import PromiseClient

        seen: list[Message] = []

        class FakeTransport:
            def send(self, message: Message) -> Message:
                seen.append(message)
                if len(seen) < 2:
                    raise TransportFailure("lost")
                return message.reply(message_id="r1")

        client = PromiseClient(
            "alice", FakeTransport(), retry=RetryPolicy.fast(), deadline=30.0
        )
        client.release("shop", "p1")
        assert len(seen) == 2
        # Same message id on the retry (redelivery-safe), fresh deadline
        # stamp on each attempt, always within the original allowance.
        assert seen[0].message_id == seen[1].message_id
        for message in seen:
            assert message.deadline is not None
            assert 0 < message.deadline <= 30.0
        assert seen[1].deadline <= seen[0].deadline

    def test_per_call_deadline_overrides_default(self):
        seen: list[Message] = []

        from repro.protocol.messages import ActionOutcomePayload

        class FakeTransport:
            def send(self, message: Message) -> Message:
                seen.append(message)
                return message.reply(
                    message_id="r1",
                    action_outcome=ActionOutcomePayload(success=True),
                )

        from repro.protocol.client import PromiseClient

        client = PromiseClient("alice", FakeTransport(), deadline=30.0)
        client.call("shop", "merchant", "ping", deadline=2.0)
        assert seen[0].deadline is not None
        assert seen[0].deadline <= 2.0

    def test_no_deadline_means_unstamped_messages(self):
        seen: list[Message] = []

        class FakeTransport:
            def send(self, message: Message) -> Message:
                seen.append(message)
                return message.reply(message_id="r1")

        from repro.protocol.client import PromiseClient

        client = PromiseClient("alice", FakeTransport())
        client.release("shop", "p1")
        assert seen[0].deadline is None


class TestEndToEndDeadline:
    def test_deadline_bounds_retries_against_a_black_hole(self):
        # A socket that accepts but never replies: without a deadline
        # the client would sleep through the whole backoff schedule.
        sink = socket.socket()
        sink.bind(("127.0.0.1", 0))
        sink.listen(8)
        retry = RetryPolicy(max_attempts=10, base_delay=0.2, max_delay=0.2)
        client = PipelinedClient(sink.getsockname(), timeout=0.3, retry=retry)
        started = time.monotonic()
        with pytest.raises(RequestTimeout):
            client.request(PAYLOAD, deadline=time.monotonic() + 0.6)
        elapsed = time.monotonic() - started
        sink.close()
        # Unbounded schedule would take ~ 10*0.3 + 9*0.2 > 4s.
        assert elapsed < 2.0
