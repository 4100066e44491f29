"""Unit tests for server-side admission control and load shedding."""

from __future__ import annotations

import pytest

from repro.protocol.messages import Message
from repro.resilience.admission import (
    KIND_ACTION,
    KIND_CHECK,
    KIND_RELEASE,
    AdmissionController,
    classify,
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_controller(**kwargs) -> tuple[AdmissionController, FakeClock]:
    clock = FakeClock()
    return AdmissionController(clock=clock, **kwargs), clock


class TestClassify:
    def test_promise_request_is_a_check(self):
        message = Message(
            message_id="m1",
            sender="client",
            recipient="server",
            promise_requests=({"resource": "seat"},),
        )
        assert classify(message) == KIND_CHECK

    def test_action_message_is_an_action(self):
        message = Message(
            message_id="m2",
            sender="client",
            recipient="server",
            action={"operation": "buy"},
        )
        assert classify(message) == KIND_ACTION

    def test_environment_only_message_is_a_release(self):
        message = Message(
            message_id="m3",
            sender="client",
            recipient="server",
            environment=("promise-1",),
        )
        assert classify(message) == KIND_RELEASE

    def test_combined_check_and_action_counts_as_check(self):
        message = Message(
            message_id="m4",
            sender="client",
            recipient="server",
            promise_requests=({"resource": "seat"},),
            action={"operation": "buy"},
        )
        assert classify(message) == KIND_CHECK


class TestBoundedQueue:
    def test_admits_until_queue_full(self):
        controller, _ = make_controller(max_queue=2)
        assert controller.admit(KIND_CHECK)
        with controller.slot():
            with controller.slot():
                assert not controller.admit(KIND_CHECK)
                assert not controller.admit(KIND_ACTION)
            assert controller.admit(KIND_CHECK)

    def test_slot_releases_on_exception(self):
        controller, _ = make_controller(max_queue=1)
        with pytest.raises(RuntimeError):
            with controller.slot():
                assert controller.in_flight == 1
                raise RuntimeError("boom")
        assert controller.in_flight == 0

    def test_releases_pass_the_soft_bound(self):
        controller, _ = make_controller(max_queue=1)
        with controller.slot():
            assert not controller.admit(KIND_CHECK)
            assert controller.admit(KIND_RELEASE)

    def test_releases_refused_only_at_hard_bound(self):
        controller, _ = make_controller(max_queue=2)
        slots = [controller.slot() for _ in range(4)]
        for slot in slots:
            slot.__enter__()
        try:
            assert not controller.admit(KIND_RELEASE)
            assert controller.metrics.value("admission.shed_releases") == 1
        finally:
            for slot in slots:
                slot.__exit__(None, None, None)


class TestTokenBucket:
    def test_no_rate_means_no_token_limit(self):
        controller, _ = make_controller(max_queue=100)
        for _ in range(50):
            assert controller.admit(KIND_CHECK)
        assert sum(
            controller.metrics.value(f"admission.shed_{kind}")
            for kind in ("checks", "actions", "releases")
        ) == 0

    def test_burst_then_shed(self):
        controller, _ = make_controller(max_queue=100, rate=10.0, reserve=0.0)
        admitted = sum(controller.admit(KIND_ACTION) for _ in range(20))
        assert admitted == 10  # burst defaults to one second of rate
        assert controller.metrics.value("admission.shed_actions") == 10

    def test_tokens_refill_with_time(self):
        controller, clock = make_controller(max_queue=100, rate=10.0, reserve=0.0)
        for _ in range(10):
            assert controller.admit(KIND_ACTION)
        assert not controller.admit(KIND_ACTION)
        clock.advance(0.5)  # 5 tokens back
        admitted = sum(controller.admit(KIND_ACTION) for _ in range(10))
        assert admitted == 5

    def test_refill_caps_at_burst(self):
        controller, clock = make_controller(max_queue=100, rate=10.0)
        clock.advance(60.0)
        assert controller.tokens() == pytest.approx(10.0)

    def test_checks_shed_before_actions(self):
        # reserve=2: once the bucket drops to 2 tokens, checks are shed
        # but actions still pass — the degradation ordering the server
        # relies on so shedding never strands a granted reservation.
        controller, _ = make_controller(
            max_queue=100, rate=10.0, burst=10.0, reserve=2.0
        )
        checks = sum(controller.admit(KIND_CHECK) for _ in range(20))
        assert checks == 8
        assert controller.admit(KIND_ACTION)
        assert controller.admit(KIND_ACTION)
        assert not controller.admit(KIND_ACTION)
        assert controller.admit(KIND_RELEASE)  # releases never pay tokens
        assert controller.metrics.value("admission.shed_checks") == 12
        assert controller.metrics.value("admission.shed_actions") == 1
        assert controller.metrics.value("admission.shed_releases") == 0

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue=0)
        with pytest.raises(ValueError):
            AdmissionController(rate=-1.0)
