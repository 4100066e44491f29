"""Unit tests for the retry policy and its use by the protocol client."""

from __future__ import annotations

import pytest

from repro.core.parser import P
from repro.protocol.client import PromiseClient
from repro.protocol.errors import ProtocolError, RequestTimeout, TransportFailure
from repro.protocol.retry import RetryPolicy
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService
from repro.sim.random import RandomStream


class TestRetryPolicy:
    def test_success_needs_no_retry(self):
        policy = RetryPolicy.fast()
        assert policy.run(lambda: 42) == 42
        assert policy.retries == 0

    def test_retries_then_succeeds(self):
        policy = RetryPolicy.fast(max_attempts=3)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransportFailure("lost")
            return "ok"

        assert policy.run(flaky) == "ok"
        assert len(attempts) == 3
        assert policy.retries == 2

    def test_gives_up_after_max_attempts(self):
        policy = RetryPolicy.fast(max_attempts=2)
        attempts = []

        def always_fails():
            attempts.append(1)
            raise TransportFailure("lost")

        with pytest.raises(TransportFailure):
            policy.run(always_fails)
        assert len(attempts) == 2

    def test_non_retryable_errors_propagate_immediately(self):
        policy = RetryPolicy.fast(max_attempts=5)
        attempts = []

        def bad_request():
            attempts.append(1)
            raise ProtocolError("malformed")

        with pytest.raises(ProtocolError):
            policy.run(bad_request)
        assert len(attempts) == 1

    def test_timeout_counts_as_transport_failure(self):
        assert issubclass(RequestTimeout, TransportFailure)
        policy = RetryPolicy.fast(max_attempts=2)
        calls = []

        def slow_then_ok():
            calls.append(1)
            if len(calls) == 1:
                raise RequestTimeout("deadline")
            return "ok"

        assert policy.run(slow_then_ok) == "ok"

    def test_exponential_backoff_with_cap(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, multiplier=2.0, max_delay=0.3
        )
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.3)  # capped
        assert policy.delay(4) == pytest.approx(0.3)

    def test_jitter_is_deterministic_per_seed(self):
        def delays(seed):
            policy = RetryPolicy(
                max_attempts=4,
                base_delay=0.1,
                jitter=RandomStream(seed, "retry-jitter"),
            )
            return [policy.delay(n) for n in (1, 2, 3)]

        assert delays(7) == delays(7)
        assert delays(7) != delays(8)
        for delay, nominal in zip(delays(7), [0.1, 0.2, 0.4]):
            assert nominal / 2 <= delay < nominal

    def test_sleep_called_with_schedule(self):
        slept = []
        policy = RetryPolicy(
            max_attempts=3, base_delay=0.5, max_delay=10.0,
            sleep=slept.append,
        )
        with pytest.raises(TransportFailure):
            policy.run(lambda: (_ for _ in ()).throw(TransportFailure("x")))
        assert slept == [pytest.approx(0.5), pytest.approx(1.0)]

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestRetryDeadlines:
    """Satellite regression: backoff never overshoots the caller's budget."""

    def test_sleeps_clamped_to_remaining_budget(self):
        from repro.resilience import Deadline

        clock = [0.0]
        slept = []

        def fake_sleep(seconds):
            slept.append(seconds)
            clock[0] += seconds

        policy = RetryPolicy(
            max_attempts=4, base_delay=0.5, max_delay=10.0, sleep=fake_sleep
        )
        deadline = Deadline.after(0.8, clock=lambda: clock[0])
        with pytest.raises(TransportFailure):
            policy.run(
                lambda: (_ for _ in ()).throw(TransportFailure("x")),
                deadline=deadline,
            )
        # Unclamped schedule would be [0.5, 1.0, 2.0]; the second sleep
        # is cut to the 0.3s remaining and the third never happens —
        # the budget is spent, so the failure surfaces instead.
        assert slept == [pytest.approx(0.5), pytest.approx(0.3)]

    def test_no_attempt_after_deadline_expires(self):
        from repro.resilience import Deadline

        clock = [0.0]
        attempts = []

        def failing():
            attempts.append(1)
            raise TransportFailure("x")

        def fake_sleep(seconds):
            clock[0] += seconds

        policy = RetryPolicy(
            max_attempts=10, base_delay=1.0, max_delay=1.0, sleep=fake_sleep
        )
        deadline = Deadline.after(2.5, clock=lambda: clock[0])
        with pytest.raises(TransportFailure):
            policy.run(failing, deadline=deadline)
        # budget 2.5s, 1s sleeps: attempts at t=0, 1, 2, then a clamped
        # 0.5s sleep and a last attempt exactly at the deadline — never
        # one strictly past it.
        assert len(attempts) <= 4
        assert clock[0] <= 2.5 + 1e-9

    def test_bare_monotonic_float_accepted(self):
        import time as _time

        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise TransportFailure("x")
            return "ok"

        assert policy.run(flaky, deadline=_time.monotonic() + 30.0) == "ok"

    def test_no_deadline_means_unbounded_schedule(self):
        slept = []
        policy = RetryPolicy(
            max_attempts=3, base_delay=0.5, max_delay=10.0, sleep=slept.append
        )
        with pytest.raises(TransportFailure):
            policy.run(
                lambda: (_ for _ in ()).throw(TransportFailure("x")),
                deadline=None,
            )
        assert slept == [pytest.approx(0.5), pytest.approx(1.0)]


@pytest.fixture
def shop():
    deployment = Deployment(name="shop")
    deployment.add_service(MerchantService())
    deployment.use_pool_strategy("widgets")
    with deployment.seed() as txn:
        deployment.resources.create_pool(txn, "widgets", 50)
    return deployment


class TestClientRetries:
    """Satellite: in-process callers survive injected transport faults."""

    def test_client_survives_reply_drop_without_duplicate_execution(self, shop):
        client = shop.client("alice")
        shop.transport.plan_reply_drop(1)
        outcome = client.call(
            "shop", "merchant", "sell", {"product": "widgets", "quantity": 1}
        )
        assert outcome.success
        # The retry was served from the reply cache: one sale, not two.
        assert shop.transport.metrics.value("transport.duplicates_served") == 1
        level = client.call(
            "shop", "merchant", "stock_level", {"product": "widgets"}
        )
        assert level.value["available"] == 49

    def test_client_survives_request_drop(self, shop):
        client = shop.client("alice")
        shop.transport.plan_request_drop(1)
        outcome = client.call(
            "shop", "merchant", "sell", {"product": "widgets", "quantity": 1}
        )
        assert outcome.success
        # Request never reached the endpoint, so the retry executed fresh.
        assert shop.transport.metrics.value("transport.duplicates_served") == 0
        assert shop.transport.metrics.value("transport.dropped_requests") == 1

    def test_retry_opt_out_surfaces_the_fault(self, shop):
        client = PromiseClient("bob", shop.transport, retry=RetryPolicy.none())
        shop.transport.plan_reply_drop(1)
        with pytest.raises(TransportFailure):
            client.call(
                "shop", "merchant", "sell",
                {"product": "widgets", "quantity": 1},
            )

    def test_promise_request_survives_faults(self, shop):
        client = shop.client("alice")
        shop.transport.plan_reply_drop(1)
        response = client.request_promise(
            "shop", [P("quantity('widgets') >= 5")], 10
        )
        assert response.accepted
        # Redelivery returned the cached grant; only one promise exists.
        assert len(shop.manager.active_promises()) == 1
