"""Endpoint handling of fully-combined §6 messages.

"We note that each message may contain any subset of the different
elements relating to promises, and these may be related to the message
body or unrelated."  These tests drive the endpoint with envelopes that
carry a new promise request, an environment over *previously granted*
promises, and an action — all at once — plus multi-request messages.
"""

from __future__ import annotations

import pytest

from repro.core.environment import Environment
from repro.core.parser import P
from repro.core.promise import IdGenerator, PromiseRequest
from repro.protocol.messages import ActionPayload, Message
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService


@pytest.fixture
def shop():
    deployment = Deployment(name="shop")
    deployment.add_service(MerchantService())
    deployment.use_pool_strategy("widgets")
    with deployment.seed() as txn:
        deployment.resources.create_pool(txn, "widgets", 30)
    return deployment


def send(deployment, message):
    return deployment.transport.send(message)


class TestFullyCombinedMessage:
    def test_new_request_plus_environment_plus_action(self, shop):
        """One envelope: request a NEW promise, run an action under an
        OLD promise's environment, releasing the old one."""
        client = shop.client("alice")
        old_promise = client.require_promise(
            "shop", [P("quantity('widgets') >= 5")], 30
        )
        ids = IdGenerator("combined")
        message = Message(
            message_id=ids.next_id(),
            sender="alice",
            recipient="shop",
            promise_requests=(
                PromiseRequest(
                    "req-new", (P("quantity('widgets') >= 10"),), 30,
                    client_id="alice",
                ),
            ),
            environment=Environment.of(old_promise, release=[old_promise]),
            action=ActionPayload(
                "merchant", "place_order",
                {"customer": "alice", "product": "widgets", "quantity": 5},
            ),
        )
        reply = send(shop, message)
        assert reply.promise_responses[0].accepted
        assert reply.action_outcome is not None and reply.action_outcome.success
        assert reply.action_outcome.released == (old_promise,)
        # Old promise consumed, new one live.
        assert not shop.manager.is_promise_active(old_promise)
        new_id = reply.promise_responses[0].promise_id
        assert shop.manager.is_promise_active(new_id)
        with shop.store.begin() as txn:
            pool = shop.resources.pool(txn, "widgets")
        # 30 - 5 consumed; 10 escrowed for the new promise.
        assert (pool.available, pool.allocated) == (15, 10)

    def test_multiple_requests_one_message(self, shop):
        """Several <promise-request> elements process independently but
        each atomically."""
        ids = IdGenerator("multi")
        message = Message(
            message_id=ids.next_id(),
            sender="bob",
            recipient="shop",
            promise_requests=(
                PromiseRequest("r1", (P("quantity('widgets') >= 20"),), 30),
                PromiseRequest("r2", (P("quantity('widgets') >= 20"),), 30),
            ),
        )
        reply = send(shop, message)
        outcomes = {
            response.correlation: response.accepted
            for response in reply.promise_responses
        }
        # First fits; second exceeds what remains.
        assert outcomes == {"r1": True, "r2": False}

    def test_rejected_request_skips_action_but_reports_all_responses(self, shop):
        ids = IdGenerator("skip")
        message = Message(
            message_id=ids.next_id(),
            sender="carol",
            recipient="shop",
            promise_requests=(
                PromiseRequest("ok", (P("quantity('widgets') >= 1"),), 30),
                PromiseRequest("nope", (P("quantity('widgets') >= 500"),), 30),
            ),
            action=ActionPayload(
                "merchant", "sell", {"product": "widgets", "quantity": 1}
            ),
        )
        reply = send(shop, message)
        assert len(reply.promise_responses) == 2
        assert reply.action_outcome is None
        assert any("action-skipped" in fault for fault in reply.faults)
        # The granted first request stands: §6 treats each promise-request
        # as its own atomic unit, not the whole message.
        granted = next(r for r in reply.promise_responses if r.accepted)
        assert shop.manager.is_promise_active(granted.promise_id)


class TestDispatchKeyMemo:
    """The endpoint remembers a promise's resources from its grant to
    its release, so :meth:`dispatch_keys` can key what names it — and
    no longer, so the memo does not grow with every grant."""

    def grant(self, shop, number: int) -> str:
        reply = shop.endpoint.handle(
            Message(
                message_id=f"g-{number}",
                sender="alice",
                recipient="shop",
                promise_requests=(
                    PromiseRequest(
                        f"req-{number}", (P("quantity('widgets') >= 1"),), 30,
                        client_id="alice",
                    ),
                ),
            )
        )
        promise_id = reply.promise_responses[0].promise_id
        assert promise_id is not None
        return promise_id

    def release(self, promise_id: str, number: int) -> Message:
        return Message(
            message_id=f"r-{number}",
            sender="alice",
            recipient="shop",
            environment=Environment.of(promise_id, release=[promise_id]),
        )

    def test_a_released_promise_is_forgotten(self, shop):
        endpoint = shop.endpoint
        for number in range(1000):
            promise_id = self.grant(shop, number)
            release = self.release(promise_id, number)
            assert endpoint.dispatch_keys(release) == frozenset({"widgets"})
            reply = endpoint.handle(release)
            assert not reply.faults
            assert endpoint.dispatch_keys(release) is None
        assert endpoint._promise_resources == {}

    def test_a_live_promise_keeps_its_keys(self, shop):
        endpoint = shop.endpoint
        live = self.grant(shop, 0)
        for number in range(1, 50):
            endpoint.handle(self.release(self.grant(shop, number), number))
        assert endpoint.dispatch_keys(self.release(live, 0)) == frozenset(
            {"widgets"}
        )
        assert list(endpoint._promise_resources) == [live]

    def test_an_action_that_releases_forgets(self, shop):
        endpoint = shop.endpoint
        promise_id = self.grant(shop, 0)
        message = Message(
            message_id="act-0",
            sender="alice",
            recipient="shop",
            environment=Environment.of(promise_id, release=[promise_id]),
            action=ActionPayload(
                "merchant", "place_order",
                {"customer": "alice", "product": "widgets", "quantity": 1},
            ),
        )
        assert endpoint.dispatch_keys(message) == frozenset({"widgets"})
        outcome = endpoint.handle(message).action_outcome
        assert outcome is not None and promise_id in outcome.released
        assert endpoint._promise_resources == {}
