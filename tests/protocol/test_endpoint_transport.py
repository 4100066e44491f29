"""Unit tests for the transport, endpoint and client stubs."""

from __future__ import annotations

import pytest

from repro.core.environment import Environment
from repro.core.parser import P
from repro.protocol.errors import (
    ProtocolError,
    TransportFailure,
    UnknownEndpoint,
)
from repro.protocol.messages import Message
from repro.protocol.transport import InProcessTransport
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService


@pytest.fixture
def shop():
    deployment = Deployment(name="shop")
    deployment.add_service(MerchantService())
    deployment.use_pool_strategy("widgets")
    with deployment.seed() as txn:
        deployment.resources.create_pool(txn, "widgets", 50)
    return deployment


class TestTransport:
    def test_unknown_endpoint(self):
        transport = InProcessTransport()
        with pytest.raises(UnknownEndpoint):
            transport.send(Message("m1", "a", "nowhere"))

    def test_echo_handler_roundtrip(self):
        transport = InProcessTransport()
        transport.register("echo", lambda m: m.reply("r1"))
        reply = transport.send(Message("m1", "a", "echo"))
        assert reply.correlation == "m1"
        assert reply.sender == "echo" and reply.recipient == "a"

    def test_stats_counted(self):
        transport = InProcessTransport()
        transport.register("echo", lambda m: m.reply("r1"))
        transport.send(Message("m1", "a", "echo"))
        assert transport.metrics.value("transport.sent") == 1
        assert transport.metrics.value("transport.delivered") == 1
        assert transport.metrics.value("transport.bytes_on_wire") > 0
        assert len(transport.wire_log) == 2  # request + reply

    def test_request_drop(self):
        transport = InProcessTransport()
        transport.register("echo", lambda m: m.reply("r1"))
        transport.plan_request_drop(1)
        with pytest.raises(TransportFailure):
            transport.send(Message("m1", "a", "echo"))
        assert transport.metrics.value("transport.dropped_requests") == 1
        # Next delivery goes through.
        transport.send(Message("m2", "a", "echo"))

    def test_reply_drop_after_handler_ran(self):
        """The classic distributed failure: the work happened but the
        client never learns — exactly why promise correlation matters."""
        transport = InProcessTransport()
        calls = []
        transport.register("echo", lambda m: (calls.append(m.message_id), m.reply("r1"))[1])
        transport.plan_reply_drop(1)
        with pytest.raises(TransportFailure):
            transport.send(Message("m1", "a", "echo"))
        assert calls == ["m1"]  # the endpoint did process the request

    def test_wire_format_can_be_disabled(self):
        transport = InProcessTransport(wire_format=False)
        transport.register("echo", lambda m: m.reply("r1"))
        transport.send(Message("m1", "a", "echo"))
        assert transport.metrics.value("transport.bytes_on_wire") == 0


class TestEndpoint:
    def test_promise_request_handled(self, shop):
        client = shop.client("alice")
        response = client.request_promise(
            "shop", [P("quantity('widgets') >= 5")], 10
        )
        assert response.accepted

    def test_rejection_skips_combined_action(self, shop):
        client = shop.client("alice")
        response, outcome = client.call_with_promise(
            "shop",
            [P("quantity('widgets') >= 500")],
            10,
            "merchant",
            "place_order",
            {"customer": "alice", "product": "widgets", "quantity": 500},
        )
        assert not response.accepted
        assert outcome is None
        with shop.store.begin() as txn:
            assert txn.keys("merchant_orders") == []

    def test_combined_promise_and_action(self, shop):
        client = shop.client("alice")
        response, outcome = client.call_with_promise(
            "shop",
            [P("quantity('widgets') >= 5")],
            10,
            "merchant",
            "place_order",
            {"customer": "alice", "product": "widgets", "quantity": 5},
        )
        assert response.accepted
        assert outcome is not None and outcome.success

    def test_unknown_operation_fault(self, shop):
        client = shop.client("alice")
        with pytest.raises(ProtocolError):
            client.call("shop", "merchant", "teleport", {})

    def test_unknown_service_fault(self, shop):
        client = shop.client("alice")
        with pytest.raises(ProtocolError):
            client.call("shop", "wizard", "zap", {})

    def test_expired_promise_fault(self, shop):
        client = shop.client("alice")
        promise_id = client.require_promise(
            "shop", [P("quantity('widgets') >= 5")], 5
        )
        shop.clock.advance(6)
        reply_faults = []
        try:
            client.call(
                "shop",
                "merchant",
                "sell",
                {"product": "widgets", "quantity": 1},
                environment=Environment.of(promise_id),
            )
        except ProtocolError as exc:
            reply_faults.append(str(exc))
        assert reply_faults and "promise-expired" in reply_faults[0]

    def test_pure_release_message(self, shop):
        client = shop.client("alice")
        promise_id = client.require_promise(
            "shop", [P("quantity('widgets') >= 5")], 10
        )
        faults = client.release("shop", promise_id)
        assert faults == ()
        assert not shop.manager.is_promise_active(promise_id)

    def test_release_unknown_promise_reports_fault(self, shop):
        client = shop.client("alice")
        faults = client.release("shop", "ghost")
        assert any("unknown-promise" in fault for fault in faults)

    def test_violation_reported_in_outcome(self, shop):
        client = shop.client("alice")
        # Use the satisfiability default on a second pool to set up a
        # violable promise.
        with shop.store.begin() as txn:
            shop.resources.create_pool(txn, "gadgets", 10)
        client.require_promise("shop", [P("quantity('gadgets') >= 8")], 20)
        outcome = client.call(
            "shop", "merchant", "sell", {"product": "gadgets", "quantity": 5}
        )
        assert not outcome.success
        assert outcome.violations


class TestRequirePromise:
    def test_raises_on_rejection(self, shop):
        from repro.core.errors import PromiseRejected

        client = shop.client("alice")
        with pytest.raises(PromiseRejected):
            client.require_promise("shop", [P("quantity('widgets') >= 500")], 10)
