"""Idempotent redelivery (§6 at-most-once) over both transports.

A duplicate ``<promise-request>`` delivery — same message id, as a
retrying client produces — must grant exactly one promise and return a
byte-identical reply, whether the transport is the in-process stub or
the real TCP stack.
"""

from __future__ import annotations

import pytest

from repro.core.parser import P
from repro.core.promise import PromiseRequest
from repro.net import NetworkTransport, PromiseServer, ThreadedServer
from repro.protocol.messages import Message
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService


def build_shop() -> Deployment:
    deployment = Deployment(name="shop")
    deployment.add_service(MerchantService())
    deployment.use_pool_strategy("widgets")
    with deployment.seed() as txn:
        deployment.resources.create_pool(txn, "widgets", 50)
    return deployment


def promise_request_message(message_id: str = "dup:msg-1") -> Message:
    return Message(
        message_id=message_id,
        sender="alice",
        recipient="shop",
        promise_requests=(
            PromiseRequest(
                "dup:req-1", (P("quantity('widgets') >= 5"),), 30,
                client_id="alice",
            ),
        ),
    )


class TestInProcessRedelivery:
    def test_duplicate_promise_request_grants_once(self):
        shop = build_shop()
        message = promise_request_message()
        first = shop.transport.send(message)
        second = shop.transport.send(message)

        assert len(shop.manager.active_promises()) == 1
        assert shop.transport.metrics.value("transport.duplicates_served") == 1
        # Byte-identical replies: the cached envelope is replayed.
        log = shop.transport.wire_log
        first_reply_xml, second_reply_xml = log[1], log[3]
        assert first_reply_xml == second_reply_xml
        assert first == second

    def test_redelivered_bytes_counted(self):
        shop = build_shop()
        message = promise_request_message()
        shop.transport.send(message)
        metrics = shop.transport.metrics
        bytes_after_first = metrics.value("transport.bytes_on_wire")
        shop.transport.send(message)
        assert metrics.value("transport.bytes_on_wire") > bytes_after_first

    def test_dedup_can_be_disabled(self):
        from repro.protocol.transport import InProcessTransport

        transport = InProcessTransport(dedup_capacity=None)
        shop = Deployment(name="shop", transport=transport)
        shop.add_service(MerchantService())
        shop.use_pool_strategy("widgets")
        with shop.seed() as txn:
            shop.resources.create_pool(txn, "widgets", 50)
        message = promise_request_message()
        shop.transport.send(message)
        shop.transport.send(message)
        # Without the cache every delivery executes: two grants.
        assert len(shop.manager.active_promises()) == 2


class TestNetworkRedelivery:
    @pytest.fixture
    def served_shop(self):
        shop = build_shop()
        server = PromiseServer()
        server.register("shop", shop.endpoint.handle)
        with ThreadedServer(server) as address:
            with NetworkTransport(address) as transport:
                yield shop, server, transport

    def test_duplicate_promise_request_grants_once(self, served_shop):
        shop, server, transport = served_shop
        message = promise_request_message()
        first = transport.send(message)
        second = transport.send(message)

        assert len(shop.manager.active_promises()) == 1
        assert server.metrics.value("server.duplicates_served") == 1
        # Byte-identical reply envelopes over the wire.
        assert transport.wire_log[1] == transport.wire_log[3]
        assert first == second

    def test_dropped_reply_then_redelivery_is_exactly_once(self, served_shop):
        shop, server, transport = served_shop
        message = promise_request_message()
        transport.plan_reply_drop(1)
        from repro.protocol.errors import TransportFailure

        with pytest.raises(TransportFailure):
            transport.send(message)
        reply = transport.send(message)  # the client's redelivery
        granted = reply.promise_responses[0]
        assert granted.accepted
        assert len(shop.manager.active_promises()) == 1
