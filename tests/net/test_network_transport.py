"""End-to-end tests: the full deployment stack over loopback TCP.

The point of :class:`NetworkTransport` is that nothing above it needs
to change — the same ``Deployment``, services and ``PromiseClient``
run over real sockets.  These tests mirror the in-process endpoint
tests across the wire and exercise the socket-layer fault plans.
"""

from __future__ import annotations

import time

import pytest

from repro.core.environment import Environment
from repro.core.parser import P
from repro.net import NetworkTransport, PromiseServer, ThreadedServer
from repro.protocol.client import PromiseClient
from repro.protocol.errors import TransportFailure, UnknownEndpoint
from repro.protocol.messages import Message
from repro.protocol.retry import RetryPolicy
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService


@pytest.fixture
def served():
    """A merchant deployment whose endpoint is hosted over TCP."""
    server = PromiseServer()
    threaded = ThreadedServer(server)
    threaded.start()
    transport = NetworkTransport(server=server)
    deployment = Deployment(name="shop", transport=transport)
    deployment.add_service(MerchantService())
    deployment.use_pool_strategy("widgets")
    with deployment.seed() as txn:
        deployment.resources.create_pool(txn, "widgets", 50)
    yield deployment, server, transport
    transport.close()
    threaded.stop()


class TestDeploymentOverTcp:
    def test_deployment_registers_through_the_transport(self, served):
        deployment, server, transport = served
        assert server.endpoints() == ["shop"]
        assert transport.endpoints() == ["shop"]

    def test_promise_grant_and_release(self, served):
        deployment, __, __transport = served
        client = deployment.client("alice")
        response = client.request_promise(
            "shop", [P("quantity('widgets') >= 5")], 10
        )
        assert response.accepted
        assert client.release("shop", response.promise_id) == ()
        assert not deployment.manager.is_promise_active(response.promise_id)

    def test_combined_promise_and_action(self, served):
        deployment, __, __transport = served
        client = deployment.client("alice")
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

    def test_action_under_environment(self, served):
        deployment, __, __transport = served
        client = deployment.client("alice")
        promise_id = client.require_promise(
            "shop", [P("quantity('widgets') >= 5")], 10
        )
        outcome = client.call(
            "shop", "merchant", "sell",
            {"product": "widgets", "quantity": 1},
            environment=Environment.of(promise_id),
        )
        assert outcome.success

    def test_unknown_endpoint_raises_like_in_process(self, served):
        __, __server, transport = served
        with pytest.raises(UnknownEndpoint):
            transport.send(Message("m1", "a", "nowhere"))

    def test_stats_counted(self, served):
        deployment, __, transport = served
        client = deployment.client("alice")
        client.call("shop", "merchant", "stock_level", {"product": "widgets"})
        assert transport.stats.sent == 1
        assert transport.stats.delivered == 1
        assert transport.stats.bytes_on_wire > 0
        assert len(transport.wire_log) == 2  # request + reply


class TestBegin:
    """``begin`` is ``send`` cut in two: on the wire now, awaited later."""

    def test_every_request_is_on_the_wire_before_any_reply_is_awaited(
        self, served
    ):
        __, server, transport = served
        probes = [
            Message(f"m{n}", "a", "shop", promise_requests=()) for n in (1, 2)
        ]
        replies = [transport.begin(probe) for probe in probes]
        deadline = time.monotonic() + 5.0
        while server.stats.replies < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.stats.replies == 2  # answered; nobody has waited yet
        assert [reply().correlation for reply in replies] == ["m1", "m2"]
        assert transport.stats.sent == transport.stats.delivered == 2
        assert len(transport.wire_log) == 4

    def test_faults_surface_as_they_do_from_send(self, served):
        __, server, transport = served
        reply = transport.begin(Message("m1", "a", "nowhere"))
        with pytest.raises(UnknownEndpoint):
            reply()
        transport.plan_request_drop(2)
        with pytest.raises(TransportFailure):
            transport.begin(Message("m2", "a", "shop"))
        assert server.stats.requests == 1

    def test_in_process_transport_has_the_same_shape(self):
        deployment = Deployment(name="shop")
        probe = Message("m1", "a", "shop", promise_requests=())
        reply = deployment.transport.begin(probe)
        assert reply().correlation == "m1"
        assert deployment.transport.stats.delivered == 1


class TestSocketFaultPlans:
    def test_request_drop(self, served):
        deployment, server, transport = served
        transport.plan_request_drop(1)
        with pytest.raises(TransportFailure):
            transport.send(
                Message("m1", "a", "shop",
                        promise_requests=())
            )
        assert transport.stats.dropped_requests == 1
        # Nothing reached the server.
        assert server.stats.requests == 0

    def test_reply_drop_after_server_executed(self, served):
        deployment, server, transport = served
        client = PromiseClient(
            "alice", transport, retry=RetryPolicy.none()
        )
        transport.plan_reply_drop(1)
        with pytest.raises(TransportFailure):
            client.request_promise(
                "shop", [P("quantity('widgets') >= 5")], 10
            )
        assert transport.stats.dropped_replies == 1

    def test_retrying_client_completes_through_reply_drops(self, served):
        deployment, server, transport = served
        client = PromiseClient(
            "alice", transport,
            retry=RetryPolicy(max_attempts=4, base_delay=0.02),
        )
        transport.plan_reply_drop(1)
        transport.plan_reply_drop(3)
        response = client.request_promise(
            "shop", [P("quantity('widgets') >= 5")], 10
        )
        assert response.accepted
        outcome = client.call(
            "shop", "merchant", "sell",
            {"product": "widgets", "quantity": 1},
            environment=Environment.of(response.promise_id),
        )
        assert outcome.success
        # Exactly one grant and one sale despite two lost replies.
        assert len(deployment.manager.active_promises()) == 1
        level = client.call(
            "shop", "merchant", "stock_level", {"product": "widgets"}
        )
        assert level.value["available"] + level.value["allocated"] == 49


class TestRemoteOnlyTransport:
    def test_register_requires_local_server(self):
        server = PromiseServer()
        server.register("echo", lambda m: m.reply("r1"))
        with ThreadedServer(server) as address:
            with NetworkTransport(address) as transport:
                with pytest.raises(TransportFailure):
                    transport.register("late", lambda m: m)
                assert transport.endpoints() == []
                reply = transport.send(Message("m1", "a", "echo"))
                assert reply.correlation == "m1"

    def test_needs_address_or_server(self):
        with pytest.raises(ValueError):
            NetworkTransport()
