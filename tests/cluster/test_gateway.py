"""Gateway routing tests over in-process shard deployments.

These run the full gateway logic — fast path, scatter-gather,
compensation, composite release and action routing — against real
:class:`~repro.services.deployment.Deployment` shards wired through
:class:`~repro.protocol.transport.InProcessTransport`, so every grant
hits a real promise manager but no sockets are involved.  The
socket-level fleet behaviour (kill, restart, WAL recovery) lives in
``test_fleet.py``.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterGateway, PartitionMap
from repro.core.environment import Environment
from repro.core.parser import P
from repro.protocol.client import PromiseClient
from repro.protocol.retry import RetryPolicy
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService

PRODUCTS = 12
STOCK = 20


def build_cluster(shards: int = 3):
    ring = PartitionMap(shards)
    deployments: list[Deployment] = []
    for index in range(shards):
        deployment = Deployment(name="shop", manager_name=f"shop-s{index}")
        deployment.add_service(MerchantService())
        owned = [
            f"product-{number}"
            for number in range(PRODUCTS)
            if ring.shard_of(f"product-{number}") == index
        ]
        if owned:
            deployment.use_pool_strategy(*owned)
            with deployment.seed() as txn:
                for pool_id in owned:
                    deployment.resources.create_pool(txn, pool_id, STOCK)
        deployments.append(deployment)
    gateway = ClusterGateway(
        [d.transport for d in deployments], ring=ring
    )
    return ring, deployments, gateway


def cross_pair(ring: PartitionMap) -> tuple[str, str]:
    """Two products the ring places on different shards."""
    first = "product-0"
    home = ring.shard_of(first)
    for index in range(1, PRODUCTS):
        candidate = f"product-{index}"
        if ring.shard_of(candidate) != home:
            return first, candidate
    raise AssertionError("no cross-shard pair")


def live_counts(deployments: list[Deployment]) -> list[int]:
    return [len(d.manager.active_promises()) for d in deployments]


@pytest.fixture()
def cluster():
    ring, deployments, gateway = build_cluster()
    yield ring, deployments, gateway
    for deployment in deployments:
        deployment.close()


class TestFastPath:
    def test_single_shard_request_forwards_verbatim(self, cluster):
        ring, deployments, gateway = cluster
        client = PromiseClient("alice", gateway)
        response = client.request_promise(
            "shop", [P("quantity('product-0') >= 5")], 30
        )
        assert response.accepted
        assert gateway.metrics.value("gateway.forwarded") == 1
        assert gateway.metrics.value("gateway.scattered") == 0
        # The grant landed on (exactly) the ring's shard for the pool.
        home = ring.shard_of("product-0")
        assert live_counts(deployments) == [
            1 if index == home else 0 for index in range(len(deployments))
        ]

    def test_client_retry_deduplicated_end_to_end(self, cluster):
        ring, deployments, gateway = cluster
        home = ring.shard_of("product-0")
        # Lose the reply to the next send on the home shard; the client
        # retries the same message id and must get the original grant,
        # not a second promise.
        transport = deployments[home].transport
        transport.plan_reply_drop(transport.metrics.value("transport.sent") + 1)
        client = PromiseClient("bob", gateway, retry=RetryPolicy.fast())
        response = client.request_promise(
            "shop", [P("quantity('product-0') >= 5")], 30
        )
        assert response.accepted
        assert sum(live_counts(deployments)) == 1

    def test_single_shard_action_routes_by_param(self, cluster):
        ring, deployments, gateway = cluster
        client = PromiseClient("carol", gateway)
        outcome = client.call(
            "shop", "merchant", "sell", {"product": "product-3", "quantity": 2}
        )
        assert outcome.success
        home = ring.shard_of("product-3")
        with deployments[home].store.begin() as txn:
            pool = deployments[home].resources.pool(txn, "product-3")
        assert pool.available == STOCK - 2


class TestScatterGather:
    def test_cross_shard_grant_mints_composite(self, cluster):
        ring, deployments, gateway = cluster
        a, b = cross_pair(ring)
        client = PromiseClient("alice", gateway)
        response = client.request_promise(
            "shop",
            [P(f"quantity('{a}') >= 3"), P(f"quantity('{b}') >= 2")],
            30,
        )
        assert response.accepted
        assert response.promise_id.startswith("cluster/")
        assert gateway.metrics.value("gateway.composite_grants") == 1
        assert sum(live_counts(deployments)) == 2

    def test_composite_release_fans_out(self, cluster):
        ring, deployments, gateway = cluster
        a, b = cross_pair(ring)
        client = PromiseClient("alice", gateway)
        response = client.request_promise(
            "shop",
            [P(f"quantity('{a}') >= 3"), P(f"quantity('{b}') >= 2")],
            30,
        )
        faults = client.release("shop", response.promise_id)
        assert faults == ()
        assert live_counts(deployments) == [0] * len(deployments)

    def test_rejection_on_one_shard_leaves_no_orphans(self, cluster):
        ring, deployments, gateway = cluster
        a, b = cross_pair(ring)
        client = PromiseClient("alice", gateway)
        response = client.request_promise(
            "shop",
            [P(f"quantity('{a}') >= 3"), P(f"quantity('{b}') >= {STOCK + 1}")],
            30,
        )
        assert not response.accepted
        assert gateway.metrics.value("gateway.composite_rejections") == 1
        # The shard that said yes must have been compensated.
        assert live_counts(deployments) == [0] * len(deployments)

    def test_lost_sub_reply_is_compensated(self, cluster):
        ring, deployments, gateway = cluster
        a, b = cross_pair(ring)
        victim = ring.shard_of(b)
        transport = deployments[victim].transport
        # The shard executes the grant but the gateway never hears back.
        transport.plan_reply_drop(transport.metrics.value("transport.sent") + 1)
        client = PromiseClient("alice", gateway, retry=RetryPolicy.none())
        response = client.request_promise(
            "shop",
            [P(f"quantity('{a}') >= 3"), P(f"quantity('{b}') >= 2")],
            30,
        )
        assert not response.accepted
        # Redeliver-then-release: the victim's reply cache reveals the
        # grant, which is then released; the other shard compensates.
        assert live_counts(deployments) == [0] * len(deployments)
        assert gateway.pending_compensations == 0

    def test_lost_sub_request_is_compensated(self, cluster):
        ring, deployments, gateway = cluster
        a, b = cross_pair(ring)
        victim = ring.shard_of(b)
        transport = deployments[victim].transport
        transport.plan_request_drop(transport.metrics.value("transport.sent") + 1)
        client = PromiseClient("alice", gateway, retry=RetryPolicy.none())
        response = client.request_promise(
            "shop",
            [P(f"quantity('{a}') >= 3"), P(f"quantity('{b}') >= 2")],
            30,
        )
        assert not response.accepted
        assert live_counts(deployments) == [0] * len(deployments)

    def test_action_under_composite_releases_everywhere(self, cluster):
        ring, deployments, gateway = cluster
        a, b = cross_pair(ring)
        client = PromiseClient("alice", gateway)
        response = client.request_promise(
            "shop",
            [P(f"quantity('{a}') >= 3"), P(f"quantity('{b}') >= 2")],
            30,
        )
        outcome = client.call(
            "shop",
            "merchant",
            "sell",
            {"product": a, "quantity": 3},
            environment=Environment.of(
                response.promise_id, release=[response.promise_id]
            ),
        )
        assert outcome.success
        # The client sees the composite id released, never the sub ids.
        assert outcome.released == (response.promise_id,)
        assert live_counts(deployments) == [0] * len(deployments)

    def test_cross_shard_or_predicate_rejected(self, cluster):
        ring, deployments, gateway = cluster
        a, b = cross_pair(ring)
        client = PromiseClient("alice", gateway)
        response = client.request_promise(
            "shop",
            [P(f"quantity('{a}') >= 1 or quantity('{b}') >= 1")],
            30,
        )
        assert not response.accepted
        assert "pin" in response.reason
        assert live_counts(deployments) == [0] * len(deployments)

    def test_composite_protects_action_on_member_shard(self, cluster):
        ring, deployments, gateway = cluster
        a, b = cross_pair(ring)
        client = PromiseClient("alice", gateway)
        rival = PromiseClient("rival", gateway)
        response = client.request_promise(
            "shop",
            [P(f"quantity('{a}') >= {STOCK}"), P(f"quantity('{b}') >= 2")],
            30,
        )
        assert response.accepted
        # A rival sale that would violate the composite's sub-promise on
        # a's shard must be rolled back by that shard's manager.
        outcome = rival.call(
            "shop", "merchant", "sell", {"product": a, "quantity": 1}
        )
        assert not outcome.success


class TestGatewayGuards:
    def test_shard_count_mismatch_rejected(self, cluster):
        ring, deployments, gateway = cluster
        from repro.cluster.partition import PartitionError

        with pytest.raises(PartitionError):
            ClusterGateway(
                [d.transport for d in deployments], ring=PartitionMap(2)
            )

    def test_needs_at_least_one_transport(self):
        from repro.cluster.partition import PartitionError

        with pytest.raises(PartitionError):
            ClusterGateway([])
