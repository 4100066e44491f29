"""Gateway resilience: per-shard breakers, deadline restamping, queue bounds."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterGateway, PartitionMap
from repro.core.parser import P
from repro.protocol.client import PromiseClient
from repro.protocol.errors import TransportFailure
from repro.protocol.messages import Message
from repro.protocol.retry import RetryPolicy
from repro.resilience import CircuitBreaker, CircuitOpen
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService

PRODUCTS = 12
STOCK = 20


class Recorder:
    """Transport wrapper recording every message that reaches a shard."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.sent: list[Message] = []

    def send(self, message: Message) -> Message:
        self.sent.append(message)
        return self.inner.send(message)


class DeadTransport:
    """A shard that is simply gone."""

    def __init__(self) -> None:
        self.calls = 0

    def send(self, message: Message) -> Message:
        self.calls += 1
        raise TransportFailure("shard down")


class ToggleTransport:
    """A shard whose reachability the test flips on and off."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.dead = False

    def send(self, message: Message) -> Message:
        if self.dead:
            raise TransportFailure("shard down")
        return self.inner.send(message)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def build_shards(count: int = 2):
    ring = PartitionMap(count)
    deployments: list[Deployment] = []
    for index in range(count):
        deployment = Deployment(name="shop", manager_name=f"shop-s{index}")
        deployment.add_service(MerchantService())
        owned = [
            f"product-{n}"
            for n in range(PRODUCTS)
            if ring.shard_of(f"product-{n}") == index
        ]
        if owned:
            deployment.use_pool_strategy(*owned)
            with deployment.seed() as txn:
                for pool_id in owned:
                    deployment.resources.create_pool(txn, pool_id, STOCK)
        deployments.append(deployment)
    return ring, deployments


def cross_pair(ring: PartitionMap) -> tuple[str, str]:
    first = "product-0"
    home = ring.shard_of(first)
    for index in range(1, PRODUCTS):
        candidate = f"product-{index}"
        if ring.shard_of(candidate) != home:
            return first, candidate
    raise AssertionError("no cross-shard pair")


def cross_predicates(ring: PartitionMap) -> list:
    a, b = cross_pair(ring)
    return [P(f"quantity('{a}') >= 3"), P(f"quantity('{b}') >= 2")]


class TestGatewayBreakers:
    def test_breaker_opens_and_stops_hammering_dead_shard(self):
        ring, deployments = build_shards(2)
        a, b = cross_pair(ring)
        dead_shard = ring.shard_of(b)
        dead = DeadTransport()
        transports: list = [d.transport for d in deployments]
        transports[dead_shard] = dead
        breakers = [
            CircuitBreaker(f"s{i}", failure_threshold=2, reset_timeout=60)
            for i in range(2)
        ]
        gateway = ClusterGateway(transports, ring=ring, breakers=breakers)
        client = PromiseClient("alice", gateway, retry=RetryPolicy.none())

        predicates = cross_predicates(ring)
        for _ in range(5):
            response = client.request_promise("shop", predicates, 30)
            assert not response.accepted
        # The dead shard saw at most the two attempts the threshold
        # allows (compensation redeliveries also count toward it);
        # everything after the trip failed fast at the gateway.
        assert breakers[dead_shard].trips >= 1
        assert dead.calls <= 2
        assert gateway.metrics.value("gateway.breaker_fast_failures") > 0
        for deployment in deployments:
            deployment.close()

    def test_open_breaker_fails_fast_on_single_shard_path(self):
        ring, deployments = build_shards(2)
        breakers = [
            CircuitBreaker(f"s{i}", failure_threshold=1, reset_timeout=60)
            for i in range(2)
        ]
        gateway = ClusterGateway(
            [d.transport for d in deployments], ring=ring, breakers=breakers
        )
        home = ring.shard_of("product-0")
        breakers[home].record_failure()  # trip by hand: threshold=1
        client = PromiseClient("alice", gateway, retry=RetryPolicy.none())
        with pytest.raises(CircuitOpen):
            client.request_promise(
                "shop", [P("quantity('product-0') >= 1")], 30
            )
        for deployment in deployments:
            deployment.close()

    def test_flush_pending_respects_an_open_breaker(self):
        # A queued compensation targeting a shard whose breaker is open
        # must fail fast and *stay queued* — flushing must neither
        # hammer the dead shard nor drop the entry.
        ring, deployments = build_shards(2)
        toggles = [ToggleTransport(d.transport) for d in deployments]
        breakers = [
            CircuitBreaker(f"s{i}", failure_threshold=1, reset_timeout=60)
            for i in range(2)
        ]
        gateway = ClusterGateway(toggles, ring=ring, breakers=breakers)
        a, b = cross_pair(ring)
        down = ring.shard_of(b)
        client = PromiseClient("alice", gateway, retry=RetryPolicy.none())
        response = client.request_promise("shop", cross_predicates(ring), 30)
        assert response.accepted

        toggles[down].dead = True
        client.release("shop", response.promise_id)
        assert gateway.pending_compensations == 1
        assert breakers[down].trips >= 1

        fast_before = gateway.metrics.value("gateway.breaker_fast_failures")
        assert gateway.flush_pending() == 0
        assert gateway.pending_compensations == 1  # kept, not dropped
        assert gateway.metrics.value("gateway.breaker_fast_failures") > fast_before

        # Shard healed and breaker nudged half-open: the flush clears.
        toggles[down].dead = False
        assert gateway.reset_breaker(down)
        assert gateway.flush_pending() == 1
        assert gateway.pending_compensations == 0
        assert all(
            len(d.manager.active_promises()) == 0 for d in deployments
        )
        for deployment in deployments:
            deployment.close()

    def test_healthy_traffic_keeps_breakers_closed(self):
        ring, deployments = build_shards(2)
        breakers = [
            CircuitBreaker(f"s{i}", failure_threshold=2) for i in range(2)
        ]
        gateway = ClusterGateway(
            [d.transport for d in deployments], ring=ring, breakers=breakers
        )
        client = PromiseClient("alice", gateway, retry=RetryPolicy.none())
        response = client.request_promise("shop", cross_predicates(ring), 30)
        assert response.accepted
        assert all(b.trips == 0 for b in breakers)
        assert gateway.metrics.value("gateway.breaker_fast_failures") == 0
        for deployment in deployments:
            deployment.close()


class TestPendingQueueBounds:
    """Satellite: a permanently dead shard sheds instead of growing."""

    def _gateway_with_dead_shard(self, **kwargs):
        ring, deployments = build_shards(2)
        __, b = cross_pair(ring)
        dead_shard = ring.shard_of(b)
        dead = DeadTransport()
        transports: list = [d.transport for d in deployments]
        transports[dead_shard] = dead
        gateway = ClusterGateway(transports, ring=ring, **kwargs)
        return ring, deployments, gateway

    def test_depth_bound_drops_oldest(self):
        ring, deployments, gateway = self._gateway_with_dead_shard(
            pending_limit=3
        )
        client = PromiseClient("alice", gateway, retry=RetryPolicy.none())
        predicates = cross_predicates(ring)
        for _ in range(5):
            client.request_promise("shop", predicates, 30)
        # Each failed scatter queues one redeliver-and-release for the
        # unreachable shard; the bound keeps only the newest three.
        assert gateway.pending_compensations == 3
        assert gateway.metrics.value("gateway.pending_dropped") == 2
        for deployment in deployments:
            deployment.close()

    def test_age_bound_prunes_on_flush(self):
        clock = FakeClock()
        ring, deployments, gateway = self._gateway_with_dead_shard(
            pending_limit=None, pending_max_age=10.0, clock=clock
        )
        client = PromiseClient("alice", gateway, retry=RetryPolicy.none())
        predicates = cross_predicates(ring)
        client.request_promise("shop", predicates, 30)
        client.request_promise("shop", predicates, 30)
        assert gateway.pending_compensations == 2
        clock.advance(11.0)
        cleared = gateway.flush_pending()
        assert cleared == 0
        assert gateway.pending_compensations == 0
        assert gateway.metrics.value("gateway.pending_dropped") == 2
        for deployment in deployments:
            deployment.close()

    def test_unbounded_when_limits_disabled(self):
        ring, deployments, gateway = self._gateway_with_dead_shard(
            pending_limit=None
        )
        client = PromiseClient("alice", gateway, retry=RetryPolicy.none())
        predicates = cross_predicates(ring)
        for _ in range(5):
            client.request_promise("shop", predicates, 30)
        assert gateway.pending_compensations == 5
        assert gateway.metrics.value("gateway.pending_dropped") == 0
        for deployment in deployments:
            deployment.close()


class TestReleaseCompensation:
    def test_unreachable_sub_release_is_queued_not_lost(self):
        # Found by the chaos nemesis: a composite release while one
        # member shard is down must queue that shard's sub-release as a
        # pending compensation, not just report a fault — otherwise the
        # sub-promise leaks until its duration expires.
        ring, deployments = build_shards(2)
        toggles = [ToggleTransport(d.transport) for d in deployments]
        gateway = ClusterGateway(toggles, ring=ring)
        a, b = cross_pair(ring)
        down = ring.shard_of(b)
        client = PromiseClient("alice", gateway, retry=RetryPolicy.none())
        response = client.request_promise(
            "shop", [P(f"quantity('{a}') >= 3"), P(f"quantity('{b}') >= 2")], 30
        )
        assert response.accepted

        toggles[down].dead = True
        faults = client.release("shop", response.promise_id)
        assert any("cluster-shard-unreachable" in fault for fault in faults)
        assert gateway.pending_compensations == 1

        toggles[down].dead = False
        assert gateway.flush_pending() == 1
        assert gateway.pending_compensations == 0
        assert all(
            len(d.manager.active_promises()) == 0 for d in deployments
        )
        for deployment in deployments:
            deployment.close()


class TestScatterDeadlines:
    def test_sub_messages_carry_restamped_budget(self):
        ring, deployments = build_shards(2)
        recorders = [Recorder(d.transport) for d in deployments]
        gateway = ClusterGateway(recorders, ring=ring)
        client = PromiseClient(
            "alice", gateway, retry=RetryPolicy.none(), deadline=30.0
        )
        response = client.request_promise("shop", cross_predicates(ring), 30)
        assert response.accepted
        grant_subs = [
            m
            for recorder in recorders
            for m in recorder.sent
            if m.promise_requests
        ]
        assert len(grant_subs) == 2
        for sub in grant_subs:
            assert sub.deadline is not None
            assert 0 < sub.deadline <= 30.0
        for deployment in deployments:
            deployment.close()

    def test_compensations_carry_no_deadline(self):
        # One shard rejects (demand above stock), the other grants and
        # must be compensated — with no deadline: the release must run
        # even though nobody is waiting on the original request.
        ring, deployments = build_shards(2)
        recorders = [Recorder(d.transport) for d in deployments]
        gateway = ClusterGateway(recorders, ring=ring)
        a, b = cross_pair(ring)
        granting = ring.shard_of(a)
        client = PromiseClient(
            "alice", gateway, retry=RetryPolicy.none(), deadline=30.0
        )
        response = client.request_promise(
            "shop",
            [P(f"quantity('{a}') >= 3"), P(f"quantity('{b}') >= {STOCK + 5}")],
            30,
        )
        assert not response.accepted
        releases = [
            m
            for m in recorders[granting].sent
            if m.environment is not None and not m.promise_requests
        ]
        assert releases, "expected a compensating release on the granting shard"
        assert all(m.deadline is None for m in releases)
        # And nothing was left behind.
        assert all(
            len(d.manager.active_promises()) == 0 for d in deployments
        )
        for deployment in deployments:
            deployment.close()
