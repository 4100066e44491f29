"""Gateway resilience: per-shard breakers, deadline restamping, queue bounds."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.cluster import ClusterGateway, PartitionMap
from repro.core.parser import P
from repro.protocol.client import PromiseClient
from repro.protocol.errors import TransportFailure
from repro.protocol.messages import Message
from repro.protocol.retry import RetryPolicy
from repro.resilience import CircuitBreaker, CircuitOpen

from .conftest import STOCK, ToggleTransport, build_shards, cross_pair

pytestmark = pytest.mark.cluster


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


def cross_predicates(ring: PartitionMap) -> list:
    a, b = cross_pair(ring)
    return [P(f"quantity('{a}') >= 3"), P(f"quantity('{b}') >= 2")]


class TestGatewayBreakers:
    def test_breaker_opens_and_stops_hammering_dead_shard(self):
        ring, deployments, __ = build_shards(2)
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
        ring, deployments, __ = build_shards(2)
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
        ring, deployments, __ = build_shards(2)
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
        ring, deployments, __ = build_shards(2)
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
        ring, deployments, __ = build_shards(2)
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
        ring, deployments, __ = build_shards(2)
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
        ring, deployments, __ = build_shards(2)
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
        ring, deployments, __ = build_shards(2)
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


class TestCompensationPath:
    def test_pending_gauge_drains_with_the_queue(self):
        ring, deployments, __ = build_shards(2)
        toggles = [ToggleTransport(d.transport) for d in deployments]
        gateway = ClusterGateway(toggles, ring=ring)
        __, b = cross_pair(ring)
        down = ring.shard_of(b)
        client = PromiseClient("alice", gateway, retry=RetryPolicy.none())

        toggles[down].dead = True
        response = client.request_promise("shop", cross_predicates(ring), 30)
        assert not response.accepted
        assert gateway.metrics.value("gateway.pending_compensations") == 1

        toggles[down].dead = False
        assert gateway.flush_pending() == 1
        assert gateway.metrics.value("gateway.pending_compensations") == 0
        assert all(
            len(d.manager.active_promises()) == 0 for d in deployments
        )
        for deployment in deployments:
            deployment.close()

    def test_redelivery_resends_the_sub_message_the_scatter_sent(self):
        # The unreached shard's compensation must redeliver what that
        # shard was sent — same id, only its own predicates — so its
        # reply cache can answer, and it is never asked about pools it
        # does not own.
        ring, deployments, __ = build_shards(2)
        recorders = [Recorder(d.transport) for d in deployments]
        gateway = ClusterGateway(recorders, ring=ring)
        __, b = cross_pair(ring)
        victim = ring.shard_of(b)
        inner = deployments[victim].transport
        inner.plan_request_drop(inner.metrics.value("transport.sent") + 1)
        client = PromiseClient(
            "alice", gateway, retry=RetryPolicy.none(), deadline=30.0
        )
        response = client.request_promise("shop", cross_predicates(ring), 30)
        assert not response.accepted

        grants = [m for m in recorders[victim].sent if m.promise_requests]
        assert len(grants) == 2
        original, redelivered = grants
        assert original.message_id.endswith(f"/s{victim}")
        assert redelivered.message_id == original.message_id
        assert redelivered.promise_requests == original.promise_requests
        assert redelivered.deadline is None
        for request in redelivered.promise_requests:
            assert set(ring.split_predicates(request.predicates)) == {victim}
        # The redelivery executed the grant; compensation released it.
        assert all(
            len(d.manager.active_promises()) == 0 for d in deployments
        )
        assert gateway.metrics.value("gateway.compensations") == 2
        for deployment in deployments:
            deployment.close()

    def test_a_flush_racing_senders_loses_no_queued_entry(self):
        # Senders queue redeliveries for a dead shard while another
        # thread keeps flushing (and re-queueing) them: every entry must
        # survive — a flush that rebuilt the queue from what it saw at
        # the start would lose the ones queued meanwhile.
        ring = PartitionMap(2)
        gateway = ClusterGateway(
            [DeadTransport(), DeadTransport()], ring=ring, pending_limit=None
        )
        senders, per_sender = 4, 25
        accepted: list[bool] = []
        stop = threading.Event()

        def send(name: int) -> None:
            client = PromiseClient(
                f"c{name}", gateway, retry=RetryPolicy.none()
            )
            for _ in range(per_sender):
                response = client.request_promise(
                    "shop", cross_predicates(ring), 30
                )
                accepted.append(response.accepted)

        def flush() -> None:
            while not stop.is_set():
                gateway.flush_pending()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            flusher = threading.Thread(target=flush)
            threads = [
                threading.Thread(target=send, args=(name,))
                for name in range(senders)
            ]
            flusher.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stop.set()
            flusher.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [flusher, *threads])
        # Each rejected request queued one redelivery per shard.
        queued = 2 * senders * per_sender
        assert accepted == [False] * senders * per_sender
        assert gateway.pending_compensations == queued
        assert gateway.metrics.value("gateway.pending_compensations") == queued
