"""Replica-group failover over real sockets: promote, fence, rejoin.

The acceptance bar for the replication subsystem: whatever kills a
primary — a process kill, a partition — the group must promote a
follower carrying every acked write, reject the deposed primary's late
writes and acks, keep redelivery answering from the journaled replies,
and end every scenario audit-clean.  Marked ``failover``; CI runs these
as the failover-suite job.
"""

from __future__ import annotations

import errno
import os
import threading
import time
from dataclasses import replace

import pytest

from repro.cluster import provision_products
from repro.core.parser import P
from repro.faults.history import HistoryRecorder
from repro.protocol.client import PromiseClient
from repro.protocol.errors import (
    ProtocolError,
    RequestTimeout,
    TransportFailure,
)
from repro.protocol.retry import RetryPolicy
from repro.replication import HeartbeatDetector, ReplicatedFleet

pytestmark = pytest.mark.failover

PRODUCTS = 4
STOCK = 10
CLIENT_ERRORS = (TransportFailure, RequestTimeout, ProtocolError)


class Tap:
    """Remember the last wire message, for redelivery-based probes."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.last = None

    def send(self, message):
        self.last = message
        return self.inner.send(message)


@pytest.fixture()
def fleet(tmp_path):
    # Every failover scenario is additionally audited offline: the
    # history recorder taps each acting primary's WAL and must find no
    # over-grant or double execution across the epoch bumps.
    history = HistoryRecorder()
    fleet = ReplicatedFleet(
        2,
        replicas=1,
        provision=provision_products(PRODUCTS, STOCK),
        wal_dir=str(tmp_path),
        history=history,
    )
    fleet.start()
    yield fleet
    history.detach_all()
    fleet.stop()
    assert history.check() == []


def make_client(fleet):
    gateway = fleet.gateway(
        timeout=2.0,
        retry=RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=0.2),
    )
    tap = Tap(gateway)
    client = PromiseClient("failover-test", tap, retry=RetryPolicy.none())
    return gateway, tap, client


def victim_product(fleet) -> tuple[int, str]:
    products = [f"product-{n}" for n in range(PRODUCTS)]
    placement = fleet.ring.placement(products)
    victim = max(placement, key=lambda shard: len(placement[shard]))
    return victim, sorted(placement[victim])[0]


def grant(client, product: str):
    return client.request_promise(
        "shop", [P(f"quantity('{product}') >= 1")], 60
    )


def test_kill_then_failover_serves_from_the_follower(fleet):
    gateway, _, client = make_client(fleet)
    victim, product = victim_product(fleet)

    before = grant(client, product)
    assert before.accepted
    client.release("shop", before.promise_id)

    fleet.kill(victim)
    assert fleet.failover(victim) == 1
    after = grant(client, product)
    assert after.accepted
    client.release("shop", after.promise_id)

    assert fleet.epoch(victim) == 1
    assert all(not findings for findings in fleet.audit().values())
    assert all(count == 0 for count in fleet.live_promises().values())
    gateway.close()


def test_journaled_replies_survive_failover(fleet):
    """Redelivering a pre-failover acked grant must return the original
    promise id: the promoted follower warmed its dedup cache from the
    old primary's journaled replies (shipped in the WAL)."""
    gateway, tap, client = make_client(fleet)
    victim, product = victim_product(fleet)

    response = grant(client, product)
    assert response.accepted
    original = response.promise_id
    wire_message = replace(tap.last, deadline=None)

    fleet.kill(victim)
    fleet.failover(victim)

    for _ in range(2):
        reply = gateway.send(wire_message)
        revealed = [
            r.promise_id for r in reply.promise_responses if r.accepted
        ]
        assert revealed == [original]
    client.release("shop", original)
    gateway.close()


def test_failover_promotes_the_most_caught_up_follower(tmp_path):
    history = HistoryRecorder()
    fleet = ReplicatedFleet(
        1,
        replicas=2,
        provision=provision_products(PRODUCTS, STOCK),
        wal_dir=str(tmp_path),
        history=history,
    )
    with fleet:
        gateway, _, client = make_client(fleet)
        group = fleet.group(0)
        primary = group.primary
        # Cut one follower out of the stream: it stops catching up.
        laggard = group.followers[0]
        primary.sender.remove_follower(laggard.name)

        response = grant(client, "product-0")
        assert response.accepted
        client.release("shop", response.promise_id)

        caught_up = group.followers[1]
        assert caught_up.applied_lsn() > laggard.applied_lsn()

        fleet.kill(0)
        fleet.failover(0)
        assert fleet.group(0).primary is caught_up
        # The laggard was healed by the new primary's full re-sync.
        assert (
            fleet.replication_status(0)["stream"]["followers"][laggard.name]
            == fleet.shard(0).deployment.store.wal.last_lsn
        )
        gateway.close()
    history.detach_all()
    assert history.check() == []


def test_dispatch_and_commit_tuning_survive_failover(tmp_path):
    """``workers`` reaches every server, followers included, and every
    acting primary's server commits through its own store — request
    scope and barrier — so a promoted follower dispatches and hardens
    the way the primary it replaces did."""
    fleet = ReplicatedFleet(
        2,
        replicas=1,
        provision=provision_products(PRODUCTS, STOCK),
        wal_dir=str(tmp_path),
        workers=3,
    )

    def as_configured() -> None:
        for index in range(len(fleet)):
            group = fleet.group(index)
            server, store = group.primary.server, group.primary.deployment.store
            assert server.request_scope == store.wal.request_scope
            assert server.durability == store.wait_durable
            for replica in [group.primary] + group.followers:
                assert replica.server.workers == 3

    with fleet:
        gateway, _, client = make_client(fleet)
        as_configured()
        for victim in range(len(fleet)):
            fleet.kill(victim)
            fleet.failover(victim)
            fleet.rejoin(victim)
        as_configured()
        for product in (f"product-{n}" for n in range(PRODUCTS)):
            response = grant(client, product)
            assert response.accepted
            client.release("shop", response.promise_id)
        assert all(not findings for findings in fleet.audit().values())
        gateway.close()


def test_failover_keeps_each_gateways_transport_settings(fleet):
    """The leg a promotion installs is the displaced leg ``rebound`` to
    the new primary — a gateway made not to retry stays that way — and
    the displaced leg is closed, not leaked."""
    victim, _ = victim_product(fleet)
    patient = fleet.gateway(timeout=1.5, retry=RetryPolicy.none())
    eager = fleet.gateway(timeout=4.0, retry=RetryPolicy(max_attempts=7))
    displaced = [g.transport(victim) for g in (patient, eager)]

    fleet.kill(victim)
    fleet.failover(victim)

    promoted = fleet.shard(victim).address
    for gateway, old, (timeout, attempts) in zip(
        (patient, eager), displaced, ((1.5, 1), (4.0, 7))
    ):
        leg = gateway.transport(victim)
        assert leg is not old and leg.address == promoted
        assert leg.client.timeout == timeout
        assert leg.client.retry is old.client.retry
        assert leg.client.retry.max_attempts == attempts
        with pytest.raises(TransportFailure, match="closed"):
            old.client.request(b"")
        gateway.close()


def test_epochs_are_monotonic_across_repeated_failovers(fleet):
    _, _, client = make_client(fleet)
    victim, product = victim_product(fleet)
    seen = [fleet.epoch(victim)]
    for _ in range(2):
        fleet.kill(victim)
        fleet.restart(victim)  # promote + rejoin the corpse
        seen.append(fleet.epoch(victim))
        response = grant(client, product)
        assert response.accepted
        client.release("shop", response.promise_id)
    assert seen == sorted(seen) and len(set(seen)) == len(seen)


def test_rejoin_restores_redundancy_after_failover(fleet):
    _, _, client = make_client(fleet)
    victim, product = victim_product(fleet)
    fleet.kill(victim)
    fleet.failover(victim)
    assert fleet.rejoin(victim) == 1

    status = fleet.replication_status(victim)
    assert len(status["followers"]) == 1
    response = grant(client, product)
    assert response.accepted
    client.release("shop", response.promise_id)
    # The rejoined follower acks the new primary's stream.
    stream = fleet.replication_status(victim)["stream"]
    assert stream["synced_lsn"] == stream["last_lsn"]


def test_partitioned_primary_withholds_acks_and_is_fenced(fleet):
    gateway, _, client = make_client(fleet)
    victim, product = victim_product(fleet)

    fleet.partition(victim)
    zombie = fleet.group(victim).primary
    # The cut primary's gate refuses: no follower can ack its writes.
    with pytest.raises(CLIENT_ERRORS):
        grant(client, product)

    fleet.failover(victim)
    after = grant(client, product)
    assert after.accepted
    client.release("shop", after.promise_id)

    fleet.heal(victim)  # retires the zombie, rejoins it as a follower
    assert zombie is not fleet.group(victim).primary
    assert not fleet.group(victim).deposed
    assert all(not findings for findings in fleet.audit().values())
    gateway.close()


def test_heartbeat_detector_promotes_without_an_operator(fleet):
    _, _, client = make_client(fleet)
    victim, product = victim_product(fleet)
    detector = HeartbeatDetector(fleet, interval=0.05, miss_threshold=3)
    with detector:
        fleet.kill(victim)
        assert fleet.await_failover(victim, beyond_epoch=0, timeout=10.0)
    assert fleet.failovers == 1
    assert detector.failovers == 1
    response = grant(client, product)
    assert response.accepted
    client.release("shop", response.promise_id)


def test_a_latched_primary_is_failed_over_by_the_heartbeat(
    tmp_path, monkeypatch
):
    """A failed fsync latches the primary's log: it still answers pings,
    but its pong says ``durable: False``, so the detector counts it as
    missed and promotes the follower as for a kill.  The request whose
    barrier failed was never acked; redelivered to the new primary it is
    executed at most once."""
    history = HistoryRecorder()
    fleet = ReplicatedFleet(
        1,
        replicas=1,
        provision=provision_products(PRODUCTS, STOCK),
        wal_dir=str(tmp_path),
        fsync=True,
        history=history,
    )
    interval, miss_threshold = 0.2, 2
    with fleet:
        gateway = fleet.gateway(timeout=2.0, retry=RetryPolicy.none())
        tap = Tap(gateway)
        client = PromiseClient("latch-test", tap, retry=RetryPolicy.none())
        primary = fleet.group(0).primary
        doomed = os.stat(primary.wal_path).st_ino
        real_fsync = os.fsync
        latched_at: list[float] = []

        def fsync(fd: int) -> None:
            if os.fstat(fd).st_ino == doomed:
                latched_at.append(time.monotonic())
                raise OSError(errno.EIO, "injected fsync failure")
            real_fsync(fd)

        detector = HeartbeatDetector(
            fleet, interval=interval, miss_threshold=miss_threshold
        )
        with detector:
            monkeypatch.setattr(os, "fsync", fsync)
            with pytest.raises(CLIENT_ERRORS):
                grant(client, "product-0")
            assert primary.deployment.store.wal.failed
            assert fleet.await_failover(0, beyond_epoch=0, timeout=10.0)
            promoted_at = time.monotonic()
        monkeypatch.undo()

        assert promoted_at - latched_at[0] <= interval * (miss_threshold + 1)
        assert detector.failovers == 1 and fleet.failovers == 1
        assert fleet.group(0).primary is not primary and not primary.alive
        assert all(not findings for findings in fleet.audit().values())

        # Redelivered (same message id) the unacked grant holds one
        # promise at most: replayed if the follower had it, else run once.
        reply = gateway.send(replace(tap.last, deadline=None))
        granted = [r.promise_id for r in reply.promise_responses if r.accepted]
        assert len(granted) == 1
        reply = gateway.send(replace(tap.last, deadline=None))
        assert [
            r.promise_id for r in reply.promise_responses if r.accepted
        ] == granted
        assert fleet.live_promises() == {0: 1}
        client.release("shop", granted[0])
        assert fleet.live_promises() == {0: 0}
        assert all(not findings for findings in fleet.audit().values())
        gateway.close()
    history.detach_all()
    assert history.check() == []


def test_detector_leaves_a_healthy_fleet_alone(fleet):
    detector = HeartbeatDetector(fleet, interval=0.05, miss_threshold=2)
    with detector:
        time.sleep(0.5)
    assert fleet.failovers == 0
    assert detector.pings > 0
    assert detector.failovers == 0


def test_shipping_to_two_followers_starts_no_thread(tmp_path):
    """Two followers per group are shipped to by the thread that serves
    the request; a failover and a stop leave no thread behind."""

    def settled(expected: int) -> int:
        deadline = time.monotonic() + 5.0
        while threading.active_count() > expected and time.monotonic() < deadline:
            time.sleep(0.02)
        return threading.active_count()

    before = threading.active_count()
    fleet = ReplicatedFleet(
        2,
        replicas=2,
        provision=provision_products(PRODUCTS, STOCK),
        wal_dir=str(tmp_path),
    )
    fleet.start()
    gateway, _, client = make_client(fleet)
    victim, product = victim_product(fleet)
    response = grant(client, product)  # opens every connection there is
    assert response.accepted
    serving = threading.active_count()
    client.release("shop", response.promise_id)
    response = grant(client, product)
    assert response.accepted
    assert threading.active_count() == serving

    fleet.kill(victim)
    fleet.failover(victim)
    client.release("shop", response.promise_id)
    assert all(not findings for findings in fleet.audit().values())

    gateway.close()
    fleet.stop()
    assert settled(before) == before
