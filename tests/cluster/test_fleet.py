"""Fleet fault matrix: shard crashes, timeouts, restarts — no orphans.

The acceptance bar for the cluster subsystem: whatever happens to a
single shard mid cross-shard request — a crash-point kill after the
grant committed, a connection black-hole, a full process kill — the
fleet must end with **zero orphaned sub-promises** (every shard's doctor
audit clean, every live-promise count zero) and never over-grant.

Runs real :class:`~repro.net.server.PromiseServer` sockets with
WAL-backed shards, so recovery and the durable reply journal are part of
the loop.  Every scenario runs twice against the one fleet class:
unreplicated (``replicas=0``: a killed shard restarts on its own port
from its own WAL) and with one follower per shard (``replicas=1``: the
restart is a promotion, to a new address at the next epoch).  Marked
``cluster``; CI runs them as the fleet-suite job.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import replace

import pytest

from repro.cluster import PartitionMap, provision_products
from repro.cluster.gateway import ClusterGateway
from repro.core.parser import P
from repro.faults.crashpoints import clear, install
from repro.net.transport import NetworkTransport
from repro.protocol.client import PromiseClient
from repro.protocol.errors import TransportFailure
from repro.protocol.messages import ActionPayload, Message
from repro.protocol.retry import RetryPolicy
from repro.replication import ReplicatedFleet
from repro.resilience import CircuitOpen

pytestmark = pytest.mark.cluster

PRODUCTS = 12
STOCK = 20


@pytest.fixture(autouse=True)
def disarm():
    clear()
    yield
    clear()


@pytest.fixture(params=[0, 1], ids=["replicas=0", "replicas=1"])
def fleet(request, tmp_path):
    ring = PartitionMap(3)
    fleet = ReplicatedFleet(
        3,
        replicas=request.param,
        provision=provision_products(PRODUCTS, STOCK),
        ring=ring,
        wal_dir=str(tmp_path),
    )
    fleet.start()
    yield fleet
    fleet.stop()


def cross_pair(ring: PartitionMap) -> tuple[str, str]:
    first = "product-0"
    home = ring.shard_of(first)
    for index in range(1, PRODUCTS):
        candidate = f"product-{index}"
        if ring.shard_of(candidate) != home:
            return first, candidate
    raise AssertionError("no cross-shard pair")


def replicated(fleet: ReplicatedFleet) -> bool:
    return bool(fleet.group(0).followers)


def assert_no_orphans(fleet: ReplicatedFleet) -> None:
    assert all(count == 0 for count in fleet.live_promises().values())
    assert all(not findings for findings in fleet.audit().values())


class TestFleetLifecycle:
    def test_grant_act_release_roundtrip(self, fleet):
        a, b = cross_pair(fleet.ring)
        with fleet.gateway() as gateway:
            client = PromiseClient("alice", gateway)
            response = client.request_promise(
                "shop",
                [P(f"quantity('{a}') >= 3"), P(f"quantity('{b}') >= 2")],
                30,
            )
            assert response.accepted
            faults = client.release("shop", response.promise_id)
            assert faults == ()
        assert_no_orphans(fleet)

    def test_promise_and_reply_journal_survive_restart(self, fleet):
        home = fleet.ring.shard_of("product-0")
        with fleet.gateway() as gateway:
            client = PromiseClient("bob", gateway)
            response = client.request_promise(
                "shop", [P("quantity('product-0') >= 5")], 1000
            )
            assert response.accepted

            probe = Message(
                message_id="fleet-test:probe",
                sender="bob",
                recipient="shop",
                action=ActionPayload(
                    "merchant", "stock_level", {"product": "product-0"}
                ),
            )
            first = gateway.send(probe)

            served_from = fleet.shard(home).address
            fleet.kill(home)
            restarted_on = fleet.restart(home)
            # Same WAL contents either way; the same port when the shard
            # rebooted, a promoted follower's when it had one.
            assert (restarted_on == served_from) == (not replicated(fleet))
            assert fleet.epoch(home) == (1 if replicated(fleet) else 0)

            # The promise survived, and the stale pooled connection is
            # discarded (or remapped) rather than reused.
            replayed = gateway.send(probe)
            # Restart: the same reply.  Promotion: the same but for the
            # <epoch> header, which names the primary that answered.
            assert replace(replayed, epoch=first.epoch) == first
            if replicated(fleet):
                assert (first.epoch, replayed.epoch) == (0, 1)
            # The reply cache died with the old process: the duplicate
            # re-entered the handler and was answered from the row the
            # manager journalled in the action's own transaction.
            metrics = fleet.shard(home).server.metrics
            assert metrics.value("manager.journal.replays") == 1
        assert fleet.live_promises()[home] == 1
        assert all(not findings for findings in fleet.audit().values())

    def test_base_port_zero_puts_every_shard_on_an_ephemeral_port(
        self, tmp_path
    ):
        # Not base_port + i: shard i on port i would bind (or fail to
        # bind) the privileged ports 1, 2, ...
        fleet = ReplicatedFleet(
            3,
            replicas=0,
            provision=provision_products(PRODUCTS, STOCK),
            wal_dir=str(tmp_path),
            base_port=0,
        )
        ports = [port for __, port in fleet.start()]
        try:
            assert len(set(ports)) == 3
            assert min(ports) >= 1024
        finally:
            fleet.stop()


class TestShardCrashMidScatter:
    def test_crash_after_grant_is_compensated(self, fleet):
        """The victim grants its sub-promise, commits, then 'dies' before
        its barrier and its reply.  A dead shard acks nothing — not even
        the compensation's redelivery — so the compensation waits; once
        the shard is back, redeliver-then-release settles whatever its
        log kept — no orphan, no over-grant."""
        a, b = cross_pair(fleet.ring)
        victim = fleet.ring.shard_of(b)
        install("manager.after-grant-before-reply", scope=f"shard-{victim}")

        with fleet.gateway(retry=RetryPolicy.none()) as gateway:
            client = PromiseClient("carol", gateway, retry=RetryPolicy.none())
            response = client.request_promise(
                "shop",
                [P(f"quantity('{a}') >= 3"), P(f"quantity('{b}') >= 2")],
                30,
            )
            assert not response.accepted
            assert gateway.pending_compensations == 1
            fleet.kill(victim)
            clear()
            fleet.restart(victim)
            gateway.flush_pending()
            assert gateway.pending_compensations == 0
        assert_no_orphans(fleet)

    def test_crashed_shard_still_isolated_from_siblings(self, fleet):
        """A scoped crash on one shard must not freeze its siblings'
        WALs: a grant on another shard afterwards still persists."""
        a, b = cross_pair(fleet.ring)
        victim = fleet.ring.shard_of(b)
        survivor = fleet.ring.shard_of(a)
        install("manager.after-grant-before-reply", scope=f"shard-{victim}")

        with fleet.gateway(retry=RetryPolicy.none()) as gateway:
            client = PromiseClient("dave", gateway, retry=RetryPolicy.none())
            client.request_promise(
                "shop",
                [P(f"quantity('{a}') >= 3"), P(f"quantity('{b}') >= 2")],
                30,
            )
            response = client.request_promise(
                "shop", [P(f"quantity('{a}') >= 1")], 1000
            )
            assert response.accepted

        fleet.kill(survivor)
        fleet.restart(survivor)
        assert fleet.live_promises()[survivor] == 1

    def test_killed_shard_queues_then_flushes(self, fleet):
        """A shard that is fully down during the scatter gets its
        compensation queued; after restart, one flush clears it."""
        a, b = cross_pair(fleet.ring)
        victim = fleet.ring.shard_of(b)
        fleet.kill(victim)

        with fleet.gateway(timeout=1.0, retry=RetryPolicy.none()) as gateway:
            client = PromiseClient("erin", gateway, retry=RetryPolicy.none())
            response = client.request_promise(
                "shop",
                [P(f"quantity('{a}') >= 3"), P(f"quantity('{b}') >= 2")],
                30,
            )
            assert not response.accepted
            assert gateway.pending_compensations == 1

            fleet.restart(victim)
            # A reboot leaves the flush to the caller; a promotion has
            # already run it by the time restart returns.
            assert gateway.flush_pending() == (0 if replicated(fleet) else 1)
            assert gateway.pending_compensations == 0
            assert_no_orphans(fleet)

    def test_restart_resets_the_gateway_breaker(self, fleet):
        """Satellite bugfix: a shard coming back via ``restart`` must
        get its breaker forced half-open on every fleet-built gateway —
        otherwise the healthy shard keeps fast-failing until the open
        window lapses."""
        product = "product-0"
        victim = fleet.ring.shard_of(product)
        with fleet.gateway(
            timeout=1.0,
            retry=RetryPolicy.none(),
            breaker_failures=2,
            breaker_reset=3600.0,  # would stay open for an hour
        ) as gateway:
            client = PromiseClient("erin", gateway, retry=RetryPolicy.none())
            fleet.kill(victim)
            for _ in range(3):
                with pytest.raises(
                    (TransportFailure, CircuitOpen)
                ):
                    client.request_promise(
                        "shop", [P(f"quantity('{product}') >= 1")], 30
                    )
            assert gateway.metrics.value("gateway.breaker_fast_failures") > 0

            fleet.restart(victim)
            # No hour-long wait: the very next request is the probe.
            response = client.request_promise(
                "shop", [P(f"quantity('{product}') >= 1")], 30
            )
            assert response.accepted
            client.release("shop", response.promise_id)
            assert_no_orphans(fleet)


class TestShardTimeoutMidScatter:
    def test_black_hole_shard_rejects_and_compensates(self, fleet):
        """One 'shard' accepts connections but never replies.  The
        gateway must time out, reject the composite, and compensate the
        shards that did answer."""
        a, b = cross_pair(fleet.ring)
        victim = fleet.ring.shard_of(b)

        hole = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        hole.bind(("127.0.0.1", 0))
        hole.listen(4)
        swallowed: list[socket.socket] = []
        alive = threading.Event()
        alive.set()

        def swallow() -> None:
            while alive.is_set():
                try:
                    conn, __ = hole.accept()
                except OSError:
                    return
                swallowed.append(conn)

        thread = threading.Thread(target=swallow, daemon=True)
        thread.start()
        try:
            addresses = fleet.addresses()
            transports = [
                NetworkTransport(
                    hole.getsockname() if index == victim else address,
                    timeout=0.5,
                    retry=RetryPolicy.none(),
                )
                for index, address in enumerate(addresses)
            ]
            gateway = ClusterGateway(transports, ring=fleet.ring)
            client = PromiseClient("frank", gateway, retry=RetryPolicy.none())
            response = client.request_promise(
                "shop",
                [P(f"quantity('{a}') >= 3"), P(f"quantity('{b}') >= 2")],
                30,
            )
            assert not response.accepted
            # The unanswered shard's compensation is queued, the
            # answering shard's was applied immediately.
            assert gateway.pending_compensations == 1
            counts = fleet.live_promises()
            assert counts[fleet.ring.shard_of(a)] == 0
            assert counts[victim] == 0  # the real shard never saw it
            gateway.close()
        finally:
            alive.clear()
            hole.close()
            for conn in swallowed:
                conn.close()
