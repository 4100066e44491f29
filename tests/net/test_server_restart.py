"""Kill-and-restart of the networked promise manager (ISSUE acceptance).

A :class:`PromiseServer` in front of a WAL-ed deployment is killed
between a client's request and its retry.  The restarted server must
recover to a doctor-clean state, answer the retried pre-crash message
byte-for-byte — re-rendered from the row the manager journalled in the
grant's own transaction, the server keeps no journal — and keep
granting: at-most-once semantics across process lives, over real TCP.
"""

from __future__ import annotations

import pytest

from repro.cluster import host_deployment
from repro.core.parser import P
from repro.core.promise import PromiseRequest
from repro.net import NetworkTransport, PromiseServer, ThreadedServer
from repro.net.server import NET_REPLY_JOURNAL_TABLE
from repro.protocol.messages import Message
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService

pytestmark = pytest.mark.crash

STOCK = 50


def build_shop(wal) -> Deployment:
    shop = Deployment(name="shop", wal_path=str(wal))
    shop.add_service(MerchantService())
    shop.use_pool_strategy("widgets")
    if shop.recovered:
        shop.recover()
    else:
        with shop.seed() as txn:
            shop.resources.create_pool(txn, "widgets", STOCK)
    return shop


def build_server(shop: Deployment) -> PromiseServer:
    return host_deployment(shop, "shop")


def promise_message(message_id: str, request_id: str, amount: int = 5):
    return Message(
        message_id=message_id,
        sender="alice",
        recipient="shop",
        promise_requests=(
            PromiseRequest(
                request_id,
                (P(f"quantity('widgets') >= {amount}"),),
                30,
                client_id="alice",
            ),
        ),
    )


class TestServerRestart:
    def test_pre_crash_reply_replayed_byte_for_byte(self, tmp_path):
        wal = tmp_path / "shop.wal"
        shop = build_shop(wal)
        server = build_server(shop)
        with ThreadedServer(server) as address:
            with NetworkTransport(address) as transport:
                first = transport.send(promise_message("alice:m1", "alice:r1"))
                first_wire = transport.wire_log[1]
        assert first.promise_responses[0].accepted
        shop.close()  # the "kill": server gone, WAL released

        revived = build_shop(wal)
        assert revived.recovery_report is not None
        assert revived.recovery_report.healthy
        server2 = build_server(revived)
        with ThreadedServer(server2) as address:
            with NetworkTransport(address) as transport:
                replay = transport.send(
                    promise_message("alice:m1", "alice:r1")
                )
                replay_wire = transport.wire_log[1]
        assert replay_wire == first_wire
        assert replay == first
        # Served once: one promise, one unit escrowed, and the answer
        # came from the manager's journal row — a cache miss in the new
        # process, not a duplicate the server recognised.
        assert server2.metrics.value("manager.journal.replays") == 1
        assert server2.metrics.value("server.duplicates_served") == 0
        assert len(revived.manager.active_promises()) == 1
        with revived.store.begin() as txn:
            pool = revived.resources.pool(txn, "widgets")
            assert (pool.available, pool.allocated) == (STOCK - 5, 5)
        # ... and the server logged nothing of its own, in either life.
        assert NET_REPLY_JOURNAL_TABLE not in revived.store.tables()
        revived.close()

    def test_restarted_server_keeps_granting(self, tmp_path):
        wal = tmp_path / "shop.wal"
        shop = build_shop(wal)
        server = build_server(shop)
        with ThreadedServer(server) as address:
            with NetworkTransport(address) as transport:
                first = transport.send(promise_message("alice:m1", "alice:r1"))
        shop.close()

        revived = build_shop(wal)
        server2 = build_server(revived)
        with ThreadedServer(server2) as address:
            with NetworkTransport(address) as transport:
                second = transport.send(
                    promise_message("alice:m2", "alice:r2")
                )
        fresh = second.promise_responses[0]
        assert fresh.accepted
        assert fresh.promise_id != first.promise_responses[0].promise_id
        assert len(revived.manager.active_promises()) == 2
        revived.close()

    def test_journal_survives_two_restarts(self, tmp_path):
        wal = tmp_path / "shop.wal"
        shop = build_shop(wal)
        server = build_server(shop)
        with ThreadedServer(server) as address:
            with NetworkTransport(address) as transport:
                first = transport.send(promise_message("alice:m1", "alice:r1"))
        shop.close()

        for __ in range(2):
            revived = build_shop(wal)
            server = build_server(revived)
            with ThreadedServer(server) as address:
                with NetworkTransport(address) as transport:
                    replay = transport.send(
                        promise_message("alice:m1", "alice:r1")
                    )
            assert replay == first
            assert len(revived.manager.active_promises()) == 1
            revived.close()
