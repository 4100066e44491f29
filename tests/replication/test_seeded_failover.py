"""Seeded failover storms: random kills under load, audit-clean always.

Each run derives a deterministic schedule from its seed — a stream of
grants and releases across every product, interleaved with
seed-chosen primary kills, promotions, and rejoins — and must end with
every client-visible grant accounted for, redundancy restored, and the
offline history checker finding nothing.  These are the failover seeds
the ISSUE-10 acceptance bar names (7/11/23), plus seed 7 again on the
pipelined hot path (keyed dispatch workers on every primary, promoted
ones included, sharing barriers); they are multi-seed and socket-heavy,
hence ``slow`` — the fast lane skips them.
"""

from __future__ import annotations

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
from repro.replication import ReplicatedFleet
from repro.sim import RandomStream

pytestmark = [pytest.mark.failover, pytest.mark.slow]

SERIAL: dict = {}
PIPELINED = {"workers": 4}
STORMS = ((7, SERIAL), (11, SERIAL), (23, SERIAL), (7, PIPELINED))
PRODUCTS = 4
STOCK = 10
ROUNDS = 6
REQUESTS_PER_ROUND = 8
CLIENT_ERRORS = (TransportFailure, RequestTimeout, ProtocolError)


@pytest.mark.parametrize(
    "seed, hot_path", STORMS, ids=["7", "11", "23", "7-pipelined"]
)
def test_seeded_failover_storm_stays_audit_clean(seed, hot_path, tmp_path):
    rng = RandomStream(seed, "failover-storm")
    history = HistoryRecorder()
    fleet = ReplicatedFleet(
        2,
        replicas=1,
        provision=provision_products(PRODUCTS, STOCK),
        wal_dir=str(tmp_path),
        history=history,
        **hot_path,
    )
    products = [f"product-{n}" for n in range(PRODUCTS)]
    kills = 0
    with fleet:
        gateway = fleet.gateway(
            timeout=2.0,
            retry=RetryPolicy(
                max_attempts=4, base_delay=0.05, max_delay=0.2
            ),
        )
        client = PromiseClient(
            f"storm-{seed}", gateway, retry=RetryPolicy.none()
        )
        held: list[str] = []  # promise ids granted and not yet released
        try:
            for round_number in range(ROUNDS):
                for _ in range(REQUESTS_PER_ROUND):
                    if held and rng.uniform_int(0, 2) == 0:
                        client.release("shop", held.pop())
                        continue
                    product = rng.choice(products)
                    try:
                        response = client.request_promise(
                            "shop",
                            [P(f"quantity('{product}') >= 1")],
                            60,
                        )
                    except CLIENT_ERRORS:
                        # Lost to a concurrent kill; redelivery already
                        # retried.  The audit below still must balance.
                        continue
                    if response.accepted:
                        held.append(response.promise_id)
                # Between rounds the nemesis coin decides who dies and
                # how the group comes back: full restart or
                # promote-then-rejoin.
                victim = rng.uniform_int(0, 1)
                style = rng.uniform_int(0, 2)
                if style == 0:
                    fleet.kill(victim)
                    fleet.restart(victim)
                    kills += 1
                elif style == 1:
                    fleet.kill(victim)
                    fleet.failover(victim)
                    fleet.rejoin(victim)
                    kills += 1
            for promise_id in held:
                client.release("shop", promise_id)
        finally:
            gateway.close()
        # The storm must have actually stormed, and ended balanced:
        # nothing still allocated, every shard audit-clean.
        assert kills > 0, f"seed {seed} never killed a primary"
        assert all(
            count == 0 for count in fleet.live_promises().values()
        )
        assert all(not findings for findings in fleet.audit().values())
    history.detach_all()
    assert history.check() == []
