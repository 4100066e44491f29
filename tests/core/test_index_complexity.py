"""What a request reads and writes does not grow with unrelated promises.

Counts, not timings: the per-resource promise index makes the isolation
check read the promises that share the request's resources, and the
earliest-expiry watermark makes the per-request expiry sweep one read.
Both are asserted as exact row and byte counts, with 16 and with 512
promises standing on *other* pools.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.core.environment import Environment
from repro.core.events import EventKind
from repro.core.predicates import quantity_at_least
from repro.core.table import PROMISE_INDEX_TABLE, PROMISES_TABLE
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService
from repro.storage.wal import committed

OTHER_POOLS = tuple(f"other-{n}" for n in range(8))


@contextmanager
def counting_reads(store):
    """Rows read per table while the block runs (a scan reads every row
    it visits)."""
    reads: Counter[str] = Counter()
    get, scan = store._get_or_none, store._scan

    def counted_get(txn, table, key):
        reads[table] += 1
        return get(txn, table, key)

    def counted_scan(txn, table, predicate):
        reads[table] += store.row_count(table)
        return scan(txn, table, predicate)

    store._get_or_none, store._scan = counted_get, counted_scan
    try:
        yield reads
    finally:
        del store._get_or_none, store._scan


def wal_payload_bytes(records) -> int:
    """Size of what the records say, net of the LSN and transaction-id
    counters (whose digits grow with everything that ever ran)."""
    return sum(
        len(json.dumps([r.record_type.value, r.table, r.key, r.value]))
        for r in records
    )


def shop_with_standing(standing: int) -> Deployment:
    """A merchant with ``standing`` promises spread over eight pools the
    measured requests never mention."""
    shop = Deployment(name="shop")
    shop.add_service(MerchantService())
    shop.use_pool_strategy("widgets", *OTHER_POOLS)
    with shop.seed() as txn:
        for pool in ("widgets",) + OTHER_POOLS:
            shop.resources.create_pool(txn, pool, 10_000)
    for n in range(standing):
        response = shop.manager.request_promise_for(
            [quantity_at_least(OTHER_POOLS[n % len(OTHER_POOLS)], 1)], 1_000
        )
        assert response.accepted
    # Same id widths in both worlds, whatever was issued for the standing set.
    shop.manager.observe_issued_id("shop:prm-5000")
    shop.manager.observe_issued_id("shop:req-5000")
    return shop


def measure_pair(standing: int) -> dict[str, tuple[int, int]]:
    """(promise rows read, WAL payload bytes) of one grant and of one
    ``merchant.sell`` under that promise with release-on-success."""
    shop = shop_with_standing(standing)
    client = shop.client("buyer")
    wal = shop.store.wal
    costs = {}

    def measured(name, request):
        before = len(wal)
        with counting_reads(shop.store) as reads:
            result = request()
        costs[name] = (
            reads[PROMISES_TABLE],
            wal_payload_bytes(list(wal)[before:]),
        )
        return result

    # One unmeasured pair first: the very first promise on a pool creates
    # its index row, later ones rewrite it.
    first = client.request_promise("shop", [quantity_at_least("widgets", 2)], 50)
    client.release("shop", first.promise_id)

    granted = measured(
        "grant",
        lambda: client.request_promise(
            "shop", [quantity_at_least("widgets", 2)], 50
        ),
    )
    assert granted.accepted
    outcome = measured(
        "sell",
        lambda: client.call(
            "shop",
            "merchant",
            "sell",
            {"product": "widgets", "quantity": 2},
            environment=Environment.of(
                granted.promise_id, release=(granted.promise_id,)
            ),
        ),
    )
    assert outcome.success and granted.promise_id in outcome.released
    assert len(shop.manager.active_promises()) == standing
    shop.close()
    return costs


def test_request_cost_is_independent_of_promises_on_other_pools():
    few, many = measure_pair(16), measure_pair(512)
    assert few == many
    grant_reads, __ = few["grant"]
    sell_reads, __ = few["sell"]
    # Nothing else stands on ``widgets``: the grant's check loads no promise
    # at all, the sale loads its own promise (environment, release, mark).
    assert grant_reads == 0
    assert 0 < sell_reads <= 5


def test_vacuum_only_deletes_rows():
    shop = shop_with_standing(16)
    for __ in range(4):
        response = shop.manager.request_promise_for(
            [quantity_at_least("widgets", 1)], 50
        )
        shop.manager.release(response.promise_id)
    before = len(shop.store.wal)
    assert shop.manager.vacuum() == 4
    ops = [op for __, ops in committed(list(shop.store.wal)[before:]) for op in ops]
    # A delete is ``[table, key]``: no after-image.
    assert [(op[0], len(op)) for op in ops] == [(PROMISES_TABLE, 2)] * 4
    shop.close()


@pytest.fixture
def shop_with_mixed_expiries():
    shop = shop_with_standing(0)
    manager = shop.manager
    due = [
        manager.request_promise_for([quantity_at_least("widgets", 1)], 5).promise_id
        for __ in range(3)
    ]
    for pool in OTHER_POOLS[:5]:
        assert manager.request_promise_for([quantity_at_least(pool, 1)], 100).accepted
    yield shop, due
    shop.close()


def test_clock_step_past_the_watermark_expires_the_due_promises_once(
    shop_with_mixed_expiries,
):
    shop, due = shop_with_mixed_expiries
    manager = shop.manager
    expired_events = []
    manager.events.subscribe(
        lambda event: event.kind is EventKind.EXPIRED
        and expired_events.append(event.promise_id)
    )

    # Short of the watermark (tick 5) the sweep is the one watermark read.
    manager.clock.advance(4)
    with counting_reads(shop.store) as reads:
        assert manager.expire_due() == []
    assert (reads[PROMISE_INDEX_TABLE], reads[PROMISES_TABLE]) == (1, 0)

    # Past it: one pass over the live set expires exactly the due ones...
    manager.clock.advance(6)
    assert sorted(manager.expire_due()) == sorted(due)
    assert sorted(expired_events) == sorted(due)
    with shop.store.begin() as txn:
        pool = shop.resources.pool(txn, "widgets")
    assert (pool.available, pool.allocated) == (10_000, 0)

    # ... and raises the watermark to the next expiry, so the following
    # sweep is one read again and expires nothing twice.
    with counting_reads(shop.store) as reads:
        assert manager.expire_due() == []
    assert (reads[PROMISE_INDEX_TABLE], reads[PROMISES_TABLE]) == (1, 0)
    assert sorted(expired_events) == sorted(due)
    assert len(manager.active_promises()) == 5
