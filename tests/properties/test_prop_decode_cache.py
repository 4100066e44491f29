"""The promise table's decoded values always match the stored rows.

:class:`~repro.core.table.PromiseTable` decodes a promise once per row
object and hands the same value out while the store still holds that
row.  Random scripts of grants, exchanges, releases, consumptions,
sales under a promise, expiries, vacuums, grants refused after the
strategies already wrote, and savepoint rollbacks run against one
manager; after every step, for every row, the table's answer must equal
a fresh decoding of the row, and every id without a row must read as
``None``.  The dangerous steps are the ones that write a promise row and
then undo it — a refused exchange, a consumption the check refuses, a
savepoint rollback: the store puts the old row object back, and a value
remembered by promise id alone would still say what the undone write said.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.clock import LogicalClock
from repro.core.environment import Environment
from repro.core.errors import PromiseError
from repro.core.manager import PromiseManager
from repro.core.parser import P
from repro.core.promise import Promise, PromiseStatus
from repro.core.table import PROMISES_TABLE
from repro.resources.manager import ResourceManager
from repro.storage.store import Store
from repro.strategies.registry import StrategyRegistry
from repro.strategies.resource_pool import ResourcePoolStrategy

ESCROW_POOLS = ("p0", "p1")
CHECKED_POOLS = ("left", "right")  # satisfiability, the default strategy
#: An id no promise ever has.
NEVER = "pm:prm-999999"


def build() -> PromiseManager:
    store = Store()
    resources = ResourceManager(store)
    registry = StrategyRegistry()
    registry.assign_many(ESCROW_POOLS, ResourcePoolStrategy())
    manager = PromiseManager(
        store=store,
        resources=resources,
        clock=LogicalClock(),
        registry=registry,
        name="pm",
    )
    with store.begin() as txn:
        for pool in ESCROW_POOLS + CHECKED_POOLS:
            resources.create_pool(txn, pool, 8)
    return manager


def pick(issued: list[str], index: int) -> str | None:
    return issued[index % len(issued)] if issued else None


def apply(manager: PromiseManager, step: tuple, issued: list[str]) -> None:
    kind = step[0]
    if kind == "grant":
        __, predicates, duration, exchange = step
        old = pick(issued, exchange) if exchange is not None else None
        response = manager.request_promise_for(
            predicates, duration, releases=[old] if old else []
        )
        if response.accepted:
            issued.append(response.promise_id)
    elif kind == "release":
        __, index, consume = step
        if issued:
            manager.release(pick(issued, index), consume=consume)
    elif kind == "sell":
        __, pool, amount, under = step
        environment = Environment.empty()
        target = pick(issued, under) if under is not None else None
        if target:
            environment = Environment.of(target, release=[target])
        manager.execute(lambda ctx: ctx.sell(pool, amount), environment)
    elif kind == "tick":
        manager.clock.advance(step[1])
        manager.expire_due()
    elif kind == "vacuum":
        manager.vacuum()
    else:
        assert kind == "savepoint"
        __, index, insert = step
        table = manager.table
        with manager.store.begin() as txn:
            mark = txn.savepoint()
            target = pick(issued, index)
            if insert:
                predicates = (P("quantity('p0') >= 1"),)
                table.insert(txn, Promise(NEVER, "script", predicates, 0, 5))
            elif target and txn.exists(PROMISES_TABLE, target):
                status = table.get(txn, target).status
                table.mark(
                    txn,
                    target,
                    PromiseStatus.RELEASED
                    if status is PromiseStatus.ACTIVE
                    else PromiseStatus.ACTIVE,
                )
            assert_decoded(manager, txn, issued)
            txn.rollback_to(mark)
            assert_decoded(manager, txn, issued)


def assert_decoded(manager: PromiseManager, txn, issued: list[str]) -> None:
    table = manager.table
    rows = dict(txn.scan(PROMISES_TABLE))
    for promise_id, row in rows.items():
        assert table.get_or_none(txn, promise_id) == Promise.from_dict(row)
    assert table.all_promises(txn) == [Promise.from_dict(row) for row in rows.values()]
    for promise_id in {*issued, NEVER} - rows.keys():
        assert table.get_or_none(txn, promise_id) is None


amounts = st.integers(min_value=1, max_value=6)
indexes = st.integers(min_value=0, max_value=30)
predicate_sets = st.one_of(
    st.builds(lambda p, n: [P(f"quantity('{p}') >= {n}")],
              st.sampled_from(ESCROW_POOLS + CHECKED_POOLS), amounts),
    st.builds(
        lambda n, m: [P(f"quantity('left') >= {n}") | P(f"quantity('right') >= {m}")],
        amounts, amounts,
    ),
    # Two strategies: escrow grants (and writes) first, then the checked
    # pool may refuse — the whole grant, exchange included, is undone.
    st.builds(lambda n, m: [P(f"quantity('p0') >= {n}"), P(f"quantity('left') >= {m}")],
              amounts, st.integers(min_value=1, max_value=12)),
)
steps = st.one_of(
    st.tuples(st.just("grant"), predicate_sets, st.integers(2, 12),
              st.one_of(st.none(), indexes)),
    st.tuples(st.just("grant"), predicate_sets, st.integers(2, 12), indexes),
    st.tuples(st.just("release"), indexes, st.booleans()),
    st.tuples(st.just("sell"), st.sampled_from(ESCROW_POOLS + CHECKED_POOLS),
              amounts, st.one_of(st.none(), indexes)),
    st.tuples(st.just("tick"), st.integers(1, 4)),
    st.tuples(st.just("vacuum")),
    st.tuples(st.just("savepoint"), indexes, st.booleans()),
)


@given(st.lists(steps, min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_a_decoded_promise_always_matches_its_row(script):
    manager = build()
    issued: list[str] = []
    for step in script:
        try:
            apply(manager, step, issued)
        except PromiseError:
            pass
        with manager.store.begin() as txn:
            assert_decoded(manager, txn, issued)
    manager.store.close()
