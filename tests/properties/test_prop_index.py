"""Equivalence of the narrowed isolation check with the global one.

The promise manager loads, per request, only the live promises reachable
from the request's resources (grant, release) or from the resources the
transaction wrote (the post-action check), through the per-resource
promise index.  Here the same random script runs against that manager and
against a reference whose lookup is widened to *every* live promise —
what the manager did before the index existed — and every response,
outcome, raised error and lifecycle event must be equal, step by step.

The world spans all five techniques of §5: escrow pools, allocated tags,
tentative allocation, satisfiability checking (pools tied together by an
``Or`` across two of them, a collection with named and property demands)
and delegation to an upstream manager.  After every step the indexed
manager's own audit (``check_all`` and the doctor, index drift included)
must be clean, and at the end the WAL is reopened and recovered: the index
and the watermark a recovery ends with are the ones the run left behind.

One technique needs care.  Tentative allocation re-arranges its tags
whenever it is consulted, and the reference consults it on every action
while the narrowed manager does so only when the rooms are touched, so
*which* room backs a promise may differ between the two.  The script only
asks for rooms by a property that splits them into two disjoint classes,
which makes that choice invisible to every later decision.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from repro.core.clock import LogicalClock
from repro.core.environment import Environment
from repro.core.errors import ActionFailed, PromiseError
from repro.core.manager import PromiseManager
from repro.core.parser import P
from repro.core.table import PROMISE_INDEX_TABLE
from repro.recovery import recover
from repro.resources.manager import ResourceManager
from repro.resources.records import INSTANCES_TABLE, POOLS_TABLE
from repro.resources.schema import CollectionSchema, PropertyDef, PropertyType
from repro.storage.store import Store
from repro.strategies.allocated_tags import AllocatedTagsStrategy
from repro.strategies.delegation import DelegationStrategy
from repro.strategies.registry import StrategyRegistry
from repro.strategies.resource_pool import ResourcePoolStrategy
from repro.strategies.tentative import TentativeAllocationStrategy
from repro.tools import Doctor

ESCROW_POOLS = ("p0", "p1")
CHECKED_POOLS = ("left", "right")  # satisfiability; the Or spans both
COLOURS = ("red", "blue")


class World:
    """One promise manager over the five-technique resource set."""

    def __init__(self, wal_path: Path | None = None, widened: bool = False) -> None:
        upstream_registry = StrategyRegistry()
        upstream_registry.assign("remote", ResourcePoolStrategy())
        self.upstream = PromiseManager(registry=upstream_registry, name="upstream")
        with self.upstream.store.begin() as txn:
            self.upstream.resources.create_pool(txn, "remote", 12)

        self.store = Store(wal_path=wal_path)
        resources = ResourceManager(self.store)
        registry = StrategyRegistry()
        registry.assign_many(ESCROW_POOLS, ResourcePoolStrategy())
        registry.assign("seats", AllocatedTagsStrategy())
        registry.assign("rooms", TentativeAllocationStrategy())
        registry.assign("remote", DelegationStrategy(self.upstream, "pm"))
        self.manager = PromiseManager(
            store=self.store,
            resources=resources,
            clock=LogicalClock(),
            registry=registry,
            name="pm",
        )
        if not self.store.recovered:
            self._seed(resources)
        if widened:
            table = self.manager.table
            narrow = table.reachable
            table.reachable = (  # type: ignore[method-assign]
                lambda txn, resources, now=None: narrow(
                    txn, table.indexed_resources(txn), now
                )
            )
        self.events: list = []
        self.manager.events.subscribe(self.events.append)

    def _seed(self, resources: ResourceManager) -> None:
        with self.store.begin() as txn:
            for pool in ESCROW_POOLS + CHECKED_POOLS:
                resources.create_pool(txn, pool, 8)
            for collection, prop, kind in (
                ("seats", "row", PropertyType.INT),
                ("rooms", "view", PropertyType.BOOL),
                ("cars", "colour", PropertyType.STRING),
            ):
                resources.define_collection(
                    txn, CollectionSchema(collection, (PropertyDef(prop, kind),))
                )
            for n in range(4):
                resources.add_instance(txn, f"seat-{n}", "seats", {"row": n // 2})
                resources.add_instance(txn, f"room-{n}", "rooms", {"view": n % 2 == 0})
                resources.add_instance(
                    txn, f"car-{n}", "cars", {"colour": COLOURS[n % 2]}
                )

    # ------------------------------------------------------------ stepping

    def apply(self, step: tuple, live: list[str]) -> object:
        """Run one step; the return value is what the two worlds compare."""
        try:
            return self._apply(step, live)
        except PromiseError as error:
            return ("raised", type(error).__name__, str(error))

    def _apply(self, step: tuple, live: list[str]) -> object:
        manager = self.manager
        kind = step[0]
        if kind == "grant":
            __, predicates, duration, exchange = step
            releases = [pick(live, exchange)] if exchange is not None and live else []
            return manager.request_promise_for(
                predicates, duration, client_id="script", releases=releases
            )
        if kind == "release":
            __, index, consume = step
            return live and manager.release(pick(live, index), consume=consume)
        if kind == "sell":
            __, pool, amount, under = step
            environment = Environment.empty()
            if under is not None and live:
                target = pick(live, under)
                environment = Environment.of(target, release=[target])
            return manager.execute(lambda ctx: ctx.sell(pool, amount), environment)
        if kind == "take":
            return manager.execute(lambda ctx: ctx.take_instance(step[1]))
        if kind == "fail":
            __, pool, amount = step

            def sell_then_fail(ctx):
                ctx.sell(pool, amount)
                raise ActionFailed("script", "changed its mind")

            return manager.execute(sell_then_fail)
        if kind == "tick":
            manager.clock.advance(step[1])
            return manager.expire_due()
        assert kind == "default"
        # The third party defaults: the upstream promise behind a delegated
        # one goes away with no local write at all.
        backing = live and manager.promise(pick(live, step[1])).meta.get("delegation")
        if backing:
            self.upstream.release(backing["upstream_promise"])
        return bool(backing)

    # ------------------------------------------------------------- reading

    def resource_state(self) -> object:
        """Pool rows exactly; instances exactly, except that rooms count
        only by (view, taken) — see the module docstring."""
        with self.store.begin() as txn:
            instances = dict(txn.scan(INSTANCES_TABLE))
            rooms = sorted(
                (row["properties"]["view"], row["status"] == "taken")
                for row in instances.values()
                if row["collection_id"] == "rooms"
            )
            others = {
                key: row
                for key, row in instances.items()
                if row["collection_id"] != "rooms"
            }
            return dict(txn.scan(POOLS_TABLE)), others, rooms

    def index(self) -> dict:
        with self.store.begin() as txn:
            return dict(txn.scan(PROMISE_INDEX_TABLE))

    def live_ids(self) -> list[str]:
        return [promise.promise_id for promise in self.manager.active_promises()]


def pick(live: list[str], index: int) -> str:
    return live[index % len(live)]


amounts = st.integers(min_value=1, max_value=6)
indexes = st.integers(min_value=0, max_value=30)
hedged = st.builds(
    lambda n, m: [P(f"quantity('left') >= {n}") | P(f"quantity('right') >= {m}")],
    amounts, amounts,
)
checked = st.builds(lambda p, n: [P(f"quantity('{p}') >= {n}")],
                    st.sampled_from(CHECKED_POOLS), amounts)
predicate_sets = st.one_of(
    hedged, hedged, checked, checked,  # weighted: where the closure matters
    st.builds(lambda p, n: [P(f"quantity('{p}') >= {n}")],
              st.sampled_from(ESCROW_POOLS + ("remote",)), amounts),
    st.builds(lambda n: [P(f"available('seat-{n}')")], st.integers(0, 3)),
    st.builds(lambda row: [P(f"match('seats', row == {row}, count=1)")], st.integers(0, 1)),
    st.builds(lambda view, n: [P(f"match('rooms', view == {view}, count={n})")],
              st.sampled_from(["true", "false"]), st.integers(1, 2)),
    st.builds(lambda n: [P(f"available('car-{n}')")], st.integers(0, 3)),
    st.builds(lambda colour, n: [P(f"match('cars', colour == '{colour}', count={n})")],
              st.sampled_from(COLOURS), st.integers(1, 2)),
    # One request across three techniques: escrow + satisfiability + upstream.
    st.builds(lambda n, colour: [P(f"quantity('p0') >= {n}"),
                                 P(f"match('cars', colour == '{colour}', count=1)"),
                                 P("quantity('remote') >= 1")],
              amounts, st.sampled_from(COLOURS)),
)
grants = st.tuples(st.just("grant"), predicate_sets, st.integers(2, 12),
                   st.one_of(st.none(), st.none(), indexes))
steps = st.one_of(
    grants,
    grants,  # weighted: the checks only bite when promises are standing
    grants,
    st.tuples(st.just("release"), indexes, st.booleans()),
    st.tuples(st.just("sell"), st.sampled_from(("p0",) + CHECKED_POOLS), amounts,
              st.one_of(st.none(), indexes)),
    st.tuples(st.just("take"),
              st.builds(lambda kind, n: f"{kind}-{n}",
                        st.sampled_from(["car", "seat"]), st.integers(0, 3))),
    st.tuples(st.just("fail"), st.sampled_from(CHECKED_POOLS), amounts),
    st.tuples(st.just("tick"), st.integers(1, 3)),
    st.tuples(st.just("default"), indexes),
)


def _quantity(pool: str, amount: int) -> tuple:
    return ("grant", [P(f"quantity('{pool}') >= {amount}")], 10, None)


#: The hedge has fallen back on ``left``; a later request for ``left``
#: would only fit if the hedge could move to ``right`` — which a promise
#: that shares no resource with the request has already used up.
TRANSITIVE = [
    _quantity("right", 6),
    ("grant", [P("quantity('left') >= 5") | P("quantity('right') >= 5")], 10, None),
    _quantity("left", 5),
    ("sell", "left", 4, None),
]


@given(st.lists(steps, min_size=1, max_size=30))
@example(TRANSITIVE)
@settings(max_examples=150, deadline=None)
def test_narrowed_check_equals_the_global_one(script):
    with tempfile.TemporaryDirectory() as directory:
        wal_path = Path(directory) / "pm.wal"
        indexed = World(wal_path=wal_path)
        reference = World(widened=True)
        doctor = Doctor(indexed.manager)
        live: list[str] = []
        upstream_defaulted = False

        for step in script:
            got, expected = indexed.apply(step, live), reference.apply(step, live)
            assert got == expected, step
            assert indexed.events == reference.events, step
            if step[0] == "grant" and getattr(got, "accepted", False):
                live.append(got.promise_id)
            if step[0] == "default" and got is True:
                upstream_defaulted = True

            audit = indexed.manager.check_all()
            assert audit == reference.manager.check_all(), step
            findings = doctor.check()
            if upstream_defaulted:
                # Only the audit may complain, and only about the default.
                assert all(f.check == "satisfiability" for f in findings), step
            else:
                assert audit == [] and findings == [], step
            assert indexed.live_ids() == reference.live_ids(), step
            assert indexed.resource_state() == reference.resource_state(), step

        before = indexed.index()
        live_before = indexed.live_ids()
        indexed.store.close()
        revived = World(wal_path=wal_path)
        revived.upstream = indexed.upstream
        revived.manager.registry.assign(
            "remote", DelegationStrategy(indexed.upstream, "pm")
        )
        report = recover(revived.manager)
        assert report.repaired == ()
        # (An empty index means no request ran; the recovery sweep then
        # establishes the watermark.)
        assert revived.index() == before or not before
        assert revived.live_ids() == live_before
        revived.store.close()
