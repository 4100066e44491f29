"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.clock import LogicalClock
from repro.core.manager import PromiseManager
from repro.resources.manager import ResourceManager
from repro.resources.schema import CollectionSchema, PropertyDef, PropertyType
from repro.storage.store import Store
from repro.strategies.allocated_tags import AllocatedTagsStrategy
from repro.strategies.registry import StrategyRegistry
from repro.strategies.resource_pool import ResourcePoolStrategy
from repro.strategies.tentative import TentativeAllocationStrategy

from .processes import Server


@pytest.fixture
def store() -> Store:
    """A fresh in-memory store."""
    return Store()


@pytest.fixture
def resources(store: Store) -> ResourceManager:
    """A resource manager over the fresh store."""
    return ResourceManager(store)


@pytest.fixture
def clock() -> LogicalClock:
    """A logical clock starting at tick 0."""
    return LogicalClock()


@pytest.fixture
def manager(store: Store, resources: ResourceManager, clock: LogicalClock) -> PromiseManager:
    """A promise manager with the default (satisfiability) strategy."""
    return PromiseManager(
        store=store, resources=resources, clock=clock, name="test"
    )


@pytest.fixture
def pool_manager(store: Store, resources: ResourceManager, clock: LogicalClock) -> PromiseManager:
    """A promise manager routing ``widgets`` to the escrow strategy, with
    a 100-unit widget pool seeded."""
    registry = StrategyRegistry()
    registry.assign("widgets", ResourcePoolStrategy())
    manager = PromiseManager(
        store=store,
        resources=resources,
        clock=clock,
        registry=registry,
        name="test",
    )
    with store.begin() as txn:
        resources.create_pool(txn, "widgets", 100)
    return manager


ROOMS_SCHEMA = CollectionSchema(
    "rooms",
    (
        PropertyDef("floor", PropertyType.INT),
        PropertyDef("view", PropertyType.BOOL),
        PropertyDef(
            "grade",
            PropertyType.ORDERED,
            ordering=("standard", "deluxe", "suite"),
        ),
    ),
)

ROOMS = {
    "room-101": {"floor": 1, "view": False, "grade": "standard"},
    "room-102": {"floor": 1, "view": True, "grade": "standard"},
    "room-201": {"floor": 2, "view": False, "grade": "deluxe"},
    "room-512": {"floor": 5, "view": True, "grade": "deluxe"},
    "room-513": {"floor": 5, "view": False, "grade": "suite"},
}


def seed_rooms(store: Store, resources: ResourceManager) -> None:
    """Create the standard five-room fixture collection."""
    with store.begin() as txn:
        resources.define_collection(txn, ROOMS_SCHEMA)
        for instance_id, properties in ROOMS.items():
            resources.add_instance(txn, instance_id, "rooms", dict(properties))


@pytest.fixture
def rooms_manager(store: Store, resources: ResourceManager, clock: LogicalClock) -> PromiseManager:
    """A promise manager over the five-room fixture (satisfiability)."""
    seed_rooms(store, resources)
    return PromiseManager(
        store=store, resources=resources, clock=clock, name="test"
    )


@pytest.fixture
def tentative_rooms_manager(
    store: Store, resources: ResourceManager, clock: LogicalClock
) -> PromiseManager:
    """The five-room fixture routed to tentative allocation."""
    seed_rooms(store, resources)
    registry = StrategyRegistry()
    registry.assign("rooms", TentativeAllocationStrategy())
    return PromiseManager(
        store=store,
        resources=resources,
        clock=clock,
        registry=registry,
        name="test",
    )


@pytest.fixture
def tagged_rooms_manager(
    store: Store, resources: ResourceManager, clock: LogicalClock
) -> PromiseManager:
    """The five-room fixture routed to allocated tags (first-fit)."""
    seed_rooms(store, resources)
    registry = StrategyRegistry()
    registry.assign("rooms", AllocatedTagsStrategy())
    return PromiseManager(
        store=store,
        resources=resources,
        clock=clock,
        registry=registry,
        name="test",
    )


@pytest.fixture
def launch():
    """Start real ``serve``/``serve-cluster`` processes; each one still
    running when the test ends is killed."""
    started: list[Server] = []

    def start(*argv: str) -> Server:
        server = Server(*argv)
        started.append(server)
        return server

    yield start
    for server in started:
        server.kill()
