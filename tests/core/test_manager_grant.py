"""Promise-manager grant/reject/release semantics."""

from __future__ import annotations

import pytest

from repro.core.errors import (
    PromiseExpired,
    PromiseStateError,
    UnknownPromise,
)
from repro.core.parser import P
from repro.core.promise import PromiseStatus
from repro.core.predicates import quantity_at_least


class TestGranting:
    def test_grant_within_capacity(self, pool_manager):
        response = pool_manager.request_promise_for(
            [quantity_at_least("widgets", 10)], duration=10
        )
        assert response.accepted
        assert response.promise_id is not None
        assert response.duration == 10

    def test_escrow_moves_units(self, pool_manager):
        pool_manager.request_promise_for([quantity_at_least("widgets", 10)], 10)
        with pool_manager.store.begin() as txn:
            pool = pool_manager.resources.pool(txn, "widgets")
        assert (pool.available, pool.allocated) == (90, 10)

    def test_reject_beyond_capacity(self, pool_manager):
        response = pool_manager.request_promise_for(
            [quantity_at_least("widgets", 101)], duration=10
        )
        assert not response.accepted
        assert "widgets" in response.reason

    def test_rejection_leaves_no_trace(self, pool_manager):
        pool_manager.request_promise_for([quantity_at_least("widgets", 101)], 10)
        with pool_manager.store.begin() as txn:
            pool = pool_manager.resources.pool(txn, "widgets")
            assert (pool.available, pool.allocated) == (100, 0)
            assert pool_manager.table.count_active(txn) == 0

    def test_concurrent_promises_up_to_capacity(self, pool_manager):
        granted = 0
        for __ in range(12):
            response = pool_manager.request_promise_for(
                [quantity_at_least("widgets", 10)], duration=10
            )
            granted += 1 if response.accepted else 0
        assert granted == 10  # 10 × 10 units fills the 100-unit pool

    def test_correlation_echoes_request_id(self, pool_manager):
        from repro.core.promise import PromiseRequest

        request = PromiseRequest(
            "my-req", (quantity_at_least("widgets", 1),), duration=5
        )
        response = pool_manager.request_promise(request)
        assert response.correlation == "my-req"

    def test_max_duration_caps_grant(self, pool_manager):
        pool_manager.max_duration = 5
        response = pool_manager.request_promise_for(
            [quantity_at_least("widgets", 1)], duration=50
        )
        assert response.accepted
        assert response.duration == 5

    def test_promise_recorded_in_table(self, pool_manager):
        response = pool_manager.request_promise_for(
            [quantity_at_least("widgets", 3)], duration=10, client_id="alice"
        )
        promise = pool_manager.promise(response.promise_id)
        assert promise.client_id == "alice"
        assert promise.status is PromiseStatus.ACTIVE
        assert promise.expires_at == 10


class TestRelease:
    def test_release_returns_units(self, pool_manager):
        response = pool_manager.request_promise_for(
            [quantity_at_least("widgets", 10)], duration=10
        )
        pool_manager.release(response.promise_id)
        with pool_manager.store.begin() as txn:
            pool = pool_manager.resources.pool(txn, "widgets")
        assert (pool.available, pool.allocated) == (100, 0)
        assert not pool_manager.is_promise_active(response.promise_id)

    def test_release_with_consume_drains_units(self, pool_manager):
        response = pool_manager.request_promise_for(
            [quantity_at_least("widgets", 10)], duration=10
        )
        pool_manager.release(response.promise_id, consume=True)
        with pool_manager.store.begin() as txn:
            pool = pool_manager.resources.pool(txn, "widgets")
        assert (pool.available, pool.allocated) == (90, 0)

    def test_release_unknown_raises(self, pool_manager):
        with pytest.raises(UnknownPromise):
            pool_manager.release("ghost")

    def test_double_release_raises(self, pool_manager):
        response = pool_manager.request_promise_for(
            [quantity_at_least("widgets", 1)], duration=10
        )
        pool_manager.release(response.promise_id)
        with pytest.raises(PromiseStateError):
            pool_manager.release(response.promise_id)

    def test_release_expired_raises(self, pool_manager):
        response = pool_manager.request_promise_for(
            [quantity_at_least("widgets", 1)], duration=5
        )
        pool_manager.clock.advance(6)
        with pytest.raises(PromiseExpired):
            pool_manager.release(response.promise_id)


class TestSatisfiabilityDefault:
    def test_grant_without_mutating_resources(self, manager):
        with manager.store.begin() as txn:
            manager.resources.create_pool(txn, "gadgets", 50)
        response = manager.request_promise_for(
            [quantity_at_least("gadgets", 30)], duration=10
        )
        assert response.accepted
        with manager.store.begin() as txn:
            pool = manager.resources.pool(txn, "gadgets")
        # Satisfiability strategy records nothing in the RM.
        assert (pool.available, pool.allocated) == (50, 0)

    def test_joint_demand_respected(self, manager):
        with manager.store.begin() as txn:
            manager.resources.create_pool(txn, "gadgets", 50)
        first = manager.request_promise_for([quantity_at_least("gadgets", 30)], 10)
        second = manager.request_promise_for([quantity_at_least("gadgets", 30)], 10)
        assert first.accepted
        assert not second.accepted  # 60 > 50: §9 disjointness

    def test_release_frees_demand(self, manager):
        with manager.store.begin() as txn:
            manager.resources.create_pool(txn, "gadgets", 50)
        first = manager.request_promise_for([quantity_at_least("gadgets", 30)], 10)
        manager.release(first.promise_id)
        second = manager.request_promise_for([quantity_at_least("gadgets", 30)], 10)
        assert second.accepted


class TestPropertyPromises:
    def test_overlapping_predicates_coexist(self, rooms_manager):
        view = rooms_manager.request_promise_for(
            [P("match('rooms', view == true, count=1)")], 10
        )
        floor5 = rooms_manager.request_promise_for(
            [P("match('rooms', floor == 5, count=1)")], 10
        )
        assert view.accepted and floor5.accepted

    def test_exhaustion_rejected(self, rooms_manager):
        # Two rooms have view=True (102, 512).
        first = rooms_manager.request_promise_for(
            [P("match('rooms', view == true, count=2)")], 10
        )
        second = rooms_manager.request_promise_for(
            [P("match('rooms', view == true, count=1)")], 10
        )
        assert first.accepted
        assert not second.accepted

    def test_or_better_grade(self, rooms_manager):
        # All suite+deluxe rooms: 201, 512 (deluxe), 513 (suite).
        response = rooms_manager.request_promise_for(
            [P("match('rooms', grade == 'deluxe'~, count=3)")], 10
        )
        assert response.accepted

    def test_or_predicate_hedges(self, rooms_manager):
        response = rooms_manager.request_promise_for(
            [P("available('room-999') or available('room-101')")], 10
        )
        assert response.accepted

    def test_multi_client_isolation(self, rooms_manager):
        # Five rooms total; a sixth single-room promise must fail.
        granted = 0
        for __ in range(6):
            response = rooms_manager.request_promise_for(
                [P("match('rooms', count=1)")], 10
            )
            granted += 1 if response.accepted else 0
        assert granted == 5


class TestAtomicMultiPredicate:
    """§4 first requirement: several predicates grant as a unit."""

    def test_all_granted_together(self, pool_manager):
        with pool_manager.store.begin() as txn:
            pool_manager.resources.create_pool(txn, "cars", 5)
        pool_manager.registry.assign(
            "cars", pool_manager.registry.strategy_for("widgets")
        )
        response = pool_manager.request_promise_for(
            [quantity_at_least("widgets", 10), quantity_at_least("cars", 1)],
            duration=10,
        )
        assert response.accepted

    def test_one_failing_leg_rejects_all(self, pool_manager):
        with pool_manager.store.begin() as txn:
            pool_manager.resources.create_pool(txn, "cars", 0)
        pool_manager.registry.assign(
            "cars", pool_manager.registry.strategy_for("widgets")
        )
        response = pool_manager.request_promise_for(
            [quantity_at_least("widgets", 10), quantity_at_least("cars", 1)],
            duration=10,
        )
        assert not response.accepted
        # The widgets escrow from the first leg must have been undone.
        with pool_manager.store.begin() as txn:
            pool = pool_manager.resources.pool(txn, "widgets")
        assert (pool.available, pool.allocated) == (100, 0)

    def test_predicates_spanning_strategies(self, pool_manager):
        # widgets uses the pool strategy; gadgets falls to the default
        # satisfiability strategy — one request may span both.
        with pool_manager.store.begin() as txn:
            pool_manager.resources.create_pool(txn, "gadgets", 5)
        scans = []
        scan = pool_manager._tagged
        pool_manager._tagged = lambda txn: scans.append(txn) or scan(txn)
        response = pool_manager.request_promise_for(
            [quantity_at_least("widgets", 10), quantity_at_least("gadgets", 2)],
            duration=10,
        )
        assert response.accepted
        # Two strategies, one scan of the instance table between them.
        assert len(scans) == 1
        promise = pool_manager.promise(response.promise_id)
        assert set(promise.meta["strategies"]) == {
            "resource_pool",
            "satisfiability",
        }
