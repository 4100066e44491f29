"""Tests for the consistency doctor."""

from __future__ import annotations

import pytest

from repro.core.parser import P
from repro.core.predicates import quantity_at_least
from repro.core.table import PROMISE_INDEX_TABLE
from repro.resources.records import INSTANCE_INDEX_TABLE, INSTANCES_TABLE, InstanceStatus
from repro.tools import Doctor, Severity


@pytest.fixture
def healthy(pool_manager):
    """The pool_manager fixture with a live promise and a consumed one."""
    first = pool_manager.request_promise_for([quantity_at_least("widgets", 10)], 50)
    second = pool_manager.request_promise_for([quantity_at_least("widgets", 5)], 50)
    pool_manager.release(second.promise_id, consume=True)
    return pool_manager, first.promise_id


class TestHealthyState:
    def test_no_findings(self, healthy):
        manager, __ = healthy
        assert Doctor(manager).check() == []

    def test_rooms_world_healthy(self, tentative_rooms_manager):
        manager = tentative_rooms_manager
        manager.request_promise_for([P("match('rooms', view == true, count=1)")], 50)
        assert Doctor(manager).check() == []

    def test_repair_on_healthy_state_is_noop(self, healthy):
        manager, __ = healthy
        assert Doctor(manager).repair() == []


class TestTagIntegrity:
    def test_stale_tag_detected_and_repaired(self, tagged_rooms_manager):
        manager = tagged_rooms_manager
        response = manager.request_promise_for([P("available('room-512')")], 50)
        # Corrupt: mark the promise released without untagging the room
        # (simulates a partial manual intervention).
        from repro.core.promise import PromiseStatus

        with manager.store.begin() as txn:
            manager.table.mark(txn, response.promise_id, PromiseStatus.RELEASED)

        doctor = Doctor(manager)
        findings = doctor.check()
        assert any(
            f.check == "tag-integrity" and f.subject == "room-512"
            for f in findings
        )

        repaired = doctor.repair()
        assert any(f.severity is Severity.REPAIRED for f in repaired)
        with manager.store.begin() as txn:
            record = manager.resources.instance(txn, "room-512")
        assert record.status is InstanceStatus.AVAILABLE
        assert not any(f.check == "tag-integrity" for f in doctor.check())


class TestEscrowBalance:
    def test_tampered_allocated_counter_detected(self, healthy):
        manager, __ = healthy
        with manager.store.begin() as txn:
            payload = txn.get("pools", "widgets")
            txn.put("pools", "widgets", {**payload, "allocated": 3})  # truth is 10
        findings = Doctor(manager).check()
        escrow = [f for f in findings if f.check == "escrow-balance"]
        assert escrow and "allocated=3" in escrow[0].detail


class TestIndexIntegrity:
    def test_corrupted_promise_index_detected_and_rebuilt(self, healthy):
        manager, promise_id = healthy
        with manager.store.begin() as txn:
            before = dict(txn.scan(PROMISE_INDEX_TABLE))
            for key, row in before.items():
                # Resource rows are id lists; the expiry watermark is a
                # mapping, here pushed past every live promise's expiry.
                corrupt = ["ghost-promise"] if isinstance(row, list) else {"at": 10**9}
                txn.put(PROMISE_INDEX_TABLE, key, corrupt)
            # A row no live promise maps to — what a log from before the
            # per-resource index holds.
            txn.put(PROMISE_INDEX_TABLE, "active", [promise_id])
        assert len(before) == 2  # the widgets row and the watermark

        doctor = Doctor(manager)
        findings = [f for f in doctor.check() if f.check == "promise-index"]
        assert {f.subject for f in findings} == set(before) | {"active"}
        assert any(
            "ghost-promise" in f.detail and promise_id in f.detail
            for f in findings
        )

        repaired = doctor.repair()
        assert {f.subject for f in repaired} == set(before) | {"active"}
        assert not any(f.check == "promise-index" for f in doctor.check())
        with manager.store.begin() as txn:
            assert dict(txn.scan(PROMISE_INDEX_TABLE)) == before
        assert [p.promise_id for p in manager.active_promises()] == [promise_id]

    def test_corrupted_instance_index_detected_and_rebuilt(
        self, tentative_rooms_manager
    ):
        manager = tentative_rooms_manager
        with manager.store.begin() as txn:
            txn.put(INSTANCE_INDEX_TABLE, "rooms", ["room-101"])  # truth: 5
        doctor = Doctor(manager)
        assert any(f.check == "instance-index" for f in doctor.check())
        doctor.repair()
        assert not any(f.check == "instance-index" for f in doctor.check())
        with manager.store.begin() as txn:
            assert len(manager.resources.instances_in(txn, "rooms")) == 5


class TestSatisfiability:
    def test_oversold_state_detected(self, manager):
        with manager.store.begin() as txn:
            manager.resources.create_pool(txn, "gadgets", 50)
        manager.request_promise_for([quantity_at_least("gadgets", 40)], 50)
        # Corrupt the pool behind the manager's back.
        with manager.store.begin() as txn:
            payload = txn.get("pools", "gadgets")
            txn.put("pools", "gadgets", {**payload, "available": 10})
        findings = Doctor(manager).check()
        assert any(f.check == "satisfiability" for f in findings)


class TestPromiseRecords:
    def test_malformed_row_detected(self, pool_manager):
        with pool_manager.store.begin() as txn:
            txn.put("promise_table", "broken", {"not": "a promise"})
        findings = Doctor(pool_manager).check()
        assert any(
            f.check == "promise-record" and f.subject == "broken"
            for f in findings
        )
