"""Restart-path tests: state, clock, ids and replies across process lives.

Each test grants promises against a WAL-backed store, closes it (the
orderly stand-in for a crash; the crash matrix covers the disorderly
ones), reopens the log in a fresh manager, and asserts the §4/§8
guarantees held: grants survive, the clock never rewinds, id pools never
collide with history, and journaled replies make redelivery at-most-once
across the restart.
"""

from __future__ import annotations

import pytest

from repro.core.clock import LogicalClock
from repro.core.events import EventKind
from repro.core.manager import PromiseManager
from repro.core.parser import P
from repro.core.promise import PromiseRequest
from repro.recovery import RecoveryReport, recover
from repro.resources.manager import ResourceManager
from repro.storage.store import Store
from repro.strategies.registry import StrategyRegistry
from repro.strategies.resource_pool import ResourcePoolStrategy


def build_manager(
    wal_path, clock: LogicalClock | None = None
) -> PromiseManager:
    store = Store(wal_path=wal_path)
    resources = ResourceManager(store)
    registry = StrategyRegistry()
    registry.assign("widgets", ResourcePoolStrategy())
    manager = PromiseManager(
        store=store,
        resources=resources,
        clock=clock or LogicalClock(),
        registry=registry,
        name="shop",
    )
    if not store.recovered:
        with store.begin() as txn:
            resources.create_pool(txn, "widgets", 100)
    return manager


def grant(manager: PromiseManager, request_id: str, amount: int = 5,
          duration: int = 50):
    request = PromiseRequest(
        request_id=request_id,
        predicates=(P(f"quantity('widgets') >= {amount}"),),
        duration=duration,
        client_id="alice",
    )
    return manager.request_promise(request, dedup_key=request_id)


class TestStateSurvival:
    def test_grants_survive_restart(self, tmp_path):
        wal = tmp_path / "shop.wal"
        manager = build_manager(wal)
        response = grant(manager, "req-1")
        assert response.accepted
        manager.store.close()

        revived = build_manager(wal)
        report = recover(revived)
        assert isinstance(report, RecoveryReport)
        assert report.healthy, report.findings
        assert report.promises_active == 1
        assert revived.is_promise_active(response.promise_id)

    def test_escrow_survives_restart(self, tmp_path):
        wal = tmp_path / "shop.wal"
        manager = build_manager(wal)
        grant(manager, "req-1", amount=30)
        manager.store.close()

        revived = build_manager(wal)
        recover(revived)
        # 30 units escrowed: a request for the remaining 70 is grantable,
        # one for 71 is not.
        assert grant(revived, "req-ok", amount=70).accepted
        assert not grant(revived, "req-over", amount=71).accepted

    def test_report_summary_mentions_wal(self, tmp_path):
        wal = tmp_path / "shop.wal"
        manager = build_manager(wal)
        grant(manager, "req-1")
        manager.store.close()

        revived = build_manager(wal)
        report = recover(revived)
        assert report.wal_path == str(wal)
        assert "live" in report.summary()


class TestClockAndIds:
    def test_clock_restored_to_persisted_tick(self, tmp_path):
        wal = tmp_path / "shop.wal"
        manager = build_manager(wal)
        manager.clock.advance_to(7)
        grant(manager, "req-1")  # persists clock=7 with the grant
        manager.store.close()

        revived = build_manager(wal)
        recover(revived)
        assert revived.clock.now >= 7

    def test_new_ids_never_collide_with_recovered_ones(self, tmp_path):
        wal = tmp_path / "shop.wal"
        manager = build_manager(wal)
        old_ids = {grant(manager, f"req-{i}").promise_id for i in range(5)}
        manager.store.close()

        revived = build_manager(wal)
        recover(revived)
        fresh = grant(revived, "req-new")
        assert fresh.accepted
        assert fresh.promise_id not in old_ids


class TestReplyJournal:
    def test_redelivered_request_replays_original_grant(self, tmp_path):
        wal = tmp_path / "shop.wal"
        manager = build_manager(wal)
        original = grant(manager, "req-1")
        manager.store.close()

        revived = build_manager(wal)
        recover(revived)
        replay = grant(revived, "req-1")
        assert replay.promise_id == original.promise_id
        assert replay.to_dict() == original.to_dict()
        # Exactly one promise exists: the redelivery granted nothing new.
        assert len(revived.active_promises()) == 1

    def test_redelivered_rejection_replays_without_reevaluation(
        self, tmp_path
    ):
        wal = tmp_path / "shop.wal"
        manager = build_manager(wal)
        rejected = grant(manager, "req-big", amount=1000)
        assert not rejected.accepted
        manager.store.close()

        revived = build_manager(wal)
        recover(revived)
        replay = grant(revived, "req-big", amount=1000)
        assert replay.to_dict() == rejected.to_dict()

    def test_journal_counted_in_report(self, tmp_path):
        wal = tmp_path / "shop.wal"
        manager = build_manager(wal)
        grant(manager, "req-1")
        grant(manager, "req-2")
        manager.store.close()

        revived = build_manager(wal)
        report = recover(revived)
        assert report.journal_entries == 2
        # Counted from the reply rows: the journal keeps no count row.
        with revived.store.begin() as txn:
            assert sorted(key for key, __ in txn.scan("reply_journal")) == [
                "req-1", "req-2",
            ]


class TestExpiryAcrossRestart:
    def test_expired_while_down_swept_on_recovery(self, tmp_path):
        wal = tmp_path / "shop.wal"
        manager = build_manager(wal)
        response = grant(manager, "req-1", duration=5)
        manager.store.close()

        # Time moved on while the process was down: the revived clock
        # starts past the promise's expiry.
        revived = build_manager(wal, clock=LogicalClock(20))
        expired_events = []
        revived.events.subscribe(
            lambda event: expired_events.append(event)
            if event.kind is EventKind.EXPIRED
            else None
        )
        report = recover(revived)
        assert response.promise_id in report.expired_on_recovery
        assert report.healthy, report.findings
        assert not revived.is_promise_active(response.promise_id)
        assert [e.promise_id for e in expired_events] == [response.promise_id]

    def test_expired_event_fires_exactly_once(self, tmp_path):
        wal = tmp_path / "shop.wal"
        manager = build_manager(wal)
        grant(manager, "req-1", duration=5)
        manager.store.close()

        revived = build_manager(wal, clock=LogicalClock(20))
        expired_events = []
        revived.events.subscribe(
            lambda event: expired_events.append(event)
            if event.kind is EventKind.EXPIRED
            else None
        )
        recover(revived)
        # Neither a second sweep nor a second recovery re-fires it.
        revived.expire_due()
        recover(revived)
        assert len(expired_events) == 1

    def test_expiry_returns_escrow_after_restart(self, tmp_path):
        wal = tmp_path / "shop.wal"
        manager = build_manager(wal)
        grant(manager, "req-1", amount=90, duration=5)
        manager.store.close()

        revived = build_manager(wal, clock=LogicalClock(20))
        recover(revived)
        # The escrowed 90 came back with the expiry: grantable again.
        assert grant(revived, "req-2", amount=90).accepted

    def test_unexpired_promise_not_swept(self, tmp_path):
        wal = tmp_path / "shop.wal"
        manager = build_manager(wal)
        response = grant(manager, "req-1", duration=50)
        manager.store.close()

        revived = build_manager(wal, clock=LogicalClock(20))
        report = recover(revived)
        assert report.expired_on_recovery == ()
        assert revived.is_promise_active(response.promise_id)


class TestLegacyIndexMigration:
    """A log written before the per-resource promise index holds one
    ``active`` id list and no watermark; both are derived state, so
    recovery builds them from the promise rows before it sweeps."""

    def downgrade(self, manager: PromiseManager) -> dict:
        """Rewrite the index the way the old code left it; returns the
        per-resource rows it replaced."""
        from repro.core.table import PROMISE_INDEX_TABLE

        with manager.store.begin() as txn:
            rows = dict(txn.scan(PROMISE_INDEX_TABLE))
            for key in rows:
                txn.delete(PROMISE_INDEX_TABLE, key)
            live = sorted(p.promise_id for p in manager.table.all_promises(txn))
            txn.put(PROMISE_INDEX_TABLE, "active", live)
        return rows

    @pytest.mark.parametrize("repair", [True, False])
    def test_recover_migrates_and_sweeps_a_legacy_log(self, tmp_path, repair):
        from repro.core.table import PROMISE_INDEX_TABLE

        wal = tmp_path / "shop.wal"
        manager = build_manager(wal)
        short = grant(manager, "req-1", amount=60, duration=5)
        long = grant(manager, "req-2", amount=30, duration=50)
        rows = self.downgrade(manager)
        manager.store.close()

        revived = build_manager(wal, clock=LogicalClock(20))
        report = recover(revived, repair=repair)
        # (The watermark needs no repair: absent reads as "unknown, scan".)
        resource_rows = {key for key, row in rows.items() if isinstance(row, list)}
        assert {f.subject for f in report.repaired} == resource_rows | {"active"}
        assert report.healthy, report.findings
        # The sweep found the promise that ran out while the log was legacy.
        assert report.expired_on_recovery == (short.promise_id,)
        with revived.store.begin() as txn:
            index = dict(txn.scan(PROMISE_INDEX_TABLE))
        assert "active" not in index
        assert [long.promise_id] in index.values()
        # And the narrowed check sees the survivor: 30 of 100 are escrowed.
        assert not grant(revived, "req-3", amount=71).accepted
        assert grant(revived, "req-4", amount=70).accepted
