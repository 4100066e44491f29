"""The offline history checker, checked.

The chaos and failover suites trust ``HistoryRecorder.check()`` to be
empty; these tests prove that trust is earned — a clean synthetic
history passes, and each anomaly class the checker claims to catch
(double grant, escrow drift, negative availability, re-executed dedup
key, double settle) is actually flagged when planted.  The WAL-backed
tests then pin the crash semantics: re-attach prunes the lost tail,
and a deposed log's appends stop polluting the stream.
"""

from __future__ import annotations

import pytest

from repro.faults.history import HistoryRecorder, audit_history
from repro.storage.wal import LogRecord, LogRecordType, WriteAheadLog

pytestmark = pytest.mark.pipeline


class Script:
    """Build a synthetic committed history and feed it to a recorder."""

    def __init__(self):
        self.recorder = HistoryRecorder()
        self._observer = self.recorder.observer(0)
        self._lsn = 0
        self._txn = 0

    def _emit(self, record_type, txn=None, table=None, key=None, value=None):
        self._lsn += 1
        self._observer(
            LogRecord(
                lsn=self._lsn,
                record_type=record_type,
                txn_id=txn,
                table=table,
                key=key,
                value=value,
            )
        )

    def txn(self, *changes: tuple[str, str, dict | None]):
        """One committed transaction of (table, key, value) puts, value
        None = delete: one COMMIT line carrying them."""
        self._txn += 1
        ops = [
            [table, key] if value is None else [table, key, value]
            for table, key, value in changes
        ]
        self._emit(LogRecordType.COMMIT, txn=self._txn, value=ops)

    def legacy_txn(
        self, *changes: tuple[str, str, dict | None], commit: bool = True
    ):
        """The same, logged record by record as older builds did: BEGIN,
        a PUT or DELETE per change, then COMMIT or ABORT."""
        self._txn += 1
        txn = self._txn
        self._emit(LogRecordType.BEGIN, txn=txn)
        for table, key, value in changes:
            kind = (
                LogRecordType.DELETE if value is None else LogRecordType.PUT
            )
            self._emit(kind, txn=txn, table=table, key=key, value=value)
        self._emit(
            LogRecordType.COMMIT if commit else LogRecordType.ABORT, txn=txn
        )


def promise(status: str, escrow: dict[str, int]) -> dict:
    return {"status": status, "meta": {"resource_pool": {"escrow": escrow}}}


def pool(available: int, allocated: int) -> dict:
    return {"available": available, "allocated": allocated}


# ----------------------------------------------------------- clean histories


def test_clean_grant_and_release_pass():
    script = Script()
    script.txn(
        ("pools", "widgets", pool(8, 2)),
        ("promise_table", "p1", promise("active", {"widgets": 2})),
    )
    script.txn(
        ("pools", "widgets", pool(10, 0)),
        ("promise_table", "p1", promise("released", {})),
    )
    assert script.recorder.check() == []
    events = script.recorder.events()
    assert [event.kind for event in events] == ["grant", "settle"]
    assert events[0].resources == {"widgets": 2}
    assert events[1].status == "released"
    assert audit_history(script.recorder) == []


def test_uncommitted_and_aborted_transactions_leave_no_trace():
    # Only an older build's log can hold either: this one logs nothing
    # until a transaction commits.
    script = Script()
    script.legacy_txn(
        ("pools", "widgets", pool(-5, 15)),  # would be an over-grant...
        commit=False,  # ...but it aborted
    )
    # And an open transaction with no verdict at all.
    script._emit(LogRecordType.BEGIN, txn=99)
    script._emit(
        LogRecordType.PUT,
        txn=99,
        table="promise_table",
        key="phantom",
        value=promise("active", {"widgets": 99}),
    )
    assert script.recorder.check() == []
    assert script.recorder.events() == []


def test_legacy_groups_and_commit_lines_fold_as_one_history():
    script = Script()
    script.legacy_txn(
        ("pools", "widgets", pool(8, 2)),
        ("promise_table", "p1", promise("active", {"widgets": 2})),
    )
    script.txn(
        ("pools", "widgets", pool(10, 0)),
        ("promise_table", "p1", promise("released", {})),
    )
    script.legacy_txn(("promise_table", "p1", promise("active", {})))
    anomalies = script.recorder.check()
    assert [event.kind for event in script.recorder.events()] == [
        "grant", "settle", "grant",
    ]
    assert len(anomalies) == 1 and "re-granted" in anomalies[0]


def test_same_reply_for_the_same_dedup_key_is_fine():
    script = Script()
    script.txn(("reply_journal", "m1", {"payload": {"accepted": True}}))
    script.txn(("reply_journal", "m1", {"payload": {"accepted": True}}))
    script.txn(("reply_journal", "m1", None))  # journal trim: forget
    script.txn(("reply_journal", "m1", {"payload": {"accepted": False}}))
    assert script.recorder.check() == []


# --------------------------------------------------------- planted anomalies


def test_regrant_after_release_is_flagged():
    script = Script()
    script.txn(("promise_table", "p1", promise("active", {"widgets": 1})))
    script.txn(("promise_table", "p1", promise("released", {})))
    script.txn(("promise_table", "p1", promise("active", {"widgets": 1})))
    anomalies = script.recorder.check()
    assert len(anomalies) == 1
    assert "re-granted" in anomalies[0]


def test_escrow_drift_is_flagged():
    # The pool says two allocated; the only active promise holds one.
    script = Script()
    script.txn(
        ("pools", "widgets", pool(8, 2)),
        ("promise_table", "p1", promise("active", {"widgets": 1})),
    )
    anomalies = script.recorder.check()
    assert any("allocation 2 != 1" in anomaly for anomaly in anomalies)


def test_negative_availability_is_flagged():
    script = Script()
    script.txn(("pools", "widgets", pool(-3, 13)))
    anomalies = script.recorder.check()
    assert any("negative" in anomaly for anomaly in anomalies)


def test_rewritten_dedup_key_is_flagged():
    script = Script()
    script.txn(("reply_journal", "m1", {"payload": {"promise": "p1"}}))
    script.txn(("reply_journal", "m1", {"payload": {"promise": "p2"}}))
    anomalies = script.recorder.check()
    assert len(anomalies) == 1
    assert "re-executed" in anomalies[0]


def test_double_settle_and_unknown_settle_are_flagged():
    script = Script()
    script.txn(("promise_table", "ghost", promise("released", {})))
    script.txn(("promise_table", "p1", promise("active", {"widgets": 1})))
    script.txn(("promise_table", "p1", promise("released", {})))
    script.txn(("promise_table", "p1", promise("consumed", {})))
    anomalies = script.recorder.check()
    assert any("unknown promise" in anomaly for anomaly in anomalies)
    assert any("settled twice" in anomaly for anomaly in anomalies)


def test_non_pool_promises_do_not_drift_the_escrow_check():
    # A promise without the pool strategy's meta (predicate fallback)
    # must label its event but not feed the allocation cross-check.
    script = Script()
    script.txn(
        ("pools", "widgets", pool(8, 2)),
        ("promise_table", "p1", promise("active", {"widgets": 2})),
        (
            "promise_table",
            "p2",
            {
                "status": "active",
                "predicates": [
                    {"kind": "quantity", "pool": "widgets", "amount": 5}
                ],
            },
        ),
    )
    assert script.recorder.check() == []
    by_id = {event.promise_id: event for event in script.recorder.events()}
    assert by_id["p2"].resources == {"widgets": 5}


# --------------------------------------------------------- crash semantics


def wal_grant(wal: WriteAheadLog, txn: int, promise_id: str):
    wal.append(
        LogRecordType.COMMIT,
        txn_id=txn,
        value=[["promise_table", promise_id, promise("active", {"widgets": 1})]],
    )


def test_reattach_prunes_the_lost_tail():
    recorder = HistoryRecorder()
    wal = WriteAheadLog()
    recorder.attach(0, wal)
    wal_grant(wal, 1, "p1")  # LSN 1: survives the crash
    wal_grant(wal, 2, "p2")  # LSN 2: the un-fsynced, un-acked tail
    assert recorder.events_recorded == 2

    # The recovered log holds only transaction 1 — the crash ate the
    # tail before any client was acked.
    recovered = WriteAheadLog()
    wal_grant(recovered, 1, "p1")
    recorder.attach(0, recovered)
    assert recorder.events_recorded == 1
    assert [event.promise_id for event in recorder.events()] == ["p1"]

    # The restarted server reuses LSN 2 to grant p2 afresh.  Without
    # the prune this would read as a double grant; with it, clean.
    wal_grant(recovered, 2, "p2")
    assert recorder.check() == []
    assert [event.promise_id for event in recorder.events()] == ["p1", "p2"]
    recorder.detach_all()


def test_reattach_mutes_the_deposed_log():
    recorder = HistoryRecorder()
    old_primary = WriteAheadLog()
    recorder.attach(0, old_primary)
    wal_grant(old_primary, 1, "p1")

    promoted = WriteAheadLog()
    wal_grant(promoted, 1, "p1")  # caught up to the shipped history
    recorder.attach(0, promoted)
    recorded_before = recorder.events_recorded

    # The deposed primary keeps writing into its fenced log; none of it
    # may reach the shard's history.
    wal_grant(old_primary, 2, "zombie")
    assert recorder.events_recorded == recorded_before
    assert recorder.check() == []
    recorder.detach_all()


def test_detach_all_stops_recording_but_keeps_history():
    recorder = HistoryRecorder()
    wal = WriteAheadLog()
    recorder.attach(0, wal)
    wal_grant(wal, 1, "p1")
    recorder.detach_all()
    wal_grant(wal, 2, "p2")
    assert [event.promise_id for event in recorder.events()] == ["p1"]


def test_checkpoints_carry_no_new_transitions():
    recorder = HistoryRecorder()
    wal = WriteAheadLog()
    recorder.attach(0, wal)
    wal_grant(wal, 1, "p1")
    before = recorder.events_recorded
    wal.checkpoint({"promise_table": {"p1": promise("active", {"widgets": 1})}})
    assert recorder.events_recorded == before
    assert recorder.check() == []
    recorder.detach_all()
