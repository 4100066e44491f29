"""Unit tests for the write-ahead log.

A transaction is one COMMIT line carrying its write set; the
record-by-record shape older builds wrote (BEGIN, PUT/DELETE, COMMIT or
ABORT) is still read, and the replay tests that spell it say so.
"""

from __future__ import annotations

import pytest

from repro.storage.errors import RecoveryError
from repro.storage.wal import LogRecord, LogRecordType, WriteAheadLog, committed


def commit(wal, txn_id, *ops):
    """Log one transaction the way the store does: one COMMIT line."""
    return wal.append(LogRecordType.COMMIT, txn_id=txn_id, value=[*map(list, ops)])


class TestAppend:
    def test_lsns_are_sequential(self):
        wal = WriteAheadLog()
        first = commit(wal, 1, ("t", "a", 1))
        second = commit(wal, 2, ("t", "b", 2))
        assert (first.lsn, second.lsn) == (1, 2)
        assert wal.last_lsn == 2

    def test_len_and_iteration(self):
        wal = WriteAheadLog()
        wal.append(LogRecordType.CREATE_TABLE, table="t")
        commit(wal, 1, ("t", "k", 5))
        assert len(wal) == 2
        assert [record.record_type for record in wal] == [
            LogRecordType.CREATE_TABLE,
            LogRecordType.COMMIT,
        ]

    def test_a_commit_carries_its_txn_and_ops(self):
        wal = WriteAheadLog()
        record = commit(wal, 7, ("t", "k", {"n": 1}), ("t", "gone"))
        assert (record.txn_id, record.table, record.key) == (7, None, None)
        assert record.value == [["t", "k", {"n": 1}], ["t", "gone"]]
        assert wal.max_txn_id() == 7


class TestSerialisation:
    def test_json_roundtrip(self):
        record = LogRecord(
            lsn=7,
            record_type=LogRecordType.COMMIT,
            txn_id=3,
            value=[["t", "k", {"a": [1, 2]}], ["t", "old"]],
        )
        assert LogRecord.from_json(record.to_json()) == record

    def test_malformed_json_raises(self):
        with pytest.raises(RecoveryError):
            LogRecord.from_json("not json at all")

    def test_missing_field_raises(self):
        with pytest.raises(RecoveryError):
            LogRecord.from_json('{"lsn": 1}')


class TestReplay:
    def test_committed_changes_survive(self):
        wal = WriteAheadLog()
        commit(wal, 1, ("t", "k", "v"))
        assert wal.replay() == {"t": {"k": "v"}}

    def test_uncommitted_changes_dropped(self):
        # Legacy shape: a group with no COMMIT.
        wal = WriteAheadLog()
        wal.append(LogRecordType.BEGIN, txn_id=1)
        wal.append(LogRecordType.PUT, txn_id=1, table="t", key="k", value="v")
        assert wal.replay() == {}

    def test_aborted_changes_dropped(self):
        # Legacy shape: the group ends in ABORT.
        wal = WriteAheadLog()
        wal.append(LogRecordType.BEGIN, txn_id=1)
        wal.append(LogRecordType.PUT, txn_id=1, table="t", key="k", value="v")
        wal.append(LogRecordType.ABORT, txn_id=1)
        assert wal.replay() == {}

    def test_delete_applies(self):
        wal = WriteAheadLog()
        commit(wal, 1, ("t", "k", "v"))
        commit(wal, 2, ("t", "k"))
        assert wal.replay() == {"t": {}}

    def test_last_writer_wins(self):
        wal = WriteAheadLog()
        commit(wal, 1, ("t", "k", "first"))
        commit(wal, 2, ("t", "k", "second"))
        assert wal.replay() == {"t": {"k": "second"}}

    def test_ops_apply_in_order_across_tables(self):
        wal = WriteAheadLog()
        commit(wal, 1, ("t", "a", 1), ("u", "b", 2))
        commit(wal, 2, ("t", "a"), ("u", "b", 3), ("t", "c", None))
        assert wal.replay() == {"t": {"c": None}, "u": {"b": 3}}

    def test_interleaved_transactions(self):
        # Legacy shape: two open groups, one commits, one aborts.
        wal = WriteAheadLog()
        wal.append(LogRecordType.BEGIN, txn_id=1)
        wal.append(LogRecordType.BEGIN, txn_id=2)
        wal.append(LogRecordType.PUT, txn_id=1, table="t", key="a", value=1)
        wal.append(LogRecordType.PUT, txn_id=2, table="t", key="b", value=2)
        wal.append(LogRecordType.COMMIT, txn_id=2)
        wal.append(LogRecordType.ABORT, txn_id=1)
        assert wal.replay() == {"t": {"b": 2}}

    def test_legacy_groups_and_commit_lines_mix(self):
        # An older build's open group, then this build's lines after it.
        wal = WriteAheadLog()
        wal.append(LogRecordType.BEGIN, txn_id=1)
        wal.append(LogRecordType.PUT, txn_id=1, table="t", key="a", value=1)
        wal.append(LogRecordType.DELETE, txn_id=1, table="t", key="b")
        wal.append(LogRecordType.COMMIT, txn_id=1)
        wal.append(LogRecordType.BEGIN, txn_id=2)  # never committed
        wal.append(LogRecordType.PUT, txn_id=2, table="t", key="x", value=0)
        commit(wal, 3, ("t", "c", 3))
        assert wal.replay() == {"t": {"a": 1, "c": 3}}
        assert [
            (record.txn_id, ops) for record, ops in committed(wal)
        ] == [(1, [["t", "a", 1], ["t", "b"]]), (3, [["t", "c", 3]])]

    def test_change_without_begin_raises(self):
        wal = WriteAheadLog()
        wal.append(LogRecordType.PUT, txn_id=9, table="t", key="k", value=1)
        with pytest.raises(RecoveryError):
            wal.replay()

    def test_commit_without_begin_raises(self):
        # A COMMIT with no write set closes a legacy group, or nothing.
        wal = WriteAheadLog()
        wal.append(LogRecordType.COMMIT, txn_id=9)
        with pytest.raises(RecoveryError):
            wal.replay()


class TestCheckpoint:
    def test_checkpoint_truncates(self):
        wal = WriteAheadLog()
        commit(wal, 1, ("t", "k", 1))
        wal.checkpoint({"t": {"k": 1}})
        assert len(wal) == 1
        assert wal.replay() == {"t": {"k": 1}}

    def test_replay_continues_after_checkpoint(self):
        wal = WriteAheadLog()
        wal.checkpoint({"t": {"old": 1}})
        commit(wal, 5, ("t", "new", 2))
        assert wal.replay() == {"t": {"old": 1, "new": 2}}


class TestPersistence:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append(LogRecordType.CREATE_TABLE, table="t")
        commit(wal, 1, ("t", "k", "v"), ("t", "w", [1, 2]))

        reloaded = WriteAheadLog(path)
        assert len(reloaded) == 2
        assert reloaded.replay() == {"t": {"k": "v", "w": [1, 2]}}
        assert reloaded.last_lsn == 2
        assert list(reloaded) == list(wal)

    def test_reload_continues_lsn_sequence(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        with wal.request_scope():
            commit(wal, 1, ("t", "k", 1))  # no barrier inside a request
        wal.close()  # ... so it reaches the file here
        reloaded = WriteAheadLog(path)
        record = commit(reloaded, 2, ("t", "k", 2))
        assert record.lsn == 2
