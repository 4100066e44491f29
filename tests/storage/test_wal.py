"""Unit tests for the write-ahead log."""

from __future__ import annotations

import pytest

from repro.storage.errors import RecoveryError
from repro.storage.wal import LogRecord, LogRecordType, WriteAheadLog


class TestAppend:
    def test_lsns_are_sequential(self):
        wal = WriteAheadLog()
        first = wal.append(LogRecordType.BEGIN, txn_id=1)
        second = wal.append(LogRecordType.COMMIT, txn_id=1)
        assert (first.lsn, second.lsn) == (1, 2)
        assert wal.last_lsn == 2

    def test_len_and_iteration(self):
        wal = WriteAheadLog()
        wal.append(LogRecordType.BEGIN, txn_id=1)
        wal.append(LogRecordType.PUT, txn_id=1, table="t", key="k", value=5)
        assert len(wal) == 2
        assert [record.record_type for record in wal] == [
            LogRecordType.BEGIN,
            LogRecordType.PUT,
        ]

    def test_records_for_txn(self):
        wal = WriteAheadLog()
        wal.append(LogRecordType.BEGIN, txn_id=1)
        wal.append(LogRecordType.BEGIN, txn_id=2)
        wal.append(LogRecordType.PUT, txn_id=1, table="t", key="k", value=1)
        assert len(wal.records_for(1)) == 2
        assert len(wal.records_for(2)) == 1


class TestSerialisation:
    def test_json_roundtrip(self):
        record = LogRecord(
            lsn=7,
            record_type=LogRecordType.PUT,
            txn_id=3,
            table="t",
            key="k",
            value={"a": [1, 2]},
        )
        assert LogRecord.from_json(record.to_json()) == record

    def test_malformed_json_raises(self):
        with pytest.raises(RecoveryError):
            LogRecord.from_json("not json at all")

    def test_missing_field_raises(self):
        with pytest.raises(RecoveryError):
            LogRecord.from_json('{"lsn": 1}')


class TestReplay:
    def _committed_put(self, wal, txn_id, key, value):
        wal.append(LogRecordType.BEGIN, txn_id=txn_id)
        wal.append(LogRecordType.PUT, txn_id=txn_id, table="t", key=key, value=value)
        wal.append(LogRecordType.COMMIT, txn_id=txn_id)

    def test_committed_changes_survive(self):
        wal = WriteAheadLog()
        self._committed_put(wal, 1, "k", "v")
        assert wal.replay() == {"t": {"k": "v"}}

    def test_uncommitted_changes_dropped(self):
        wal = WriteAheadLog()
        wal.append(LogRecordType.BEGIN, txn_id=1)
        wal.append(LogRecordType.PUT, txn_id=1, table="t", key="k", value="v")
        assert wal.replay() == {}

    def test_aborted_changes_dropped(self):
        wal = WriteAheadLog()
        wal.append(LogRecordType.BEGIN, txn_id=1)
        wal.append(LogRecordType.PUT, txn_id=1, table="t", key="k", value="v")
        wal.append(LogRecordType.ABORT, txn_id=1)
        assert wal.replay() == {}

    def test_delete_applies(self):
        wal = WriteAheadLog()
        self._committed_put(wal, 1, "k", "v")
        wal.append(LogRecordType.BEGIN, txn_id=2)
        wal.append(LogRecordType.DELETE, txn_id=2, table="t", key="k")
        wal.append(LogRecordType.COMMIT, txn_id=2)
        assert wal.replay() == {"t": {}}

    def test_last_writer_wins(self):
        wal = WriteAheadLog()
        self._committed_put(wal, 1, "k", "first")
        self._committed_put(wal, 2, "k", "second")
        assert wal.replay() == {"t": {"k": "second"}}

    def test_interleaved_transactions(self):
        wal = WriteAheadLog()
        wal.append(LogRecordType.BEGIN, txn_id=1)
        wal.append(LogRecordType.BEGIN, txn_id=2)
        wal.append(LogRecordType.PUT, txn_id=1, table="t", key="a", value=1)
        wal.append(LogRecordType.PUT, txn_id=2, table="t", key="b", value=2)
        wal.append(LogRecordType.COMMIT, txn_id=2)
        wal.append(LogRecordType.ABORT, txn_id=1)
        assert wal.replay() == {"t": {"b": 2}}

    def test_change_without_begin_raises(self):
        wal = WriteAheadLog()
        wal.append(LogRecordType.PUT, txn_id=9, table="t", key="k", value=1)
        with pytest.raises(RecoveryError):
            wal.replay()

    def test_commit_without_begin_raises(self):
        wal = WriteAheadLog()
        wal.append(LogRecordType.COMMIT, txn_id=9)
        with pytest.raises(RecoveryError):
            wal.replay()


class TestCheckpoint:
    def test_checkpoint_truncates(self):
        wal = WriteAheadLog()
        wal.append(LogRecordType.BEGIN, txn_id=1)
        wal.append(LogRecordType.PUT, txn_id=1, table="t", key="k", value=1)
        wal.append(LogRecordType.COMMIT, txn_id=1)
        wal.checkpoint({"t": {"k": 1}})
        assert len(wal) == 1
        assert wal.replay() == {"t": {"k": 1}}

    def test_replay_continues_after_checkpoint(self):
        wal = WriteAheadLog()
        wal.checkpoint({"t": {"old": 1}})
        wal.append(LogRecordType.BEGIN, txn_id=5)
        wal.append(LogRecordType.PUT, txn_id=5, table="t", key="new", value=2)
        wal.append(LogRecordType.COMMIT, txn_id=5)
        assert wal.replay() == {"t": {"old": 1, "new": 2}}


class TestPersistence:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append(LogRecordType.BEGIN, txn_id=1)
        wal.append(LogRecordType.PUT, txn_id=1, table="t", key="k", value="v")
        wal.append(LogRecordType.COMMIT, txn_id=1)

        reloaded = WriteAheadLog(path)
        assert len(reloaded) == 3
        assert reloaded.replay() == {"t": {"k": "v"}}
        assert reloaded.last_lsn == 3

    def test_reload_continues_lsn_sequence(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append(LogRecordType.BEGIN, txn_id=1)
        wal.close()  # a BEGIN is no barrier: it reaches the file here
        reloaded = WriteAheadLog(path)
        record = reloaded.append(LogRecordType.COMMIT, txn_id=1)
        assert record.lsn == 2
