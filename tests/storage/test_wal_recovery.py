"""Durability discipline of the persistent WAL.

Covers the crash-hardening contract: a torn tail line (the on-disk
signature of dying mid-append) is dropped and truncated, corruption
*before* the tail still raises, checkpoints swap in atomically, and a
store can auto-checkpoint as its log grows.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.faults.crashpoints import SimulatedCrash, armed
from repro.storage.errors import RecoveryError
from repro.storage.store import Store
from repro.storage.wal import LogRecordType, WriteAheadLog


def commit(wal: WriteAheadLog, txn: int) -> None:
    """One transaction, as the store logs it: one COMMIT line."""
    wal.append(LogRecordType.COMMIT, txn_id=txn, value=[["t", f"k{txn}", txn]])


def write_records(path, count: int = 3) -> WriteAheadLog:
    wal = WriteAheadLog(path)
    for index in range(1, count + 1):
        commit(wal, index)
    wal.close()
    return wal


class TestTornTail:
    def test_half_final_record_is_dropped_and_truncated(self, tmp_path):
        path = tmp_path / "torn.wal"
        write_records(path, count=3)
        whole = path.read_bytes()
        # Tear the final line in half, as a crash mid-append would.
        lines = whole.splitlines(keepends=True)
        torn = b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
        path.write_bytes(torn)

        wal = WriteAheadLog(path)
        assert len(wal) == 2  # three appended, the torn third dropped
        assert wal.replay() == {"t": {"k1": 1, "k2": 2}}
        assert wal.recovery_notes
        assert "torn tail" in wal.recovery_notes[0]
        # The file itself was truncated back to whole records.
        assert path.read_bytes() == b"".join(lines[:-1])
        wal.close()

    def test_reopened_torn_log_appends_cleanly(self, tmp_path):
        path = tmp_path / "torn.wal"
        write_records(path, count=2)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])

        wal = WriteAheadLog(path)
        commit(wal, 9)
        wal.close()
        reread = WriteAheadLog(path)
        assert reread.max_txn_id() == 9
        assert reread.replay() == {"t": {"k1": 1, "k9": 9}}
        assert not reread.recovery_notes
        reread.close()

    def test_injected_torn_append_recovers_on_restart(self, tmp_path):
        path = tmp_path / "torn.wal"
        wal = WriteAheadLog(path)
        with wal.request_scope():
            commit(wal, 1)  # pending: the torn append writes it first
            with armed("wal.torn-append"):
                with pytest.raises(SimulatedCrash):
                    commit(wal, 2)
        wal.close()

        reread = WriteAheadLog(path)
        assert [r.txn_id for r in reread] == [1]
        assert reread.recovery_notes
        reread.close()

    def test_missing_trailing_newline_is_restored(self, tmp_path):
        path = tmp_path / "chopped.wal"
        write_records(path, count=1)
        raw = path.read_bytes()
        path.write_bytes(raw.rstrip(b"\n"))

        wal = WriteAheadLog(path)
        assert len(wal) == 1  # the whole record survived
        commit(wal, 5)
        wal.close()
        assert len(WriteAheadLog(path)) == 2

    def test_corruption_before_tail_still_raises(self, tmp_path):
        path = tmp_path / "corrupt.wal"
        write_records(path, count=3)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b"definitely not json\n"
        path.write_bytes(b"".join(lines))

        with pytest.raises(RecoveryError, match="before end of log"):
            WriteAheadLog(path)


class TestAtomicCheckpoint:
    def test_checkpoint_replaces_log_atomically(self, tmp_path):
        path = tmp_path / "cp.wal"
        store = Store(wal_path=path)
        store.create_table("t")
        with store.begin() as txn:
            txn.put("t", "k", {"v": 1})
        store.checkpoint()
        store.close()

        reread = Store(wal_path=path)
        with reread.begin() as txn:
            assert txn.get("t", "k") == {"v": 1}
        assert not (tmp_path / "cp.wal.tmp").exists()
        reread.close()

    def test_crash_mid_checkpoint_keeps_old_log(self, tmp_path):
        path = tmp_path / "cp.wal"
        store = Store(wal_path=path)
        store.create_table("t")
        with store.begin() as txn:
            txn.put("t", "k", {"v": 1})
        with armed("wal.mid-checkpoint"):
            with pytest.raises(SimulatedCrash):
                store.checkpoint()

        # The temp file is the only casualty; the full log survives and
        # the next open sweeps the leftover away.
        assert (tmp_path / "cp.wal.tmp").exists()
        reread = Store(wal_path=path)
        assert any(
            "interrupted checkpoint" in note
            for note in reread.wal.recovery_notes
        )
        assert not (tmp_path / "cp.wal.tmp").exists()
        with reread.begin() as txn:
            assert txn.get("t", "k") == {"v": 1}
        reread.close()

    def test_auto_checkpoint_compacts_log(self, tmp_path):
        path = tmp_path / "auto.wal"
        store = Store(wal_path=path, auto_checkpoint_every=20)
        store.create_table("t")
        for index in range(30):
            with store.begin() as txn:
                txn.put("t", f"k{index}", index)
        assert store.wal.records_since_checkpoint < 20
        first_line = path.read_text().splitlines()[0]
        assert json.loads(first_line)["type"] == "checkpoint"
        store.close()

        reread = Store(wal_path=path)
        assert reread.row_count("t") == 30
        reread.close()

    def test_auto_checkpoint_interval_validated(self, tmp_path):
        with pytest.raises(ValueError):
            Store(wal_path=tmp_path / "x.wal", auto_checkpoint_every=0)


class TestPersistentHandle:
    def test_appends_reuse_one_handle(self, tmp_path):
        path = tmp_path / "handle.wal"
        wal = WriteAheadLog(path)
        handle = wal._handle
        for index in range(5):
            commit(wal, index + 1)
        assert wal._handle is handle
        wal.close()

    def test_each_append_is_flushed(self, tmp_path):
        path = tmp_path / "flush.wal"
        wal = WriteAheadLog(path)
        with wal.request_scope():
            commit(wal, 1)
        # Pending until a barrier: a COMMIT outside a request is one.
        assert len(WriteAheadLog(path)) == 0
        commit(wal, 2)
        # Both visible to a second reader at once, without close().
        assert len(WriteAheadLog(path)) == 2
        wal.close()

    def test_fsync_policy_accepted(self, tmp_path):
        path = tmp_path / "sync.wal"
        store = Store(wal_path=path, fsync=True)
        store.create_table("t")
        with store.begin() as txn:
            txn.put("t", "k", 1)
        store.close()
        reread = Store(wal_path=path)
        assert reread.row_count("t") == 1
        reread.close()

    def test_close_is_idempotent(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "c.wal")
        wal.close()
        wal.close()


class TestTxnNumbering:
    def test_reopened_store_continues_txn_ids(self, tmp_path):
        path = tmp_path / "ids.wal"
        store = Store(wal_path=path)
        store.create_table("t")
        with store.begin() as txn:
            txn.put("t", "a", 1)
        top = store.wal.max_txn_id()
        store.close()

        reread = Store(wal_path=path)
        with reread.begin() as txn:
            assert txn.txn_id > top
            txn.put("t", "b", 2)
        reread.close()
