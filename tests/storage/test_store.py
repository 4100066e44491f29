"""Unit tests for the transactional store."""

from __future__ import annotations

import pytest

from repro.storage.errors import (
    DuplicateKey,
    KeyNotFound,
    TableNotFound,
    TransactionAborted,
    TransactionStateError,
)
from repro.storage.store import Store
from repro.storage.transactions import TransactionStatus


@pytest.fixture
def store() -> Store:
    s = Store()
    s.create_table("t")
    return s


class TestBasicOperations:
    def test_put_get_roundtrip(self, store):
        with store.begin() as txn:
            txn.put("t", "k", {"x": 1})
            assert txn.get("t", "k") == {"x": 1}

    def test_get_missing_raises(self, store):
        with store.begin() as txn:
            with pytest.raises(KeyNotFound):
                txn.get("t", "missing")

    def test_get_or_none(self, store):
        with store.begin() as txn:
            assert txn.get_or_none("t", "missing") is None

    def test_exists(self, store):
        with store.begin() as txn:
            txn.put("t", "k", 1)
            assert txn.exists("t", "k")
            assert not txn.exists("t", "other")

    def test_insert_duplicate_raises(self, store):
        with store.begin() as txn:
            txn.insert("t", "k", 1)
            with pytest.raises(DuplicateKey):
                txn.insert("t", "k", 2)
            txn.abort()

    def test_delete(self, store):
        with store.begin() as txn:
            txn.put("t", "k", 1)
        with store.begin() as txn:
            txn.delete("t", "k")
            assert not txn.exists("t", "k")

    def test_delete_missing_raises(self, store):
        with store.begin() as txn:
            with pytest.raises(KeyNotFound):
                txn.delete("t", "nope")
            txn.abort()

    def test_unknown_table_raises(self, store):
        with store.begin() as txn:
            with pytest.raises(TableNotFound):
                txn.get("nope", "k")
            txn.abort()

    def test_update_read_modify_write(self, store):
        with store.begin() as txn:
            txn.put("t", "k", {"n": 1})
            new = txn.update("t", "k", lambda v: {"n": v["n"] + 1})
            assert new == {"n": 2}
            assert txn.get("t", "k") == {"n": 2}

    def test_scan_sorted_and_filtered(self, store):
        with store.begin() as txn:
            for key in ("b", "a", "c"):
                txn.put("t", key, {"key": key})
        with store.begin() as txn:
            keys = [k for k, __ in txn.scan("t")]
            assert keys == ["a", "b", "c"]
            filtered = list(txn.scan("t", lambda k, v: k != "b"))
            assert [k for k, __ in filtered] == ["a", "c"]

    def test_stored_values_are_immutable(self, store):
        value = {"nested": [1, 2]}
        with store.begin() as txn:
            txn.put("t", "k", value)
        value["nested"].append(3)
        with store.begin() as txn:
            read = txn.get("t", "k")
            assert read == {"nested": [1, 2]}
            with pytest.raises(TypeError):
                read["nested"].append(99)
            with pytest.raises(TypeError):
                read["extra"] = 1
            txn.put("t", "k", {**read, "nested": [*read["nested"], 99]})
        with store.begin() as txn:
            assert txn.get("t", "k") == {"nested": [1, 2, 99]}


class TestAtomicity:
    def test_commit_makes_changes_visible(self, store):
        with store.begin() as txn:
            txn.put("t", "k", 1)
        with store.begin() as txn:
            assert txn.get("t", "k") == 1

    def test_abort_undoes_everything(self, store):
        txn = store.begin()
        txn.put("t", "a", 1)
        txn.put("t", "b", 2)
        txn.abort()
        with store.begin() as check:
            assert check.get_or_none("t", "a") is None
            assert check.get_or_none("t", "b") is None

    def test_abort_restores_overwritten_value(self, store):
        with store.begin() as txn:
            txn.put("t", "k", "original")
        txn = store.begin()
        txn.put("t", "k", "changed")
        txn.abort()
        with store.begin() as check:
            assert check.get("t", "k") == "original"

    def test_abort_restores_deleted_row(self, store):
        with store.begin() as txn:
            txn.put("t", "k", "v")
        txn = store.begin()
        txn.delete("t", "k")
        txn.abort()
        with store.begin() as check:
            assert check.get("t", "k") == "v"

    def test_exception_in_with_block_aborts(self, store):
        with pytest.raises(RuntimeError):
            with store.begin() as txn:
                txn.put("t", "k", 1)
                raise RuntimeError("boom")
        with store.begin() as check:
            assert check.get_or_none("t", "k") is None

    def test_operations_after_commit_fail(self, store):
        txn = store.begin()
        txn.commit()
        with pytest.raises(TransactionStateError):
            txn.put("t", "k", 1)

    def test_operations_after_abort_fail(self, store):
        txn = store.begin()
        txn.abort()
        with pytest.raises(TransactionStateError):
            txn.get("t", "k")

    def test_run_helper_commits(self, store):
        store.run(lambda txn: txn.put("t", "k", 7))
        with store.begin() as check:
            assert check.get("t", "k") == 7

    def test_run_helper_aborts_on_error(self, store):
        def work(txn):
            txn.put("t", "k", 7)
            raise ValueError("nope")

        with pytest.raises(ValueError):
            store.run(work)
        with store.begin() as check:
            assert check.get_or_none("t", "k") is None


class TestSavepoints:
    def test_partial_rollback(self, store):
        with store.begin() as txn:
            txn.put("t", "keep", 1)
            mark = txn.savepoint()
            txn.put("t", "drop", 2)
            txn.rollback_to(mark)
            assert txn.exists("t", "keep")
            assert not txn.exists("t", "drop")

    def test_rollback_to_foreign_savepoint_rejected(self, store):
        txn1 = store.begin()
        mark = txn1.savepoint()
        txn1.commit()
        with store.begin() as txn2:
            with pytest.raises(TransactionStateError):
                txn2.rollback_to(mark)

    def test_nested_savepoints(self, store):
        with store.begin() as txn:
            txn.put("t", "a", 1)
            outer = txn.savepoint()
            txn.put("t", "b", 2)
            inner = txn.savepoint()
            txn.put("t", "c", 3)
            txn.rollback_to(inner)
            assert txn.exists("t", "b") and not txn.exists("t", "c")
            txn.rollback_to(outer)
            assert txn.exists("t", "a") and not txn.exists("t", "b")


class TestIsolation:
    def test_write_write_conflict_aborts_second(self, store):
        txn1 = store.begin()
        txn1.put("t", "k", 1)
        txn2 = store.begin()
        with pytest.raises(TransactionAborted):
            txn2.put("t", "k", 2)
        assert txn2.status is TransactionStatus.ABORTED
        txn1.commit()
        with store.begin() as check:
            assert check.get("t", "k") == 1

    def test_read_of_dirty_row_conflicts(self, store):
        txn1 = store.begin()
        txn1.put("t", "k", "dirty")
        txn2 = store.begin()
        with pytest.raises(TransactionAborted):
            txn2.get("t", "k")

    def test_readers_coexist(self, store):
        with store.begin() as txn:
            txn.put("t", "k", 1)
        txn1 = store.begin()
        txn2 = store.begin()
        assert txn1.get("t", "k") == 1
        assert txn2.get("t", "k") == 1
        txn1.commit()
        txn2.commit()

    def test_phantom_guard_scan_blocks_insert(self, store):
        with store.begin() as txn:
            txn.put("t", "k", 1)
        scanner = store.begin()
        list(scanner.scan("t"))
        inserter = store.begin()
        with pytest.raises(TransactionAborted):
            inserter.put("t", "new-key", 2)
        scanner.commit()

    def test_update_to_existing_key_does_not_hit_phantom_guard(self, store):
        with store.begin() as txn:
            txn.put("t", "k", 1)
        scanner = store.begin()
        list(scanner.scan("t"))
        scanner.commit()
        # After the scanner is done, updates flow normally.
        with store.begin() as writer:
            writer.put("t", "k", 2)


class TestDurability:
    def test_snapshot_requires_quiescence(self, store):
        txn = store.begin()
        with pytest.raises(TransactionStateError):
            store.snapshot()
        txn.abort()
        assert "t" in store.snapshot()

    def test_recovery_from_wal(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        store = Store(wal_path=path)
        store.create_table("t")
        with store.begin() as txn:
            txn.put("t", "committed", 1)
        txn = store.begin()
        txn.put("t", "uncommitted", 2)
        # Crash: the in-flight transaction never commits.
        del txn, store

        recovered = Store(wal_path=path)
        with recovered.begin() as check:
            assert check.get("t", "committed") == 1
            assert check.get_or_none("t", "uncommitted") is None

    def test_recovery_after_checkpoint(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        store = Store(wal_path=path)
        store.create_table("t")
        with store.begin() as txn:
            txn.put("t", "old", 1)
        store.checkpoint()
        with store.begin() as txn:
            txn.put("t", "new", 2)
        recovered = Store(wal_path=path)
        with recovered.begin() as check:
            assert check.get("t", "old") == 1
            assert check.get("t", "new") == 2

    def test_checkpoint_requires_quiescence(self, store):
        txn = store.begin()
        with pytest.raises(TransactionStateError):
            store.checkpoint()
        txn.abort()


class TestSchema:
    def test_create_table_idempotent(self, store):
        store.create_table("t")
        assert "t" in store.tables()

    def test_row_count(self, store):
        with store.begin() as txn:
            txn.put("t", "a", 1)
            txn.put("t", "b", 2)
        assert store.row_count("t") == 2
