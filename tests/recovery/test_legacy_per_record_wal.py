"""A log written record by record still replays to the same state.

``legacy_per_record.wal`` was written by the build before a transaction
became one COMMIT line: each transaction is BEGIN, one PUT or DELETE per
write, then COMMIT or ABORT.  Driven through ``Store`` on two tables, it
holds, in order:

* a committed transaction (txn 1);
* an aborted one (txn 2), with the compensating images its rollback
  logged, then ABORT;
* a committed one (txn 3) that rolled back to a savepoint, compensating
  images included;
* two interleaved groups (txns 4 and 5), committed in reverse order;
* an uncommitted tail (txn 6) whose last line is torn half-way, left by
  the ``wal.torn-append`` crash point.

``legacy_per_record.json`` is what that build's ``WriteAheadLog``
reported on a copy of the file: ``replay()``, ``last_lsn``,
``max_txn_id()`` and the torn-tail note.  This build must read the
same.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.storage.store import Store
from repro.storage.wal import LogRecord, LogRecordType, WriteAheadLog, committed

FIXTURE = Path(__file__).with_name("legacy_per_record.wal")
EXPECTED = json.loads(Path(__file__).with_name("legacy_per_record.json").read_text())


@pytest.fixture()
def wal_path(tmp_path) -> Path:
    copy = tmp_path / "legacy.wal"
    shutil.copy(FIXTURE, copy)  # opening a log truncates its torn tail
    return copy


def test_the_fixture_is_a_per_record_log_with_a_torn_tail():
    lines = FIXTURE.read_bytes().split(b"\n")
    rows = [json.loads(line) for line in lines[:-1]]
    assert {row["type"] for row in rows} == {
        "create_table", "begin", "put", "delete", "commit", "abort",
    }
    assert all(row["value"] is None for row in rows if row["type"] == "commit")
    with pytest.raises(ValueError):
        json.loads(lines[-1])  # the torn last line


def test_replay_matches_the_older_build(wal_path):
    wal = WriteAheadLog(wal_path)
    assert wal.replay() == EXPECTED["state"]
    assert wal.last_lsn == EXPECTED["last_lsn"]
    assert wal.max_txn_id() == EXPECTED["max_txn_id"]
    assert wal.recovery_notes == EXPECTED["recovery_notes"]
    # Only transactions 1, 3, 5 and 4 committed, in that order.
    assert [
        record.txn_id
        for record, __ in committed(wal)
        if record.record_type is LogRecordType.COMMIT
    ] == [1, 3, 5, 4]
    wal.close()


def test_a_store_opens_it_and_appends_commit_lines(wal_path):
    store = Store(wal_path=wal_path)
    assert store.recovered and store.snapshot() == EXPECTED["state"]
    with store.begin() as txn:
        assert txn.txn_id > EXPECTED["max_txn_id"]
        txn.put("accounts", "erin", {"balance": 11})
        txn.delete("orders", "o4")
    store.close()

    lines = wal_path.read_text().splitlines()
    assert len(lines) == EXPECTED["last_lsn"] + 1
    appended = LogRecord.from_json(lines[-1])
    assert appended.record_type is LogRecordType.COMMIT
    assert appended.value == [
        ["accounts", "erin", {"balance": 11}], ["orders", "o4"],
    ]

    reopened = Store(wal_path=wal_path)
    expected = json.loads(json.dumps(EXPECTED["state"]))
    expected["accounts"]["erin"] = {"balance": 11}
    del expected["orders"]["o4"]
    assert reopened.snapshot() == expected
    reopened.close()
