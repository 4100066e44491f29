"""Group commit on the one write path: batching, the ack gate, and
batch-boundary recovery.

The claims under test: one barrier hardens everything pending (the
``wal.batch.*`` counters prove the amortisation), batches form while a
barrier is writing — no flusher, no timer — ``wait_durable`` is the
only thing a request may trust (its commits are not barriers, so
records not waited on can die with the process), and a crash that eats
an un-hardened commit record rolls the store back to exactly the
acknowledged prefix — whole transactions, never torn ones.
"""

from __future__ import annotations

import shutil
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.storage.wal import LogRecordType, WriteAheadLog

pytestmark = pytest.mark.pipeline


def grant_txn(wal: WriteAheadLog, txn_id: int, pool: str, allocated: int) -> int:
    """Append one committed grant-shaped transaction — one COMMIT line
    carrying its write set; returns its LSN."""
    image = {"available": 10 - allocated, "allocated": allocated}
    return wal.append(
        LogRecordType.COMMIT, txn_id=txn_id, value=[["pools", pool, image]]
    ).lsn


def test_a_backlog_drains_in_few_flushes(tmp_path, monkeypatch):
    # Park the first barrier inside its fsync: while it is writing,
    # twenty commit lines pile into the buffer, and the next barrier takes
    # them all at once — the batch a concurrent load forms by itself.
    metrics = MetricsRegistry()
    wal = WriteAheadLog(tmp_path / "batch.wal", fsync=True)
    wal.set_metrics(metrics)
    entered, gate = threading.Event(), threading.Event()

    def parked_fsync(fd: int) -> None:
        if not gate.is_set():
            entered.set()
            assert gate.wait(timeout=5)

    monkeypatch.setattr("repro.storage.wal.os.fsync", parked_fsync)
    with wal.request_scope():
        grant_txn(wal, 1, "widgets", 1)
    first = threading.Thread(target=wal.wait_durable)
    first.start()
    assert entered.wait(timeout=5)
    with wal.request_scope():
        for txn in range(2, 22):
            grant_txn(wal, txn, "widgets", 1)
    second = threading.Thread(target=wal.wait_durable)
    second.start()
    gate.set()
    first.join(timeout=5)
    second.join(timeout=5)
    assert wal.durable_lsn == wal.last_lsn == 21
    assert metrics.value("wal.batch.records") == 21
    assert metrics.value("wal.batch.flushes") == 2
    wal.close()
    assert len((tmp_path / "batch.wal").read_text().splitlines()) == 21


def test_wal_routes_batch_metrics_and_hardens_everything(tmp_path):
    metrics = MetricsRegistry()
    wal = WriteAheadLog(tmp_path / "batched.wal")
    wal.set_metrics(metrics)
    with wal.request_scope():
        for txn in range(1, 21):
            grant_txn(wal, txn, "widgets", 1)
    wal.wait_durable()
    assert wal.durable_lsn == wal.last_lsn
    assert metrics.value("wal.batch.records") == 20
    assert metrics.value("wal.batch.flushes") == 1
    wal.close()
    assert len((tmp_path / "batched.wal").read_text().splitlines()) == 20


def test_wait_durable_is_the_ack_gate(tmp_path):
    # Inside a request a commit is not a barrier: the request's own
    # wait is what puts it on disk.
    wal = WriteAheadLog(tmp_path / "held.wal")
    with wal.request_scope():
        lsn = grant_txn(wal, 1, "widgets", 1)
    assert wal.durable_lsn < lsn
    assert (tmp_path / "held.wal").read_text() == ""
    wal.wait_durable(lsn)
    assert wal.durable_lsn >= lsn
    assert (tmp_path / "held.wal").read_text().count('"commit"') == 1
    wal.close()


def test_concurrent_committers_amortise_their_barriers(tmp_path, monkeypatch):
    metrics = MetricsRegistry()
    wal = WriteAheadLog(tmp_path / "shared.wal", fsync=True)
    wal.set_metrics(metrics)
    monkeypatch.setattr(
        "repro.storage.wal.os.fsync", lambda fd: time.sleep(0.005)
    )
    mutex = threading.Lock()  # what a store's mutex is to its handlers
    barrier = threading.Barrier(8)
    failures: list[BaseException] = []

    def commit_and_wait(txn: int):
        try:
            barrier.wait(timeout=5)
            with wal.request_scope(), mutex:
                lsn = grant_txn(wal, txn, "widgets", 1)
            wal.wait_durable(lsn)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    threads = [
        threading.Thread(target=commit_and_wait, args=(txn,))
        for txn in range(1, 9)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert failures == []
    assert wal.durable_lsn == wal.last_lsn
    # Eight commits hardened in fewer barriers than commits.
    assert metrics.value("wal.batch.records") == 8
    assert 1 <= metrics.value("wal.batch.flushes") < 8
    wal.close()


def test_crash_loses_only_the_unacknowledged_commit(tmp_path):
    """Batch-boundary recovery: a commit line still pending dies with
    the process, and replay rolls the whole transaction back."""
    live = tmp_path / "live.wal"
    wal = WriteAheadLog(live)
    grant_txn(wal, 1, "widgets", 1)
    wal.wait_durable()  # everything so far is on disk
    hardened = wal.durable_lsn
    # The commit line belongs to a request that never reached its
    # barrier: no ack exists for transaction 2, and nothing wrote it.
    with wal.request_scope():
        commit_lsn = grant_txn(wal, 2, "widgets", 2)
    assert wal.durable_lsn == hardened < commit_lsn

    # "Crash": copy the file exactly as the disk holds it, mid-run.
    corpse = tmp_path / "recovered.wal"
    shutil.copy(live, corpse)
    recovered = WriteAheadLog(corpse)
    assert recovered.recovery_notes == []  # whole lines only, no torn tail
    assert recovered.last_lsn == hardened
    state = recovered.replay()
    # Transaction 1 committed and survives; transaction 2 lost its
    # commit line and leaves no trace.
    assert state["pools"]["widgets"] == {"available": 9, "allocated": 1}
    recovered.close()
    wal.close()


def test_clean_close_hardens_the_buffer(tmp_path):
    path = tmp_path / "closed.wal"
    wal = WriteAheadLog(path)
    with wal.request_scope():
        grant_txn(wal, 1, "widgets", 1)
    wal.close()  # no wait_durable: close itself must write the batch
    reopened = WriteAheadLog(path)
    assert reopened.replay()["pools"]["widgets"]["allocated"] == 1
    reopened.close()
