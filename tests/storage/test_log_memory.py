"""What a log keeps in memory, tested apart from how it keeps it.

    A file-backed log holds in memory only what its file does not hold
    yet; everything it has dropped reads back from the file as it was.

"Dropped" is judged by :func:`held`, the one place this module looks
inside the log.  Everything else is the log's public surface — its
records, length, replay, transaction ids and suffixes — compared with
the same file opened afresh, which holds every record in memory.  The
rule has three exceptions, each tested here: a log with no file keeps
everything, and a log that crashed, tore an append or latched on a
failed write forgets nothing more.
"""

from __future__ import annotations

import errno
import gc
import shutil
import threading
import time
import tracemalloc

import pytest

from repro.core.environment import Environment
from repro.core.parser import P
from repro.core.promise import PromiseRequest
from repro.faults.crashpoints import SimulatedCrash, armed, crash_point
from repro.protocol.messages import Message
from repro.replication.shipping import ReplicationReceiver, ReplicationSender
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService
from repro.storage import DurabilityError, Store
from repro.storage.wal import LogRecordType, WriteAheadLog

SCOPE = "log-memory"


def held(wal: WriteAheadLog) -> list[int]:
    """LSNs of the records ``wal`` still holds in memory."""
    return [record.lsn for record in wal._records]


def commit(wal: WriteAheadLog, txn: int) -> None:
    """One transaction as a store logs it: one COMMIT line."""
    wal.append(LogRecordType.COMMIT, txn_id=txn, value=[["t", f"k{txn % 7}", txn]])


def reopened(wal: WriteAheadLog, tmp_path) -> WriteAheadLog:
    """The same file, opened afresh from a copy: every record in memory."""
    assert wal.path is not None
    copy = tmp_path / "copy.wal"
    shutil.copyfile(wal.path, copy)
    return WriteAheadLog(copy)


def assert_reads_like(wal: WriteAheadLog, fresh: WriteAheadLog) -> None:
    assert list(wal) == list(fresh)
    assert len(wal) == len(fresh)
    assert wal.replay() == fresh.replay()
    assert wal.max_txn_id() == fresh.max_txn_id()
    floor = held(wal)[0]
    for cursor in {0, 1, floor - 2, floor - 1, floor, wal.last_lsn - 1, wal.last_lsn}:
        assert wal.since(cursor) == fresh.since(cursor), cursor


# ------------------------------------------------------------- the rule


def test_a_file_backed_store_holds_only_what_its_file_does_not(tmp_path):
    store = Store(tmp_path / "store.wal")
    store.create_table("t")
    for n in range(3000):
        with store.begin() as txn:
            txn.put("t", f"k{n % 50}", {"n": n})
    wal = store.wal
    # Outside a request every commit is its own barrier: all 3000 are
    # in the file, and memory holds only the newest.
    assert held(wal) == [wal.last_lsn] and wal.durable_lsn == wal.last_lsn
    with wal.request_scope():  # inside one, nothing hardens until it ends
        for n in range(3):
            with store.begin() as txn:
                txn.put("t", f"k{n}", {"n": -n})
    assert held(wal) == [wal.last_lsn - 2, wal.last_lsn - 1, wal.last_lsn]
    assert wal.durable_lsn == wal.last_lsn - 3
    store.wait_durable()
    fresh = reopened(wal, tmp_path)
    try:
        assert len(wal) == 3004  # the CREATE_TABLE and every commit
        assert_reads_like(wal, fresh)
        assert wal.replay()["t"]["k1"] == {"n": -1}
    finally:
        fresh.close()
        store.close()


def test_every_suffix_reads_back_as_written(tmp_path):
    """Lines of every size, some longer than a read of the file takes at
    a time, some cut short mid-file by a checkpoint."""
    wal = WriteAheadLog(tmp_path / "sizes.wal")
    for txn in range(1, 41):
        size = (txn * 7919) % 150_000 if txn % 3 else txn
        wal.append(LogRecordType.COMMIT, txn_id=txn, value=[["t", "k", "x" * size]])
        if txn == 25:
            wal.checkpoint(wal.replay())
    fresh = reopened(wal, tmp_path)
    try:
        for cursor in range(wal.last_lsn + 1):
            assert wal.since(cursor) == fresh.since(cursor), cursor
        assert list(wal) == list(fresh) and wal.lines() == fresh.lines()
    finally:
        fresh.close()
        wal.close()


def test_a_checkpoint_racing_since_leaves_no_gap(tmp_path):
    """A reader that finds memory past its cursor reads the file — which
    a checkpoint on another thread may replace under it.  Whatever it
    gets starts right after the cursor or with a CHECKPOINT and runs
    one LSN at a time."""
    wal = WriteAheadLog(tmp_path / "race.wal")
    stop = threading.Event()
    problems: list[str] = []
    starts = {"cursor": 0, "checkpoint": 0}

    def write() -> None:
        txn = 0
        while not stop.is_set():
            for _ in range(20):
                txn += 1
                commit(wal, txn)
            wal.checkpoint({"t": {"k": txn}})

    def read() -> None:
        lag = 0
        while not stop.is_set():
            lag = lag % 40 + 2  # behind memory's head: a read of the file
            cursor = max(0, wal.last_lsn - lag)
            suffix = wal.since(cursor)
            if not suffix:
                continue
            if suffix[0].record_type is LogRecordType.CHECKPOINT:
                starts["checkpoint"] += 1
            elif suffix[0].lsn == cursor + 1:
                starts["cursor"] += 1
            else:
                problems.append(f"cursor {cursor}: starts at {suffix[0].lsn}")
            lsns = [record.lsn for record in suffix]
            if lsns != list(range(lsns[0], lsns[0] + len(lsns))):
                problems.append(f"cursor {cursor}: gap in {lsns}")

    threads = [threading.Thread(target=write), threading.Thread(target=read)]
    for thread in threads:
        thread.start()
    time.sleep(1.5)
    stop.set()
    for thread in threads:
        thread.join(10)
    wal.close()
    assert problems == []
    assert starts["cursor"] and starts["checkpoint"], starts


def test_a_log_without_a_file_keeps_everything():
    wal = WriteAheadLog()
    for txn in range(1, 3001):
        commit(wal, txn)
    assert held(wal) == list(range(1, 3001)) == [r.lsn for r in wal]
    assert len(wal) == 3000 and wal.max_txn_id() == 3000


# ---------------------------------------------- what forgets nothing more


def test_a_torn_append_forgets_nothing(tmp_path):
    wal = WriteAheadLog(tmp_path / "torn.wal", fault_scope=SCOPE)
    for txn in range(1, 6):
        commit(wal, txn)
    with armed("wal.torn-append", scope=SCOPE):
        with pytest.raises(SimulatedCrash):
            commit(wal, 6)
        for txn in range(7, 11):  # a dead process unwinding logs on
            commit(wal, txn)
        assert held(wal) == list(range(6, 11))
        # The file holds 1..5 whole and half of 6; the rest is memory's.
        assert [r.lsn for r in wal] == list(range(1, 11))
    wal.close()


def test_a_crashed_scope_forgets_nothing(tmp_path):
    wal = WriteAheadLog(tmp_path / "crashed.wal", fault_scope=SCOPE)
    for txn in range(1, 6):
        commit(wal, txn)
    with armed("log-memory.crash", scope=SCOPE):
        with pytest.raises(SimulatedCrash):
            crash_point("log-memory.crash", SCOPE)
        for txn in range(6, 11):
            commit(wal, txn)
        assert held(wal) == list(range(5, 11))
        assert [r.lsn for r in wal] == list(range(1, 11))
    wal.close()


def test_a_latched_log_forgets_nothing(tmp_path, monkeypatch):
    wal = WriteAheadLog(tmp_path / "latched.wal", fsync=True)
    for txn in range(1, 6):
        commit(wal, txn)

    def failing_fsync(fd: int) -> None:
        raise OSError(errno.EIO, "injected fsync failure")

    monkeypatch.setattr("repro.storage.wal.os.fsync", failing_fsync)
    with pytest.raises(DurabilityError):
        commit(wal, 6)
    with wal.request_scope():  # a request's commits are no barrier
        for txn in range(7, 11):
            commit(wal, txn)
    assert wal.failed and held(wal) == list(range(6, 11))
    assert [r.lsn for r in wal] == list(range(1, 11))
    wal.close()


# ------------------------------------------------- a lagging follower


class DirectLink:
    """Ship frames straight into a receiver, on the calling thread."""

    def __init__(self, receiver: ReplicationReceiver) -> None:
        self.receiver = receiver

    def begin(self, frame: bytes):
        return lambda: self.receiver.handle(frame)

    def close(self) -> None:
        pass


@pytest.mark.parametrize("checkpoint", [False, True])
def test_a_blocked_follower_catches_up_from_the_file(
    tmp_path, monkeypatch, checkpoint
):
    wal = WriteAheadLog(tmp_path / "primary.wal")
    receiver = ReplicationReceiver("g", str(tmp_path / "follower.wal"))
    sender = ReplicationSender(
        "g", 0, wal, transport_factory=lambda address: DirectLink(receiver)
    )
    link = sender.add_follower(("in-process", 0), "f0")
    wal.subscribe(sender.observe)
    reads = []
    filed = WriteAheadLog._filed
    monkeypatch.setattr(
        WriteAheadLog, "_filed", lambda self, lsn: reads.append(lsn) or filed(self, lsn)
    )

    for txn in range(1, 11):
        commit(wal, txn)
    assert link.acked_lsn == wal.last_lsn == 10
    assert reads == []  # a follower that keeps up is shipped from memory

    sender.blocked = True
    for txn in range(11, 611):
        commit(wal, txn)
        if checkpoint and txn == 300:
            wal.checkpoint(wal.replay())
    assert held(wal) == [wal.last_lsn]  # the backlog is only in the file
    sender.blocked = False
    assert sender.flush()
    assert reads and link.acked_lsn == receiver.applied_lsn == wal.last_lsn
    wal.close()
    receiver.close()
    assert (tmp_path / "follower.wal").read_bytes() == (
        tmp_path / "primary.wal"
    ).read_bytes()


# -------------------------------------------------------- the slope


def test_memory_per_pair_is_flat_once_the_journal_is_full(tmp_path):
    """An in-process file-backed deployment, vacuumed as the benchmark
    does: past the reply journal's fill (4096 rows, two a pair), 2000
    more grant+release pairs leave less than 1 MiB behind.  A log that
    kept every record grew ~9 MiB over the same pairs."""
    shop = Deployment(name="shop", wal_path=str(tmp_path / "shop.wal"))
    shop.add_service(MerchantService())
    shop.use_pool_strategy("widgets")
    with shop.seed() as txn:
        shop.resources.create_pool(txn, "widgets", 100)
    predicates = (P("quantity('widgets') >= 1"),)
    traced: dict[int, int] = {}
    tracemalloc.start()
    try:
        for pair in range(1, 4501):
            granted = shop.endpoint.handle(
                Message(
                    message_id=f"g-{pair}",
                    sender="alice",
                    recipient="shop",
                    promise_requests=(
                        PromiseRequest(f"r-{pair}", predicates, 60, client_id="alice"),
                    ),
                )
            )
            promise_id = granted.promise_responses[0].promise_id
            assert promise_id is not None
            shop.endpoint.handle(
                Message(
                    message_id=f"x-{pair}",
                    sender="alice",
                    recipient="shop",
                    environment=Environment.of(promise_id, release=[promise_id]),
                )
            )
            if pair % 64 == 0:
                shop.manager.vacuum()
            if pair in (2500, 4500):
                gc.collect()
                traced[pair] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        shop.close()
    grown = (traced[4500] - traced[2500]) / 2**20
    assert grown < 1.0, f"{grown:.2f} MiB over 2000 pairs"
