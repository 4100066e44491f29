"""The WAL's invariant, tested apart from the code that keeps it.

    acked ⇒ hardened; the file is a byte prefix of the log;
    nothing is written after a crash.

"Acked" is a barrier returning normally: a COMMIT outside a request,
or :meth:`WriteAheadLog.wait_durable`.  A transaction is one COMMIT
line; an aborted one logs nothing, so it has nothing to harden.
"Hardened" is measured by an ``os.fsync`` stand-in that records, per
file, how many bytes each successful call covered — so an ack whose
fsync failed is caught even though its bytes sit in the page cache.
Whatever batches the writes may be replaced; these must keep passing.  The same module pins what
the one write path costs: one write and one fsync for an in-process
transaction, for a served request (with or without workers) and for a
follower's batch, and fewer barriers than requests under concurrent
load with no timer anywhere.
"""

from __future__ import annotations

import contextlib
import errno
import itertools
import json
import os
import stat
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import host_deployment
from repro.core.parser import P
from repro.core.promise import PromiseRequest
from repro.faults.crashpoints import SimulatedCrash, clear, crash_point, install
from repro.net import NetworkTransport, ThreadedServer
from repro.protocol.errors import TransportFailure
from repro.protocol.messages import Message
from repro.protocol.retry import RetryPolicy
from repro.replication.shipping import ReplicationReceiver
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService
from repro.storage import DurabilityError, Store
from repro.storage.wal import LogRecord, LogRecordType, WriteAheadLog
from repro.tools.doctor import Doctor

SCOPE = "one-write-path"
PRODUCTS = 8


class Disk:
    """``os.fsync`` stand-in: per inode, the bytes hardened so far.

    ``fail_next`` makes the next call raise ``EIO``; ``delay`` makes
    every call take that long; ``hold`` parks the next call until it is
    set.  Directory fsyncs (a checkpoint's rename) pass through uncounted.
    """

    def __init__(self) -> None:
        self.calls = 0
        self.writes = 0
        self.hardened: dict[int, int] = {}
        self.fail_next = False
        self.delay = 0.0
        self.entered = threading.Event()
        self.hold: threading.Event | None = None
        self._lock = threading.Lock()

    def __call__(self, fd: int) -> None:
        status = os.fstat(fd)
        if stat.S_ISDIR(status.st_mode):
            return
        with self._lock:
            self.calls += 1
            hold, self.hold = self.hold, None
            fail, self.fail_next = self.fail_next, False
        if hold is not None:
            self.entered.set()
            assert hold.wait(timeout=10)
        if fail:
            raise OSError(errno.EIO, "injected fsync failure")
        if self.delay:
            time.sleep(self.delay)
        with self._lock:
            self.hardened[status.st_ino] = status.st_size

    def hardened_bytes(self, path: Path) -> bytes:
        """The prefix of ``path`` some fsync covered."""
        size = self.hardened.get(os.stat(path).st_ino, 0)
        return path.read_bytes()[:size]


class Counted:
    """A WAL file handle that counts its ``write`` calls on the disk."""

    def __init__(self, handle, disk: Disk) -> None:
        self._handle = handle
        self._disk = disk

    def write(self, data: str) -> int:
        self._disk.writes += 1
        return self._handle.write(data)

    def __getattr__(self, name: str):
        return getattr(self._handle, name)


@pytest.fixture()
def disk(monkeypatch) -> Disk:
    disk = Disk()
    real_open = Path.open

    def counting_open(self, mode="r", *args, **kwargs):
        handle = real_open(self, mode, *args, **kwargs)
        if self.suffix == ".wal" and mode == "a":
            return Counted(handle, disk)
        return handle

    monkeypatch.setattr("repro.storage.wal.os.fsync", disk)
    monkeypatch.setattr(Path, "open", counting_open)
    yield disk
    clear()


def commit(wal: WriteAheadLog, txn: int) -> LogRecord:
    """Log transaction ``txn`` as the store does: one COMMIT line
    carrying its write set."""
    return wal.append(
        LogRecordType.COMMIT, txn_id=txn, value=[["t", f"k{txn}", txn]]
    )


def lsns(data: bytes) -> list[int]:
    """The LSN of every line in ``data``."""
    return [LogRecord.from_json(line.decode()).lsn for line in data.splitlines()]


# ------------------------------------------------------------ the invariant

OPS = st.sampled_from(
    ["commit", "request", "abort", "checkpoint", "crash", "fsync-error"]
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(OPS, min_size=1, max_size=8), min_size=1, max_size=3))
def test_acked_is_hardened_and_the_file_is_a_prefix(scripts):
    disk = Disk()
    with tempfile.TemporaryDirectory() as home, mock.patch(
        "repro.storage.wal.os.fsync", disk
    ):
        try:
            _check(Path(home) / "log.wal", disk, scripts)
        finally:
            clear()


def _check(path: Path, disk: Disk, scripts) -> None:
    wal = WriteAheadLog(path, fsync=True, fault_scope=SCOPE)
    mutex = threading.Lock()  # what a store's mutex is to its handlers
    txns = itertools.count(1)
    acked: list[int] = []  # LSNs some barrier returned for
    commits: dict[int, int] = {}  # txn -> its COMMIT's LSN
    crashed_at: list[int] = []
    #: The file as the crash left it, when no barrier was in flight then.
    frozen: list[bytes] = []
    waiting_now = [0]  # threads inside wait_durable
    counter = threading.Lock()

    def transaction(op: str) -> int | None:
        """One transaction under the mutex; the LSN a request still has
        to wait for, or None."""
        txn = next(txns)
        scope = wal.request_scope() if op == "request" else contextlib.nullcontext()
        logged = len(wal)
        try:
            wal.raise_if_failed()  # what a store's begin checks
            if op == "abort":
                return None
            with scope:
                try:
                    commit(wal, txn)
                finally:
                    commits[txn] = wal.last_lsn
        except DurabilityError:
            return None
        finally:
            # An aborted transaction, or one refused, logs nothing.
            assert len(wal) == logged + (txn in commits)
        if op == "request":
            return wal.last_lsn
        acked.append(wal.last_lsn)  # the boundary's own barrier returned
        return None

    def run(script) -> None:
        for op in script:
            with mutex:
                if crashed_at:
                    return  # a dead process does nothing more
                if op == "crash":
                    crashed_at.append(wal.last_lsn)
                    install("test.crash", scope=SCOPE)
                    with pytest.raises(SimulatedCrash):
                        crash_point("test.crash", SCOPE)
                    with counter:
                        if not waiting_now[0]:
                            # Every barrier from here on starts after
                            # the crash: none may write a byte.
                            frozen.append(path.read_bytes())
                    return
                if op == "fsync-error":
                    disk.fail_next = True
                    continue
                if op == "checkpoint":
                    # A failed barrier, or a failed write of the
                    # snapshot file (the old log stays whole).
                    with contextlib.suppress(DurabilityError, OSError):
                        wal.checkpoint(wal.replay())
                    continue
                waiting = transaction(op)
            if waiting is not None:
                time.sleep(0.001)  # where a server's gate ships
                with counter:
                    waiting_now[0] += 1
                try:
                    wal.wait_durable(waiting)
                except (DurabilityError, SimulatedCrash):
                    continue
                finally:
                    with counter:
                        waiting_now[0] -= 1
                acked.append(waiting)

    threads = [threading.Thread(target=run, args=(s,)) for s in scripts]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads), "deadlock"

    at_crash = path.read_bytes()
    wal.close()  # after a crash: writes nothing, pending lines included
    time.sleep(0.05 if crashed_at else 0)
    data = path.read_bytes()
    if crashed_at:
        assert data == at_crash, "close() wrote after the crash"
        assert max(lsns(data), default=0) <= crashed_at[0]
    if frozen:
        assert data == frozen[0], "a barrier wrote after the crash"

    # The file is a byte prefix of the log.
    memory = "".join(record.to_json() + "\n" for record in wal).encode()
    assert memory.startswith(data)

    # Every LSN a barrier returned for is hardened (in the fsynced
    # prefix, or folded into a hardened checkpoint after it).
    hardened = max(lsns(disk.hardened_bytes(path)), default=0)
    assert all(lsn <= hardened for lsn in acked), (acked, hardened)

    # Replaying the file gives exactly the committed prefix.
    last = max(lsns(data), default=0)
    clear()
    reopened = WriteAheadLog(path)
    expected = {f"k{txn}" for txn, lsn in commits.items() if lsn <= last}
    assert set(reopened.replay().get("t", {})) == expected
    reopened.close()


# ---------------------------------------------------------- the two fixes


def test_a_failed_fsync_acks_nothing(tmp_path, disk):
    """Neither the request nor its retry is acked, a duplicate waiting on
    it is told the delivery failed, the log is latched — it refuses new
    transactions — and recovery from its file is clean."""
    wal_path = tmp_path / "shop.wal"
    shop = Deployment(name="shop", wal_path=str(wal_path), fsync=True)
    shop.add_service(MerchantService())
    shop.use_pool_strategy("widgets")
    with shop.seed() as txn:
        shop.resources.create_pool(txn, "widgets", 10)
    server = host_deployment(shop, "shop", workers=2)
    wal = shop.store.wal
    hardened = wal.durable_lsn
    request = grant("m1", "widgets")
    disk.hold, disk.fail_next = threading.Event(), True
    release = disk.hold
    outcomes: dict[str, object] = {}

    def deliver(name: str) -> None:
        with NetworkTransport(address, retry=RetryPolicy.none()) as wire:
            try:
                outcomes[name] = wire.send(request)
            except TransportFailure as exc:
                outcomes[name] = exc

    with ThreadedServer(server) as address:
        original = threading.Thread(target=deliver, args=("original",))
        original.start()
        assert disk.entered.wait(timeout=5)  # parked in the request's fsync
        duplicate = threading.Thread(target=deliver, args=("duplicate",))
        duplicate.start()
        deadline = time.monotonic() + 5
        while server.metrics.value("server.duplicates_served") < 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        release.set()
        original.join(timeout=5)
        duplicate.join(timeout=5)
        deliver("retry")

    assert isinstance(outcomes["original"], TransportFailure)
    assert isinstance(outcomes["duplicate"], TransportFailure)
    assert "aborted" in str(outcomes["duplicate"])
    assert isinstance(outcomes["retry"], TransportFailure)
    assert wal.durable_lsn == hardened
    assert server.metrics.value("wal.batch.flush_errors") == 1
    with pytest.raises(DurabilityError):
        wal.wait_durable()
    logged = len(wal)
    with pytest.raises(DurabilityError):
        shop.store.begin()
    with pytest.raises(DurabilityError):
        shop.store.create_table("late")
    assert len(wal) == logged and shop.store.active_transactions == []
    assert "late" not in shop.store.tables()
    shop.close()

    reopened = Deployment(name="shop", wal_path=str(wal_path))
    reopened.add_service(MerchantService())
    reopened.use_pool_strategy("widgets")
    report = reopened.recover()
    assert report.healthy
    assert Doctor(reopened.manager).check() == []
    reopened.close()


def test_the_disk_is_frozen_at_a_scoped_crash(tmp_path, disk):
    """Lines pending when the scope dies never reach the file — neither
    through a barrier nor through ``close()``."""
    path = tmp_path / "frozen.wal"
    wal = WriteAheadLog(path, fault_scope=SCOPE)
    commit(wal, 1)  # a barrier: on disk
    before = path.read_bytes()
    with wal.request_scope():
        commit(wal, 2)  # pending
    install("test.crash", scope=SCOPE)
    with pytest.raises(SimulatedCrash):
        crash_point("test.crash", SCOPE)
    with pytest.raises(SimulatedCrash):
        wal.wait_durable()  # a dead process acks nothing
    wal.close()
    time.sleep(0.3)
    assert path.read_bytes() == before
    assert lsns(before) == [1]


def test_a_request_barrier_in_fsync_blocks_no_append(tmp_path, disk):
    """A request's barrier writes without the log mutex: while one is
    parked in its fsync, another request logs a whole transaction, and
    the next barrier hardens it."""
    wal = WriteAheadLog(tmp_path / "parked.wal", fsync=True)
    with wal.request_scope():
        commit(wal, 1)
    disk.hold = release = threading.Event()
    parked = threading.Thread(target=wal.wait_durable)
    parked.start()
    assert disk.entered.wait(timeout=5)
    logged = threading.Event()

    def other_request() -> None:
        with wal.request_scope():
            commit(wal, 2)
        logged.set()

    threading.Thread(target=other_request, daemon=True).start()
    try:
        assert logged.wait(timeout=5)
        assert wal.durable_lsn == 0  # the first barrier is still parked
    finally:
        release.set()
        parked.join(timeout=5)
    assert not parked.is_alive()
    assert wal.durable_lsn == 1
    wal.wait_durable()
    assert wal.durable_lsn == 2
    wal.close()


# -------------------------------------------------------- the exact costs


def test_an_in_process_transaction_is_one_write_and_one_fsync(tmp_path, disk):
    store = Store(wal_path=tmp_path / "store.wal", fsync=True)
    store.create_table("t")
    writes, calls = disk.writes, disk.calls
    store.run(lambda txn: txn.put("t", "k", {"n": 1}))
    assert (disk.writes - writes, disk.calls - calls) == (1, 1)
    store.close()


def test_an_aborted_or_read_only_transaction_is_no_write(tmp_path, disk):
    store = Store(wal_path=tmp_path / "store.wal", fsync=True)
    store.create_table("t")
    store.run(lambda txn: txn.put("t", "k", {"n": 1}))
    costs = disk.writes, disk.calls, len(store.wal)

    def put_then_fail(txn):
        txn.put("t", "k", {"n": 2})
        raise LookupError("the handler failed")

    with pytest.raises(LookupError):
        store.run(put_then_fail)
    assert store.run(lambda txn: txn.get("t", "k")) == {"n": 1}
    assert (disk.writes, disk.calls, len(store.wal)) == costs
    store.close()


@pytest.mark.parametrize("workers", [0, 4])
def test_a_served_request_is_one_write_and_one_fsync(tmp_path, disk, workers):
    shop = build_shop(tmp_path)
    server = host_deployment(shop, "shop", workers=workers)
    with ThreadedServer(server) as address, NetworkTransport(
        address, retry=RetryPolicy.none()
    ) as wire:
        wire.send(grant("warm", "product-0"))
        for number in range(1, 4):
            writes, calls = disk.writes, disk.calls
            reply = wire.send(grant(f"m{number}", f"product-{number}"))
            assert reply.promise_responses[0].accepted
            assert (disk.writes - writes, disk.calls - calls) == (1, 1)
    shop.close()


def test_a_follower_batch_is_one_write_and_one_fsync(tmp_path, disk):
    primary = WriteAheadLog()
    for txn in range(1, 6):
        commit(primary, txn)
    receiver = ReplicationReceiver("g", str(tmp_path / "follower.wal"), fsync=True)
    header = {"group": "g", "epoch": 0, "op": "ship", "from_lsn": 0}
    ship = "\n".join(
        [json.dumps(header), *(record.to_json() for record in primary)]
    ).encode()
    writes, calls = disk.writes, disk.calls
    ack = json.loads(receiver.handle(ship))
    assert ack == {"applied_lsn": 5}
    assert (disk.writes - writes, disk.calls - calls) == (1, 1)
    receiver.close()


def test_concurrent_requests_share_barriers_with_no_timer(tmp_path, disk):
    """Eight requests at once against a 5 ms fsync: batches form while a
    barrier is writing, so there are fewer fsyncs than requests."""
    shop = build_shop(tmp_path)
    server = host_deployment(shop, "shop", workers=4)
    disk.delay = 0.005
    with ThreadedServer(server) as address:
        wires = [
            NetworkTransport(address, retry=RetryPolicy.none())
            for _ in range(PRODUCTS)
        ]
        for number, wire in enumerate(wires):
            wire.send(grant(f"warm-{number}", f"product-{number}"))
        start = threading.Barrier(PRODUCTS)
        accepted: list[bool] = []

        def one(number: int) -> None:
            start.wait(timeout=5)
            reply = wires[number].send(grant(f"m{number}", f"product-{number}"))
            accepted.append(reply.promise_responses[0].accepted)

        calls = disk.calls
        threads = [
            threading.Thread(target=one, args=(n,)) for n in range(PRODUCTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert accepted == [True] * PRODUCTS
        assert disk.calls - calls < PRODUCTS
        for wire in wires:
            wire.close()
    shop.close()


# ------------------------------------------------------------------ helpers


def build_shop(tmp_path: Path) -> Deployment:
    shop = Deployment(name="shop", wal_path=str(tmp_path / "shop.wal"), fsync=True)
    shop.add_service(MerchantService())
    pools = [f"product-{n}" for n in range(PRODUCTS)]
    shop.use_pool_strategy(*pools)
    with shop.seed() as txn:
        for pool in pools:
            shop.resources.create_pool(txn, pool, 100)
    return shop


def grant(message_id: str, product: str) -> Message:
    return Message(
        message_id=message_id,
        sender="one-write-path",
        recipient="shop",
        promise_requests=(
            PromiseRequest(
                f"{message_id}:req",
                (P(f"quantity('{product}') >= 1"),),
                60,
                client_id="one-write-path",
            ),
        ),
    )
