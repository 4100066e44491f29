"""WAL shipping unit tests: suffix shipping, idempotence, fencing, gate.

Run the sender against an in-process transport that hands each ship
frame straight to a :class:`ReplicationReceiver` — no sockets, so
every scenario (a lagging link, a fenced stream, a diverged rejoin) is
deterministic.  The socket path is covered at the end of this module
and by the fleet failover tests.
"""

from __future__ import annotations

import logging
import threading
import time

import pytest

from repro.faults import crashpoints
from repro.faults.history import HistoryRecorder, audit_history
from repro.net import PromiseServer, ThreadedServer
from repro.protocol.errors import TransportFailure
from repro.replication.shipping import (
    FENCED_FAULT_PREFIX,
    SHIP_CHUNK_RECORDS,
    ReplicationReceiver,
    ReplicationSender,
)
from repro.storage.errors import RecoveryError
from repro.storage.wal import LogRecordType, WriteAheadLog

pytestmark = pytest.mark.failover

GROUP = "shop-g0"


class DirectTransport:
    """Delivers ship frames straight to a receiver's handler."""

    def __init__(self, receiver: ReplicationReceiver) -> None:
        self.receiver = receiver
        self.down = False
        self.sent = 0

    def begin(self, frame: bytes):
        if self.down:
            raise TransportFailure("link down")
        self.sent += 1
        return lambda: self.receiver.handle(frame)

    def close(self) -> None:
        pass


@pytest.fixture()
def wal(tmp_path):
    log = WriteAheadLog(tmp_path / "primary.wal")
    yield log
    log.close()


def make_receiver(tmp_path, epoch: int = 0) -> ReplicationReceiver:
    return ReplicationReceiver(
        GROUP, str(tmp_path / "follower.wal"), epoch=epoch
    )


def make_pair(tmp_path, wal, epoch: int = 0):
    receiver = make_receiver(tmp_path)
    transport = DirectTransport(receiver)
    sender = ReplicationSender(
        GROUP, epoch, wal, transport_factory=lambda address: transport
    )
    link = sender.add_follower(("in-process", 0), "f0")
    return sender, receiver, transport, link


def commit_txn(wal: WriteAheadLog, txn_id: int) -> None:
    """One transaction, as the store logs it: one COMMIT line."""
    wal.append(
        LogRecordType.COMMIT, txn_id=txn_id, value=[["t", f"k{txn_id}", 1]]
    )


def test_observe_ships_only_at_txn_boundaries(tmp_path, wal):
    sender, receiver, transport, _ = make_pair(tmp_path, wal)
    wal.subscribe(sender.observe)

    with wal.request_scope():
        commit_txn(wal, 1)
    assert transport.sent == 0  # a request's commit waits for its gate

    commit_txn(wal, 2)
    assert transport.sent == 1  # one ship for the commit, carrying both
    assert receiver.applied_lsn == wal.last_lsn == 2


def test_ship_carries_only_the_unacked_suffix(tmp_path, wal):
    sender, receiver, _, link = make_pair(tmp_path, wal)
    wal.subscribe(sender.observe)
    commit_txn(wal, 1)
    shipped_first = sender.records_shipped
    commit_txn(wal, 2)
    # The second flush must not re-send transaction 1's line.
    assert sender.records_shipped == shipped_first + 1
    assert link.acked_lsn == wal.last_lsn
    assert receiver.applied_lsn == wal.last_lsn


def test_redelivery_is_idempotent_by_lsn(tmp_path, wal):
    sender, receiver, _, link = make_pair(tmp_path, wal)
    commit_txn(wal, 1)
    assert sender.flush()
    applied = receiver.ships_applied
    # Simulate a lost ack: the sender forgets the follower's progress
    # and re-ships everything.  The receiver must skip it all.
    link.acked_lsn = 0
    assert sender.flush()
    assert receiver.ships_applied == applied
    assert len(receiver.wal) == len(wal)


def test_promoted_receiver_fences_the_stream(tmp_path, wal):
    sender, receiver, _, _ = make_pair(tmp_path, wal)
    commit_txn(wal, 1)
    assert sender.flush()

    receiver.promote(1)
    commit_txn(wal, 2)
    assert not sender.flush()
    assert sender.fenced is not None
    # The latch is permanent: the gate refuses forever after.
    reason = sender.gate()
    assert reason is not None and "deposed" in reason


def test_stale_epoch_stream_bounces(tmp_path, wal):
    receiver = make_receiver(tmp_path)
    receiver.epoch = 5
    transport = DirectTransport(receiver)
    sender = ReplicationSender(
        GROUP, 2, wal, transport_factory=lambda address: transport
    )
    sender.add_follower(("in-process", 0), "f0")
    commit_txn(wal, 1)
    assert not sender.flush()
    assert sender.fenced is not None
    assert receiver.ships_fenced == 1
    assert receiver.applied_lsn == 0  # nothing from the stale stream stuck


def test_newer_epoch_is_adopted_by_receiver(tmp_path, wal):
    sender, receiver, _, _ = make_pair(tmp_path, wal)
    sender.epoch = 3
    commit_txn(wal, 1)
    assert sender.flush()
    assert receiver.epoch == 3


def test_full_sync_rewrites_a_diverged_follower(tmp_path, wal):
    sender, receiver, _, link = make_pair(tmp_path, wal)
    # The follower diverged: it holds records the primary never wrote
    # (it was briefly a primary itself behind a partition).
    commit_txn(receiver.wal, 99)
    commit_txn(wal, 1)
    assert sender.full_sync(link)
    assert receiver.applied_lsn == wal.last_lsn
    assert [r.txn_id for r in receiver.wal] == [r.txn_id for r in wal]


def test_catch_up_larger_than_one_frame_ships_in_chunks(tmp_path, wal):
    """Regression: a rejoining follower missing more records than fit
    one wire frame must still catch up (chunked shipping), otherwise
    the link can never ack and the primary's gate closes forever."""
    sender, receiver, transport, link = make_pair(tmp_path, wal)
    txns = 3 * SHIP_CHUNK_RECORDS  # a line each: several chunks' worth
    for txn_id in range(1, txns + 1):
        commit_txn(wal, txn_id)
    assert sender.full_sync(link)
    assert transport.sent >= 3  # genuinely chunked, not one giant frame
    assert receiver.applied_lsn == wal.last_lsn
    assert link.acked_lsn == wal.last_lsn
    assert sender.gate() is None


def test_gate_open_with_no_followers_degraded_single_copy(tmp_path, wal):
    sender = ReplicationSender(GROUP, 0, wal)
    commit_txn(wal, 1)
    assert sender.gate() is None  # documented: weaker, but not refused


def test_gate_refuses_while_blocked_then_recovers(tmp_path, wal):
    sender, receiver, _, _ = make_pair(tmp_path, wal)
    commit_txn(wal, 1)
    sender.blocked = True  # simulated partition: flushes are no-ops
    reason = sender.gate()
    assert reason is not None and "lagging" in reason
    sender.blocked = False
    assert sender.gate() is None  # the gate's retry-flush catches up
    assert receiver.applied_lsn == wal.last_lsn


def test_gate_retries_flush_after_transient_link_failure(tmp_path, wal):
    sender, receiver, transport, _ = make_pair(tmp_path, wal)
    wal.subscribe(sender.observe)
    transport.down = True
    commit_txn(wal, 1)  # the observe-flush fails silently
    assert receiver.applied_lsn == 0
    transport.down = False
    # One dropped ship must not bounce a healthy client: the gate
    # re-flushes before refusing.
    assert sender.gate() is None
    assert receiver.applied_lsn == wal.last_lsn


def test_fenced_fault_prefix_is_stable_wire_contract():
    # The sender latches on this exact prefix; renaming it breaks
    # mixed-version replica groups.
    assert FENCED_FAULT_PREFIX == "repl-fenced:"


# ------------------------------------------------ follower crash mid-batch
#
# A ship is one write of many lines on the follower.  Whatever a crash
# leaves of it — half a line, or nothing at all — must reopen as a
# prefix of the primary's history, and re-shipping the rest must end in
# the primary's file, byte for byte.


def grant_then_release(wal: WriteAheadLog, number: int) -> None:
    """Two transactions shaped like the promise manager's, so the
    history checker has grants and settles to fold."""
    promise_id = f"p{number}"
    for txn_id, available, status, escrow in (
        (2 * number, 8, "active", {"widgets": 2}),
        (2 * number + 1, 10, "released", {}),
    ):
        pool = {"available": available, "allocated": 10 - available}
        promise = {"status": status, "meta": {"resource_pool": {"escrow": escrow}}}
        wal.append(
            LogRecordType.COMMIT,
            txn_id=txn_id,
            value=[
                ["pools", "widgets", pool],
                ["promise_table", promise_id, promise],
            ],
        )


def history_anomalies(path) -> tuple[int, list[str]]:
    """``(events, anomalies)`` of the log at ``path``, reopened."""
    recorder = HistoryRecorder()
    observe = recorder.observer(0)
    log = WriteAheadLog(path)
    for record in log:
        observe(record)
    log.close()
    return len(recorder.events()), audit_history(recorder)


def reship_to_reopened(tmp_path, wal, sender) -> ReplicationReceiver:
    """The follower process restarts over its file; a new link (cursor
    0) re-ships the log and the receiver keeps only what it lacks."""
    sender.remove_follower("f0")
    receiver = make_receiver(tmp_path)
    transport = DirectTransport(receiver)
    sender._transport_factory = lambda address: transport
    sender.add_follower(("in-process", 0), "f0-reborn")
    assert sender.flush()
    receiver.close()
    return receiver


@pytest.mark.crash
def test_follower_torn_mid_batch_reopens_and_catches_up(tmp_path, wal):
    sender, receiver, _, _ = make_pair(tmp_path, wal)
    for number in range(1, 4):
        grant_then_release(wal, number)
    assert sender.flush()  # one batch of 6 lines
    receiver.close()
    follower = tmp_path / "follower.wal"
    primary = wal.path.read_bytes()
    assert follower.read_bytes() == primary

    # Power loss part-way through the batch's single write: the file
    # ends inside line 4.
    lines = primary.splitlines(keepends=True)
    follower.write_bytes(b"".join(lines[:3]) + lines[3][:17])

    reborn = reship_to_reopened(tmp_path, wal, sender)
    assert any("torn tail" in note for note in reborn.wal.recovery_notes)
    assert reborn.ships_applied == len(wal) - 3  # the prefix was kept
    assert follower.read_bytes() == primary
    events, anomalies = history_anomalies(follower)
    assert events == 6 and anomalies == []


@pytest.mark.crash
def test_follower_frozen_disk_loses_the_batch_and_catches_up(tmp_path, wal):
    receiver = ReplicationReceiver(
        GROUP, str(tmp_path / "follower.wal"), fault_scope="follower"
    )
    transport = DirectTransport(receiver)
    sender = ReplicationSender(
        GROUP, 0, wal, transport_factory=lambda address: transport
    )
    sender.add_follower(("in-process", 0), "f0")
    grant_then_release(wal, 1)
    assert sender.flush()
    follower = tmp_path / "follower.wal"
    on_disk = follower.read_bytes()

    # The follower's process dies (scoped): its disk takes nothing more,
    # whatever the unwinding code still "applies" in memory.
    with crashpoints.armed("follower.dies", scope="follower"):
        with pytest.raises(crashpoints.SimulatedCrash):
            crashpoints.crash_point("follower.dies", "follower")
        grant_then_release(wal, 2)
        sender.flush()
        assert follower.read_bytes() == on_disk
    receiver.close()

    reship_to_reopened(tmp_path, wal, sender)
    assert follower.read_bytes() == wal.path.read_bytes()
    events, anomalies = history_anomalies(follower)
    assert events == 4 and anomalies == []


def test_checkpoint_in_the_middle_of_a_batch(tmp_path, wal):
    """The sender never builds one (a checkpoint truncates the log it
    reads, so the snapshot leads its batch), but the format allows it:
    the records before the snapshot are hardened before the swap."""
    logged = []
    wal.subscribe(logged.append)
    commit_txn(wal, 1)
    wal.checkpoint({"t": {"k1": 1}})
    commit_txn(wal, 2)
    batch = "\n".join(record.to_json() for record in logged)

    follower = tmp_path / "follower.wal"
    log = WriteAheadLog(follower, fsync=True)
    fsyncs = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.storage.wal.os.fsync", fsyncs.append)
        assert log.ingest_lines(batch) == 3
    # What precedes the checkpoint is hardened into the old file, then
    # the swap's temp file and the directory holding the rename (as a
    # local checkpoint does), then the rest: three records, four fsyncs.
    assert len(fsyncs) == 4
    assert [r.lsn for r in log] == [r.lsn for r in wal] == [2, 3]
    assert log.replay() == wal.replay()
    log.close()
    assert follower.read_bytes() == wal.path.read_bytes()
    assert not (tmp_path / "follower.wal.tmp").exists()


def test_shipped_checkpoint_replaces_the_followers_file(tmp_path, wal):
    sender, receiver, _, _ = make_pair(tmp_path, wal)
    wal.subscribe(sender.observe)
    commit_txn(wal, 1)
    commit_txn(wal, 2)
    wal.checkpoint({"t": {"k1": 1, "k2": 1}})
    commit_txn(wal, 3)
    assert sender.gate() is None
    assert [r.lsn for r in receiver.wal] == [r.lsn for r in wal]
    receiver.close()
    assert (tmp_path / "follower.wal").read_bytes() == wal.path.read_bytes()


def test_a_batch_costs_one_barrier_and_ingest_is_its_one_record_case(tmp_path):
    log = WriteAheadLog(tmp_path / "follower.wal", fsync=True)
    source = WriteAheadLog()
    for txn_id in range(1, 5):
        commit_txn(source, txn_id)
    records = list(source)
    fsyncs = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.storage.wal.os.fsync", fsyncs.append)
        assert log.ingest(records[0]) is True
        assert log.ingest(records[0]) is False  # at or below last_lsn
        assert len(fsyncs) == 1
        batch = "\n".join(r.to_json() for r in records)
        assert log.ingest_lines(batch) == len(records) - 1
        assert len(fsyncs) == 2  # three lines, one barrier
        assert log.ingest_lines(batch) == 0
        assert len(fsyncs) == 2  # nothing new, nothing hardened
    log.close()
    assert (tmp_path / "follower.wal").read_text() == batch + "\n"


def test_malformed_batch_is_refused_whole(tmp_path, wal):
    receiver = make_receiver(tmp_path)
    commit_txn(wal, 1)
    good = "\n".join(r.to_json() for r in wal)
    with pytest.raises(RecoveryError):
        receiver.wal.ingest_lines(good + "\n{not json")
    assert receiver.applied_lsn == 0  # parsed before anything is applied
    receiver.close()


# ------------------------------------------------------------ the socket
#
# Over a real socket acks are matched to frames by order alone, so an
# ack that went missing must never be read later as the answer to
# another frame.


@pytest.mark.parametrize("lost", ["late", "muted"])
def test_a_lost_ack_drops_the_connection_and_the_next_flush_reconnects(
    tmp_path, wal, lost
):
    receiver = make_receiver(tmp_path)
    losing, answered = threading.Event(), threading.Event()

    def handle(frame: bytes) -> bytes:
        ack = receiver.handle(frame)  # the batch lands either way
        if losing.is_set():
            losing.clear()
            if lost == "muted":
                answered.set()
                raise ConnectionResetError("the answer is lost")
            time.sleep(0.3)  # well past the sender's timeout
            answered.set()
        return ack

    runner = ThreadedServer(PromiseServer())
    runner.start()
    sender = ReplicationSender(GROUP, 0, wal, timeout=0.1)
    try:
        link = sender.add_follower(runner.serve_frames(handle), "f0")
        commit_txn(wal, 1)
        assert sender.flush() and link.acked_lsn == 1

        losing.set()
        commit_txn(wal, 2)
        assert not sender.flush()
        assert answered.wait(5.0)
        assert receiver.applied_lsn == 2 and link.acked_lsn == 1
        assert sender.metrics.value("repl.ship_failures.f0") == 1

        # A reused socket would now read the lost ack ("applied_lsn": 2)
        # as the answer to the next frame and leave the cursor short.
        commit_txn(wal, 3)
        assert sender.flush()
        assert link.acked_lsn == receiver.applied_lsn == wal.last_lsn == 3
    finally:
        sender.close()
        runner.stop()
        receiver.close()


def test_stopping_a_listener_with_a_live_link_logs_no_error(tmp_path, wal, caplog):
    """``stop()`` ends the frame connections the sender still holds open;
    the loop must not report that as an unhandled ``CancelledError``."""
    receiver = make_receiver(tmp_path)
    runner = ThreadedServer(PromiseServer())
    runner.start()
    sender = ReplicationSender(GROUP, 0, wal, timeout=1.0)
    try:
        link = sender.add_follower(
            runner.serve_frames(lambda frame: receiver.handle(frame)), "f0"
        )
        commit_txn(wal, 1)
        assert sender.flush() and link.acked_lsn == receiver.applied_lsn == 1
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            runner.stop()  # the link's connection is still open
    finally:
        sender.close()
        runner.stop()
        receiver.close()
    assert [r for r in caplog.records if r.name == "asyncio"] == []
