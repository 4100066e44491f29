"""The shipping layer's invariant, tested with nothing else running.

    acked to the client ⇒ on at least one follower at that LSN,
    in LSN order, under one epoch

"Acked to the client" is :meth:`ReplicationSender.gate` returning
``None`` — the server sends no reply otherwise.  The sender runs against
in-process transports that hand each ship straight to a
:class:`ReplicationReceiver`, so links can be failed, healed, delayed
and fenced deterministically.  Whatever mechanism sits under ``flush``
(cursor, batch format, fan-out) may be replaced; these must keep
passing.  The same module pins the two costs the mechanism is there
for: a flush reads the suffix, not the log, and followers are shipped to
at the same time.
"""

from __future__ import annotations

import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.errors import TransportFailure
from repro.replication.shipping import ReplicationReceiver, ReplicationSender
from repro.storage.wal import LogRecordType, WriteAheadLog

pytestmark = pytest.mark.failover

GROUP = "shop-g0"
EPOCH = 3


class Link:
    """An in-process transport to one receiver, with a switch and a delay."""

    def __init__(self, receiver: ReplicationReceiver, delay: float = 0.0):
        self.receiver = receiver
        self.down = False
        self.delay = delay
        self.ids: list[str] = []

    def send(self, message):
        self.ids.append(message.message_id)
        if self.delay:
            time.sleep(self.delay)
        if self.down:
            raise TransportFailure("link down")
        return self.receiver.handle(message)

    def close(self) -> None:
        pass


class Group:
    """A primary log, a sender and ``followers`` receivers on files."""

    def __init__(self, home: Path, followers: int = 2, wal=None, delay=0.0):
        self.wal = wal if wal is not None else WriteAheadLog()
        self.receivers = [
            ReplicationReceiver(GROUP, str(home / f"f{i}.wal"), epoch=EPOCH)
            for i in range(followers)
        ]
        self.links = [Link(receiver, delay) for receiver in self.receivers]
        by_address = {("f", i): link for i, link in enumerate(self.links)}
        self.sender = ReplicationSender(
            GROUP, EPOCH, self.wal, transport_factory=by_address.__getitem__
        )
        self.sender_links = [
            self.sender.add_follower(("f", i), f"f{i}")
            for i in range(followers)
        ]
        self.wal.subscribe(self.sender.observe)
        self._txn = 0

    def commit(self) -> None:
        self._txn += 1
        txn = self._txn
        self.wal.append(LogRecordType.BEGIN, txn_id=txn)
        self.wal.append(
            LogRecordType.PUT, txn_id=txn, table="t", key=f"k{txn}", value=txn
        )
        self.wal.append(LogRecordType.COMMIT, txn_id=txn)

    def close(self) -> None:
        self.sender.close()
        for receiver in self.receivers:
            receiver.close()


@pytest.fixture()
def home(tmp_path):
    return tmp_path


# ------------------------------------------------------------ the invariant

OPS = st.one_of(
    st.just(("commit",)),
    st.just(("commit",)),
    st.just(("checkpoint",)),
    st.tuples(st.just("fail"), st.integers(0, 1)),
    st.tuples(st.just("heal"), st.integers(0, 1)),
    st.tuples(st.just("block"), st.booleans()),
    st.tuples(st.just("fence"), st.integers(0, 1)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(OPS, min_size=1, max_size=25))
def test_gate_open_means_a_follower_holds_the_log(ops):
    with tempfile.TemporaryDirectory() as home:
        group = Group(Path(home))
        try:
            _run_script(group, ops)
        finally:
            group.close()


def _run_script(group: Group, ops) -> None:
    wal, sender = group.wal, group.sender
    #: follower → the primary's last LSN when it moved to a newer epoch.
    fenced_at: dict[int, int] = {}
    for op in ops:
        if op[0] == "commit":
            group.commit()
        elif op[0] == "checkpoint":
            wal.checkpoint(wal.replay())
        elif op[0] == "fail":
            group.links[op[1]].down = True
        elif op[0] == "heal":
            group.links[op[1]].down = False
        elif op[0] == "block":
            sender.blocked = op[1]
        elif op[0] == "fence" and op[1] not in fenced_at:
            group.receivers[op[1]].epoch = EPOCH + 1
            fenced_at[op[1]] = wal.last_lsn

        verdict = sender.gate()
        primary = list(wal)
        for index, receiver in enumerate(group.receivers):
            held = list(receiver.wal)
            lsns = [record.lsn for record in held]
            assert lsns == sorted(set(lsns)), "follower log out of LSN order"
            # What a follower holds is the primary's history, record
            # for record, wherever a checkpoint cut either log.
            shared = {r.lsn: r for r in primary}
            assert all(shared.get(r.lsn, r) == r for r in held)
            if index in fenced_at:
                # Nothing of the stale stream stuck after the fence.
                assert receiver.applied_lsn <= fenced_at[index]
        if sender.fenced is not None:
            assert verdict is not None, "a fenced sender opened its gate"
        if verdict is None:
            holders = [
                index
                for index, receiver in enumerate(group.receivers)
                if receiver.applied_lsn == wal.last_lsn
                and receiver.wal.replay() == wal.replay()
                and fenced_at.get(index, wal.last_lsn) == wal.last_lsn
            ]
            assert holders, (
                f"gate open at lsn {wal.last_lsn} but no follower holds it "
                f"under epoch {EPOCH}"
            )


def test_gate_open_with_one_dead_and_one_live_follower(home):
    group = Group(home)
    group.links[0].down = True
    group.commit()
    assert group.sender.gate() is None
    assert group.receivers[1].applied_lsn == group.wal.last_lsn
    assert group.receivers[0].applied_lsn == 0
    dead, live = group.sender_links
    assert dead.ship_failures >= 1 and live.ship_failures == 0
    status = group.sender.status()
    assert status["lag"] == {"f0": 3, "f1": 0}
    assert group.sender.metrics.value("repl.lag_lsn.f0") == 3
    assert group.sender.metrics.value("repl.lag_lsn.f1") == 0
    assert group.sender.metrics.value("repl.ship_lag_lsn") == 0
    group.close()


def test_one_follower_fencing_closes_the_gate_though_the_other_acks(home):
    group = Group(home)
    group.commit()
    assert group.sender.gate() is None
    group.receivers[0].promote(EPOCH + 1)
    # Withhold the observe-time ships so the gate's own flush is the one
    # that meets the fence: it must not open on the other's ack.
    group.sender.blocked = True
    group.commit()
    group.sender.blocked = False
    verdict = group.sender.gate()
    assert group.receivers[1].applied_lsn == group.wal.last_lsn
    assert group.sender.fenced is not None
    assert verdict is not None
    assert "deposed" in group.sender.gate()
    group.close()


# ------------------------------------------------- the cost: suffix, not log


class NeverScanned(WriteAheadLog):
    """A log that may be bisected and sliced but not walked."""

    def __iter__(self):
        raise AssertionError("the whole log was iterated")


def test_flush_reads_the_suffix_not_the_log(home):
    group = Group(home, wal=NeverScanned())
    sender = group.sender
    # Build the backlog without shipping it commit by commit, then let
    # one flush catch both followers up (chunked, by cursor).
    sender.blocked = True
    while len(group.wal) < 5000:
        group.commit()
    sender.blocked = False
    assert sender.flush()
    assert [r.applied_lsn for r in group.receivers] == [group.wal.last_lsn] * 2

    read: list[int] = []
    since = group.wal.since

    def counted(lsn: int):
        suffix = since(lsn)
        read.append(len(suffix))
        return suffix

    group.wal.since = counted
    shipped, ships = sender.records_shipped, sender.ships
    group.commit()
    assert sender.gate() is None
    # Exactly that transaction's three records, once per link, in one
    # ship each; and nothing longer was ever read from the log.
    assert sender.records_shipped - shipped == 3 * 2
    assert sender.ships - ships == 2
    assert read and max(read) == 3
    assert [r.applied_lsn for r in group.receivers] == [group.wal.last_lsn] * 2
    group.close()


def test_since_is_the_suffix_across_a_checkpoint():
    wal = WriteAheadLog()
    for txn in range(1, 4):
        wal.append(LogRecordType.BEGIN, txn_id=txn)
        wal.append(LogRecordType.COMMIT, txn_id=txn)
    assert [r.lsn for r in wal.since(4)] == [5, 6]
    assert wal.since(6) == [] and wal.since(99) == []
    assert [r.lsn for r in wal.since(0)] == [1, 2, 3, 4, 5, 6]
    wal.checkpoint({})
    wal.append(LogRecordType.BEGIN, txn_id=9)
    # A cursor the truncation passed gets everything the log still
    # holds, snapshot first; one past it gets only what follows.
    for cursor in (0, 4, 6):
        assert [r.lsn for r in wal.since(cursor)] == [7, 8]
    assert wal.since(4)[0].record_type is LogRecordType.CHECKPOINT
    assert [r.lsn for r in wal.since(7)] == [8]


# ---------------------------------------------- the cost: followers overlap


def test_followers_are_shipped_to_at_the_same_time(home):
    group = Group(home, delay=0.05)
    group.sender.blocked = True
    group.commit()
    group.sender.blocked = False
    started = time.perf_counter()
    assert group.sender.flush()
    elapsed = time.perf_counter() - started
    assert elapsed < 0.09, f"two 50 ms followers took {elapsed * 1e3:.0f} ms"
    assert [r.applied_lsn for r in group.receivers] == [group.wal.last_lsn] * 2
    group.close()


def test_concurrent_ships_never_share_a_message_id(home):
    group = Group(home, followers=4)
    for _ in range(50):
        group.commit()
    ids = [message_id for link in group.links for message_id in link.ids]
    assert len(ids) == 50 * 4 and len(set(ids)) == len(ids)
    group.close()


def test_close_stops_the_fan_out_threads(home):
    before = threading.active_count()
    group = Group(home, followers=3)
    group.commit()
    assert threading.active_count() > before  # the pool was really used
    group.close()
    assert threading.active_count() == before
    assert group.sender.followers == []


def test_since_never_waits_for_the_log_mutex():
    """An appending worker holds the log mutex while its observer (the
    sender's flush) waits for the sender lock; a gate-path flush holds
    the sender lock while it reads the suffix.  If that read took the
    mutex the two would deadlock (seen with ``workers=4``)."""
    wal = WriteAheadLog()
    wal.append(LogRecordType.BEGIN, txn_id=1)
    inside, release = threading.Event(), threading.Event()
    wal.subscribe(lambda record: (inside.set(), release.wait(5.0)))
    appender = threading.Thread(
        target=wal.append, args=(LogRecordType.COMMIT,), kwargs={"txn_id": 1}
    )
    appender.start()
    assert inside.wait(5.0)  # the appender sits in its observer, mutex held
    read: list[int] = []
    reader = threading.Thread(
        target=lambda: read.extend(r.lsn for r in wal.since(0))
    )
    reader.start()
    reader.join(1.0)
    blocked = reader.is_alive()
    release.set()
    appender.join()
    reader.join()
    assert not blocked and read == [1, 2]
