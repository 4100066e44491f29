"""The shipping layer's invariant, tested with nothing else running.

    acked to the client ⇒ on at least one follower at that LSN,
    in LSN order, under one epoch

"Acked to the client" is :meth:`ReplicationSender.gate` returning
``None`` — the server sends no reply otherwise.  The sender runs against
in-process transports that hand each ship straight to a
:class:`ReplicationReceiver`, so links can be failed, healed, delayed
and fenced deterministically.  Whatever mechanism sits under ``flush``
(cursor, batch format, ship points, fan-out) may be replaced; these must
keep passing.  The same module pins the costs the mechanism is there
for: a flush reads the suffix, not the log; followers are shipped to at
the same time; a request costs one ship per follower.  The last part
runs real fleets, where the other half of the rule — no reply leaves a
primary whose gate is closed (``test_closed_gate.py``) — is what makes
shipping once per request sound.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import provision_products
from repro.core.parser import P
from repro.faults.history import HistoryRecorder
from repro.protocol.client import PromiseClient
from repro.protocol.errors import RequestTimeout, TransportFailure
from repro.protocol.retry import RetryPolicy
from repro.replication import ReplicatedFleet
from repro.replication.shipping import ReplicationReceiver, ReplicationSender
from repro.storage.wal import LogRecordType, WriteAheadLog

pytestmark = pytest.mark.failover

GROUP = "shop-g0"
EPOCH = 3


class Link:
    """An in-process transport to one receiver, with two switches and a
    delay: ``down`` refuses the frame, ``mute`` delivers it and loses
    the answer, and an answer is ``delay`` seconds away from the moment
    the frame was put on the wire — not from when it is waited for.
    Every frame is logged, and so is its link on ``wire``, which the
    links of one group share: the order frames went out in."""

    def __init__(
        self, receiver: ReplicationReceiver, delay: float = 0.0, wire=None
    ):
        self.receiver = receiver
        self.down = False
        self.mute = False
        self.delay = delay
        self.frames: list[bytes] = []
        self.wire = wire if wire is not None else []

    def begin(self, frame: bytes):
        self.frames.append(frame)
        self.wire.append(self)
        if self.down:
            raise TransportFailure("link down")
        due = time.perf_counter() + self.delay

        def finish():
            time.sleep(max(0.0, due - time.perf_counter()))
            ack = self.receiver.handle(frame)
            if self.mute:
                raise RequestTimeout("no answer")
            return ack

        return finish

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
        self.wire: list[Link] = []
        self.links = [
            Link(receiver, delay, self.wire) for receiver in self.receivers
        ]
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
        self.wal.append(
            LogRecordType.COMMIT, txn_id=txn, value=[["t", f"k{txn}", txn]]
        )

    def close(self) -> None:
        self.sender.close()
        for receiver in self.receivers:
            receiver.close()


@pytest.fixture()
def home(tmp_path):
    return tmp_path


# ------------------------------------------------------------ the invariant

FAILURES = ("down", "mute")

OPS = st.one_of(
    st.just(("commit",)),
    st.tuples(st.just("request"), st.integers(1, 3)),
    st.just(("checkpoint",)),
    st.tuples(st.just("fail"), st.integers(0, 1), st.sampled_from(FAILURES)),
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
        elif op[0] == "request":
            # What a server does: the request's transactions inside the
            # scope (nothing shipped yet), then the gate below.
            ships = sender.ships
            with wal.request_scope():
                for _ in range(op[1]):
                    group.commit()
            assert sender.ships == ships
        elif op[0] == "checkpoint":
            wal.checkpoint(wal.replay())
        elif op[0] == "fail":
            setattr(group.links[op[1]], op[2], True)
        elif op[0] == "heal":
            for failure in FAILURES:
                setattr(group.links[op[1]], failure, False)
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
    metrics = group.sender.metrics
    assert metrics.value("repl.ship_failures.f0") >= 1
    assert metrics.value("repl.ship_failures.f1") == 0
    status = group.sender.status()
    assert status["lag"] == {"f0": 1, "f1": 0}
    assert group.sender.metrics.value("repl.lag_lsn.f0") == 1
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
    # Exactly that transaction's one line, once per link, in one ship
    # each; and nothing longer was ever read from the log.
    assert sender.records_shipped - shipped == 1 * 2
    assert sender.ships - ships == 2
    assert read and max(read) == 1
    assert [r.applied_lsn for r in group.receivers] == [group.wal.last_lsn] * 2
    group.close()


def test_since_is_the_suffix_across_a_checkpoint():
    wal = WriteAheadLog()
    for txn in range(1, 7):
        wal.append(LogRecordType.COMMIT, txn_id=txn, value=[["t", "k", txn]])
    assert [r.lsn for r in wal.since(4)] == [5, 6]
    assert wal.since(6) == [] and wal.since(99) == []
    assert [r.lsn for r in wal.since(0)] == [1, 2, 3, 4, 5, 6]
    wal.checkpoint({})
    wal.append(LogRecordType.COMMIT, txn_id=9, value=[["t", "k", 9]])
    # A cursor the truncation passed gets everything the log still
    # holds, snapshot first; one past it gets only what follows.
    for cursor in (0, 4, 6):
        assert [r.lsn for r in wal.since(cursor)] == [7, 8]
    assert wal.since(4)[0].record_type is LogRecordType.CHECKPOINT
    assert [r.lsn for r in wal.since(7)] == [8]


# ---------------------------------------------- the cost: followers overlap


def test_followers_are_shipped_to_at_the_same_time(home):
    """…by the flushing thread alone: every message is on its wire
    before the first ack is waited for."""
    group = Group(home, delay=0.05)
    group.sender.blocked = True
    group.commit()
    group.sender.blocked = False
    threads = threading.active_count()
    started = time.perf_counter()
    assert group.sender.flush()
    elapsed = time.perf_counter() - started
    assert elapsed < 0.09, f"two 50 ms followers took {elapsed * 1e3:.0f} ms"
    assert threading.active_count() == threads
    assert [r.applied_lsn for r in group.receivers] == [group.wal.last_lsn] * 2
    group.close()


def test_a_backlog_longer_than_a_frame_still_overlaps_its_first_chunk(home):
    group = Group(home)
    group.sender.blocked = True
    for _ in range(1200):
        group.commit()  # 1200 lines: three chunks a link
    group.sender.blocked = False
    assert group.sender.flush()
    # Both first chunks were on the wire before either link's second.
    assert {id(link) for link in group.wire[:2]} == {
        id(link) for link in group.links
    }
    assert [len(link.frames) for link in group.links] == [3, 3]
    assert [r.applied_lsn for r in group.receivers] == [group.wal.last_lsn] * 2
    group.close()


def test_a_sender_restarted_at_its_old_epoch_is_answered_from_the_log(home):
    """A primary restarted at its old epoch ships what its last life
    shipped, under the same epoch and from the same cursors.  Every ack
    it gets is computed from the follower's log as it is then — never
    an answer replayed from the stream it replaces."""
    group = Group(home, wal=WriteAheadLog(home / "primary.wal"))
    for _ in range(3):
        group.commit()
    first_frames = [link.frames[0] for link in group.links]
    group.sender.close()
    group.wal.close()

    wal = WriteAheadLog(home / "primary.wal")  # the restart
    by_address = {("f", i): link for i, link in enumerate(group.links)}
    sender = ReplicationSender(
        GROUP, EPOCH, wal, transport_factory=by_address.__getitem__
    )
    links = [sender.add_follower(("f", i), f"f{i}") for i in range(2)]
    wal.append(LogRecordType.COMMIT, txn_id=4, value=[["t", "k4", 4]])
    assert sender.flush()
    assert [link.acked_lsn for link in links] == [4, 4]
    assert [receiver.applied_lsn for receiver in group.receivers] == [4, 4]
    # The last life's first frame again, byte for byte: answered with
    # what the log holds now, not with what it held then.
    for frame, receiver in zip(first_frames, group.receivers):
        assert json.loads(frame.partition(b"\n")[0])["from_lsn"] == 0
        assert json.loads(receiver.handle(frame)) == {"applied_lsn": 4}
    sender.close()
    wal.close()
    group.close()


# ------------------------------------------------------ no gap, ever


def test_a_gap_is_refused_and_the_next_flush_fills_it(home):
    """A cursor ahead of its follower would ship a batch that starts
    past the follower's end.  The receiver writes nothing and acks its
    true end; the sender moves the cursor back, and the next flush
    catches the follower up to the primary's file, byte for byte."""
    group = Group(home, followers=1, wal=WriteAheadLog(home / "primary.wal"))
    sender, link = group.sender, group.sender_links[0]
    receiver = group.receivers[0]
    group.commit()
    sender.blocked = True
    group.commit()
    group.commit()
    sender.blocked = False
    follower = home / "f0.wal"
    on_disk = follower.read_bytes()
    link.acked_lsn = 2  # the follower holds lsn 1 only

    reason = sender.gate()
    assert reason is not None and "lagging" in reason
    assert follower.read_bytes() == on_disk
    assert receiver.applied_lsn == 1 and link.acked_lsn == 1
    assert receiver.metrics.value("repl.gaps_refused") == 1

    assert sender.flush()
    assert link.acked_lsn == receiver.applied_lsn == group.wal.last_lsn == 3
    group.close()
    group.wal.close()
    assert follower.read_bytes() == (home / "primary.wal").read_bytes()


# ------------------------------------------- the cost: one ship per request


def test_a_request_scope_ships_once_at_the_gate(home):
    group = Group(home)
    sender = group.sender
    with group.wal.request_scope():
        group.commit()  # the handler's transaction
        group.commit()  # the reply-journal row
        assert sender.ships == 0
        assert [r.applied_lsn for r in group.receivers] == [0, 0]
    assert sender.gate() is None
    assert sender.ships == 2 and sender.records_shipped == 2 * 2
    status = sender.status()
    assert status["flushes"] == 1 and status["ships"] == 2
    assert status["records_per_ship"] == 2
    assert sender.metrics.snapshot()["histograms"]["repl.ship.records"][
        "count"
    ] == 2
    # Outside a scope nothing gates the commit, so it ships itself; so
    # do a checkpoint and a table creation wherever they are logged.
    group.commit()
    assert sender.ships == 4
    with group.wal.request_scope():
        group.wal.checkpoint(group.wal.replay())
        assert sender.ships == 6
        group.wal.append(LogRecordType.CREATE_TABLE, table="u")
        assert sender.ships == 8
    # The scope is the thread's own: another thread's commit meanwhile
    # is nobody's request and ships at its boundary.
    with group.wal.request_scope():
        other = threading.Thread(target=group.commit)
        other.start()
        other.join(5.0)
        assert not other.is_alive() and sender.ships == 10
    group.close()


PRODUCTS = 4


def _fleet(home, shards: int, **options) -> ReplicatedFleet:
    return ReplicatedFleet(
        shards,
        replicas=2,
        provision=provision_products(PRODUCTS, 1000),
        wal_dir=str(home),
        **options,
    )


def _copies(fleet: ReplicatedFleet, index: int = 0) -> list[bytes]:
    """The group's log files: the primary's, then each follower's."""
    group = fleet.group(index)
    return [
        Path(replica.wal_path).read_bytes()
        for replica in [group.primary] + group.followers
    ]


def test_each_gated_request_costs_one_ship_per_follower(home):
    with _fleet(home, 1) as fleet:
        gateway = fleet.gateway(timeout=2.0, retry=RetryPolicy.none())
        client = PromiseClient("ships", gateway, retry=RetryPolicy.none())
        metrics = fleet.shard(0).server.metrics
        ships, requests = metrics.value("repl.ships"), 0
        for number in range(6):
            product = f"product-{number % PRODUCTS}"
            # One in three is refused: its abort and its journal row
            # are a request's two transactions like any other's.
            wanted = 5000 if number % 3 == 2 else 1
            response = client.request_promise(
                "shop", [P(f"quantity('{product}') >= {wanted}")], 60
            )
            requests += 1
            primary, *followers = _copies(fleet)
            assert followers == [primary] * 2
            if response.accepted:
                client.release("shop", response.promise_id)
                requests += 1
                primary, *followers = _copies(fleet)
                assert followers == [primary] * 2
        assert metrics.value("repl.ships") - ships == 2 * requests
        assert metrics.value("repl.flushes") >= requests
        gateway.close()


def test_work_nobody_gates_is_on_the_followers_when_the_call_returns(home):
    """A direct grant and release, ``vacuum()``, a seeding write: no
    request, so no gate follows — each must ship at its own boundary.
    A read transaction logs nothing, so it has nothing to ship."""
    with _fleet(home, 1) as fleet:
        deployment = fleet.shard(0).deployment
        wal = deployment.store.wal
        followers = fleet.group(0).followers

        def held() -> list[int]:
            return [f.receiver.applied_lsn for f in followers]

        before = wal.last_lsn
        response = deployment.manager.request_promise_for(
            [P("quantity('product-0') >= 1")], 50
        )
        assert wal.last_lsn > before and held() == [wal.last_lsn] * 2
        before = wal.last_lsn
        deployment.manager.release(response.promise_id)
        assert wal.last_lsn > before and held() == [wal.last_lsn] * 2
        before = wal.last_lsn
        assert deployment.manager.vacuum() == 1
        assert wal.last_lsn == before + 1 and held() == [wal.last_lsn] * 2
        before = wal.last_lsn
        with deployment.store.begin() as txn:
            deployment.resources.pool(txn, "product-0")
        assert wal.last_lsn == before and held() == [wal.last_lsn] * 2
        before = wal.last_lsn
        with deployment.seed() as txn:
            deployment.resources.add_stock(txn, "product-0", 1)
        assert wal.last_lsn > before and held() == [wal.last_lsn] * 2
        primary, *copies = _copies(fleet)
        assert copies == [primary] * 2


def test_every_follower_file_is_its_primarys_byte_for_byte(home):
    """Grants, releases, a cross-shard pair and a vacuum on each shard:
    every follower's log file ends equal to its primary's."""
    products = [f"product-{n}" for n in range(12)]
    fleet = ReplicatedFleet(
        2,
        replicas=2,
        provision=provision_products(len(products), 1000),
        wal_dir=str(home),
    )
    with fleet:
        first = products[0]
        other = next(
            product for product in products
            if fleet.ring.shard_of(product) != fleet.ring.shard_of(first)
        )
        gateway = fleet.gateway(timeout=2.0, retry=RetryPolicy.none())
        client = PromiseClient("copies", gateway, retry=RetryPolicy.none())
        for product in (first, other):
            response = client.request_promise(
                "shop", [P(f"quantity('{product}') >= 1")], 60
            )
            assert response.accepted
            client.release("shop", response.promise_id)
        pair = client.request_promise(
            "shop",
            [P(f"quantity('{first}') >= 2"), P(f"quantity('{other}') >= 2")],
            60,
        )
        assert pair.accepted and pair.promise_id.startswith("cluster/")
        client.release("shop", pair.promise_id)
        gateway.close()
        vacuumed = [
            fleet.shard(index).deployment.manager.vacuum() for index in range(2)
        ]
        assert all(count > 0 for count in vacuumed)
        for index in range(2):
            primary, *copies = _copies(fleet, index)
            assert copies == [primary] * 2


@pytest.mark.slow
def test_parallel_dispatch_batches_ships_and_stays_clean(home):
    """Workers, two followers, eight clients: the gate's flush runs
    outside the log and store mutexes and carries whatever the other
    workers committed meanwhile."""
    history = HistoryRecorder()
    fleet = _fleet(home, 2, workers=4, history=history)
    requests = [0] * 8
    errors: list[BaseException] = []
    with fleet:
        gateway = fleet.gateway(timeout=5.0, retry=RetryPolicy.none())
        stop = time.monotonic() + 5.0

        def run(number: int) -> None:
            client = PromiseClient(
                f"load-{number}", gateway, retry=RetryPolicy.none()
            )
            product = f"product-{number % PRODUCTS}"
            try:
                while time.monotonic() < stop:
                    response = client.request_promise(
                        "shop", [P(f"quantity('{product}') >= 1")], 60
                    )
                    assert response.accepted
                    client.release("shop", response.promise_id)
                    requests[number] += 2
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(number,)) for number in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not any(thread.is_alive() for thread in threads), "deadlock"
        assert errors == []
        gateway.close()
        ships = sum(
            fleet.shard(index).server.metrics.value("repl.ships")
            for index in range(2)
        )
        assert min(requests) > 0 and ships < sum(requests) * 2
        assert all(count == 0 for count in fleet.live_promises().values())
        assert all(not findings for findings in fleet.audit().values())
        for index in range(2):
            primary, *copies = _copies(fleet, index)
            assert copies == [primary] * 2
    history.detach_all()
    assert history.check() == []


def test_since_never_waits_for_the_log_mutex():
    """An appending worker holds the log mutex while its observer (the
    sender's flush) waits for the sender lock; a gate-path flush holds
    the sender lock while it reads the suffix.  If that read took the
    mutex the two would deadlock (seen with ``workers=4``)."""
    wal = WriteAheadLog()
    wal.append(LogRecordType.COMMIT, txn_id=1, value=[["t", "k", 1]])
    inside, release = threading.Event(), threading.Event()
    wal.subscribe(lambda record: (inside.set(), release.wait(5.0)))
    appender = threading.Thread(
        target=wal.append,
        args=(LogRecordType.COMMIT,),
        kwargs={"txn_id": 2, "value": [["t", "k", 2]]},
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
