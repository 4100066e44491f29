"""A log written by the two-journal build still opens.

``legacy_two_journal.wal`` was written by the commit before the server
stopped journalling: every request is followed by a second transaction
holding the whole reply envelope (``net_reply_journal <message id>``),
and both journals rewrite a ``__meta__`` row per record.  Its history —
over TCP, one ``widgets`` pool of 50 — is::

    legacy:m1  grant 5            -> shop:prm-1
    legacy:m2  grant 3            -> shop:prm-2
    legacy:m3  grant 1000         -> rejected
    legacy:m4  sell 2 under prm-2, releasing it
    legacy:m5  release prm-1
    legacy:m6  grant 4            -> shop:prm-4 (still live)

The current build writes neither the envelope table nor a ``__meta__``
row; it has to *read* both: recovery counts reply rows, not the count
row, and a pre-upgrade message id is answered with the envelope it was
answered with — an id drawn from a counter, which no re-rendering would
reproduce — out of the dedup cache the old table is read into.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cluster import host_deployment
from repro.core.parser import P
from repro.core.promise import PromiseRequest
from repro.faults.history import HistoryRecorder, audit_history
from repro.net import NetworkTransport, ThreadedServer
from repro.net.server import NET_REPLY_JOURNAL_TABLE
from repro.protocol.messages import Message
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService

FIXTURE = Path(__file__).with_name("legacy_two_journal.wal")

#: The manager's dedup keys the fixture journalled, oldest first.
LEGACY_KEYS = [
    "legacy:r1",
    "legacy:r2",
    "legacy:r3",
    "legacy:m4:action",
    "release:shop:prm-1",
    "legacy:r6",
]


def fixture_rows() -> list[dict]:
    return [json.loads(line) for line in FIXTURE.read_text().splitlines()]


def legacy_envelope(message_id: str) -> str:
    for row in fixture_rows():
        if row["table"] == NET_REPLY_JOURNAL_TABLE and row["key"] == message_id:
            return row["value"]["payload"]
    raise KeyError(message_id)


def open_shop(wal: Path) -> Deployment:
    shop = Deployment(name="shop", wal_path=str(wal))
    shop.add_service(MerchantService())
    shop.use_pool_strategy("widgets")
    shop.recover()
    return shop


@pytest.fixture()
def wal(tmp_path) -> Path:
    copy = tmp_path / "shop.wal"
    shutil.copy(FIXTURE, copy)
    return copy


def promise_message(message_id: str, request_id: str, amount: int) -> Message:
    return Message(
        message_id=message_id,
        sender="alice",
        recipient="shop",
        promise_requests=(
            PromiseRequest(
                request_id,
                (P(f"quantity('widgets') >= {amount}"),),
                1000,
                client_id="alice",
            ),
        ),
    )


def test_the_fixture_is_a_two_journal_log():
    rows = fixture_rows()
    tables = {row["table"] for row in rows if row["type"] == "put"}
    assert NET_REPLY_JOURNAL_TABLE in tables
    metas = [row for row in rows if row["key"] == "__meta__"]
    assert {row["table"] for row in metas} == {
        "reply_journal", NET_REPLY_JOURNAL_TABLE,
    }


def test_recovery_is_doctor_clean(wal):
    shop = open_shop(wal)
    report = shop.recovery_report
    assert report.healthy and not report.repaired
    assert (report.promises_total, report.promises_active) == (3, 1)
    assert report.journal_entries == len(LEGACY_KEYS)
    with shop.store.begin() as txn:
        pool = shop.resources.pool(txn, "widgets")
        assert (pool.available, pool.allocated) == (41, 4)
        assert sorted(shop.manager.journal.keys(txn)) == sorted(LEGACY_KEYS)
        assert [key for key, __ in shop.manager.journal.entries(txn)] == LEGACY_KEYS
    shop.close()


def test_journal_entries_do_not_come_from_the_meta_row(wal):
    lines = wal.read_text().splitlines()
    for number, line in enumerate(lines):
        row = json.loads(line)
        if row["key"] == "__meta__" and row["table"] == "reply_journal":
            row["value"] = {"count": 99, "next_seq": 2}  # a lie
            lines[number] = json.dumps(row, sort_keys=True)
    wal.write_text("\n".join(lines) + "\n")

    shop = open_shop(wal)
    assert shop.recovery_report.journal_entries == len(LEGACY_KEYS)
    # The next record continues the rows' own sequence, not the row's.
    shop.manager.request_promise(
        promise_message("new:m1", "new:r1", 1).promise_requests[0],
        dedup_key="new:r1",
    )
    with shop.store.begin() as txn:
        assert txn.get("reply_journal", "new:r1")["seq"] == len(LEGACY_KEYS) + 1
        assert shop.manager.journal.count(txn) == len(LEGACY_KEYS) + 1
    shop.close()


def test_a_pre_upgrade_message_gets_its_original_envelope(wal):
    shop = open_shop(wal)
    handled: list[str] = []
    handle = shop.endpoint.handle

    def counting(message: Message) -> Message:
        handled.append(message.message_id)
        return handle(message)

    shop.endpoint.handle = counting  # type: ignore[method-assign]
    server = host_deployment(shop, "shop")
    upgraded_from = shop.store.wal.last_lsn
    with ThreadedServer(server) as address:
        with NetworkTransport(address) as transport:
            old = transport.send(promise_message("legacy:m1", "legacy:r1", 5))
            assert transport.wire_log[-1] == legacy_envelope("legacy:m1")
            new = transport.send(promise_message("new:m1", "new:r1", 1))
    # The old build's reply id came from a counter: only the stored
    # envelope can reproduce it, and the handler was not asked to.
    assert old.message_id == "shop:msg-1"
    assert old.promise_responses[0].promise_id == "shop:prm-1"
    assert handled == ["new:m1"]
    assert server.stats.duplicates_served == 1
    assert server.metrics.value("manager.journal.replays") == 0
    # The new request is written the new way, after the old ones' ids.
    assert new.message_id == "shop:re:new:m1"
    assert new.promise_responses[0].promise_id == "shop:prm-5"
    written = [r for r in shop.store.wal if r.lsn > upgraded_from]
    assert written, "the new grant logged nothing"
    assert not [
        r for r in written
        if r.table == NET_REPLY_JOURNAL_TABLE or r.key == "__meta__"
    ]
    shop.close()


def test_audit_history_accepts_both_log_shapes(wal):
    shop = open_shop(wal)
    recorder = HistoryRecorder()
    observe = recorder.observer(0)
    for record in shop.store.wal:  # the legacy shape, as recovered
        observe(record)
    recorder.attach(0, shop.store.wal)  # the new shape, as it is written
    server = host_deployment(shop, "shop")
    with ThreadedServer(server) as address:
        with NetworkTransport(address) as transport:
            granted = transport.send(promise_message("new:m1", "new:r1", 2))
            transport.send(promise_message("legacy:m6", "legacy:r6", 4))
    recorder.detach_all()
    assert granted.promise_responses[0].accepted
    assert audit_history(recorder) == []
    grants = [e.promise_id for e in recorder.events(0) if e.kind == "grant"]
    assert grants == ["shop:prm-1", "shop:prm-2", "shop:prm-4", "shop:prm-5"]
    shop.close()
