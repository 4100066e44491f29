"""One journal, one transaction per request — the invariant, not the code.

    *A reply is durable iff its effect committed, in the same COMMIT;
    the reply to a journalled id never changes.*

The server logs nothing of its own: what a request writes over TCP is
what the same message writes on an in-process deployment, line for
line and row for row.  Because a request is then one COMMIT line,
"crash between any two of its records" is a short list — before the
line, half-way through it, after it — and the sweep below reopens the
log at each, redelivers the same bytes and checks that the effect
happened exactly once.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import _render_metrics
from repro.cluster import host_deployment
from repro.core.environment import Environment
from repro.core.parser import P
from repro.core.promise import PromiseRequest
from repro.faults.history import HistoryRecorder, audit_history
from repro.net import NetworkTransport, ThreadedServer
from repro.net.server import METRICS_ENDPOINT, NET_REPLY_JOURNAL_TABLE
from repro.protocol.messages import ActionPayload, Message
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService
from repro.storage.wal import committed

pytestmark = pytest.mark.crash

STOCK = 50


def build_shop(wal: Path) -> Deployment:
    shop = Deployment(name="shop", wal_path=str(wal))
    shop.add_service(MerchantService())
    shop.use_pool_strategy("widgets")
    if shop.recovered:
        shop.recover()
    else:
        with shop.seed() as txn:
            shop.resources.create_pool(txn, "widgets", STOCK)
    return shop


def grant(message_id: str, amount: int = 5, duration: int = 1000) -> Message:
    return Message(
        message_id=message_id,
        sender="alice",
        recipient="shop",
        promise_requests=(
            PromiseRequest(
                f"{message_id}:req",
                (P(f"quantity('widgets') >= {amount}"),),
                duration,
                client_id="alice",
            ),
        ),
    )


def release(message_id: str, promise_id: str) -> Message:
    return Message(
        message_id=message_id,
        sender="alice",
        recipient="shop",
        environment=Environment.of(promise_id, release=[promise_id]),
    )


def sell(message_id: str, promise_id: str, quantity: int = 2) -> Message:
    """Sell under ``promise_id``, releasing it with the sale (§6)."""
    return Message(
        message_id=message_id,
        sender="alice",
        recipient="shop",
        action=ActionPayload(
            "merchant", "sell", {"product": "widgets", "quantity": quantity}
        ),
        environment=Environment.of(promise_id, release=[promise_id]),
    )


def state(shop: Deployment) -> tuple[int, int, list[str]]:
    """``(available, allocated, live promise ids)``: every effect."""
    with shop.store.begin() as txn:
        pool = shop.resources.pool(txn, "widgets")
    live = sorted(p.promise_id for p in shop.manager.active_promises())
    return pool.available, pool.allocated, live


class Wire:
    """A shop behind a real server; ``send`` returns ``(reply, records)``
    — the decoded reply, and what the request appended to the log."""

    def __init__(self, shop: Deployment) -> None:
        self.shop = shop
        self.server = host_deployment(shop, "shop")
        self.runner = ThreadedServer(self.server)
        self.transport = NetworkTransport(self.runner.start())

    def send(self, message: Message):
        wal = self.shop.store.wal
        before = wal.last_lsn
        reply = self.transport.send(message)
        return reply, [record for record in wal if record.lsn > before]

    @property
    def last_reply_bytes(self) -> str:
        return self.transport.wire_log[-1]

    def close(self) -> None:
        self.transport.close()
        self.runner.stop()
        self.shop.close()


class InProcess:
    """The same shop with no server at all: the handler, called."""

    def __init__(self, shop: Deployment) -> None:
        self.shop = shop

    def send(self, message: Message):
        wal = self.shop.store.wal
        before = wal.last_lsn
        reply = self.shop.endpoint.handle(message)
        return reply, [record for record in wal if record.lsn > before]

    def close(self) -> None:
        self.shop.close()


def ops(records) -> list[list]:
    """Every row the records' transactions wrote, in log order."""
    return [op for __, written in committed(records) for op in written]


def shape(records) -> list[list[tuple[str, bool]]]:
    """Per line: ``(table, is a put)`` for each row its COMMIT carries."""
    return [
        [(op[0], len(op) == 3) for op in written]
        for __, written in committed(records)
    ]


# --------------------------------------------------------- (a) exact shape

GRANT = [[
    ("pools", True),
    ("promise_table", True),
    ("promise_index", True),  # r:widgets
    ("reply_journal", True),  # <request id>
]]
#: A grant that expires before every live promise also moves the
#: earliest-expiry watermark: a fifth row in the same line.
GRANT_MOVING_THE_WATERMARK = [GRANT[0][:3] + [("promise_index", True)] + GRANT[0][3:]]
RELEASE = [[
    ("pools", True),
    ("promise_table", True),
    ("promise_index", True),
    ("reply_journal", True),  # release:<promise id>
]]
SELL_UNDER_PROMISE = [[
    ("pools", True),  # the sale, then the promise's escrow consumed: one row
    ("promise_table", True),
    ("promise_index", True),
    ("reply_journal", True),  # <message id>:action
]]
#: Nothing to be atomic with: the aborted attempt logs nothing, then
#: the row alone.
REJECTION = [[("reply_journal", True)]]


def script(front) -> dict[str, list]:
    """One of everything, after a warm-up pair; records per request."""
    warm, __ = front.send(grant("warm:m1"))
    front.send(release("warm:m2", warm.promise_responses[0].promise_id))
    seen: dict[str, list] = {}
    granted, seen["grant"] = front.send(grant("m1"))
    promise_id = granted.promise_responses[0].promise_id
    __, seen["release"] = front.send(release("m2", promise_id))
    rejected, seen["rejection"] = front.send(grant("m3", amount=10 * STOCK))
    assert not rejected.promise_responses[0].accepted
    granted, __ = front.send(grant("m4"))
    sold, seen["sell"] = front.send(
        sell("m5", granted.promise_responses[0].promise_id)
    )
    assert sold.action_outcome.success
    __, seen["short grant"] = front.send(grant("m6", duration=10))
    return seen


def test_a_request_over_tcp_writes_what_the_manager_writes(tmp_path):
    wire = Wire(build_shop(tmp_path / "wire.wal"))
    local = InProcess(build_shop(tmp_path / "local.wal"))
    try:
        over_tcp, in_process = script(wire), script(local)
    finally:
        wire.close()
        local.close()

    assert shape(over_tcp["grant"]) == GRANT
    assert shape(over_tcp["short grant"]) == GRANT_MOVING_THE_WATERMARK
    assert shape(over_tcp["release"]) == RELEASE
    assert shape(over_tcp["rejection"]) == REJECTION
    assert shape(over_tcp["sell"]) == SELL_UNDER_PROMISE
    for name, records in over_tcp.items():
        # One line per effect, nothing else, and the server added nothing ...
        assert len(records) == 1 and shape(records) == shape(in_process[name])
        assert [op[1] for op in ops(records)] == [
            op[1] for op in ops(in_process[name])
        ], name
        # ... in particular not the two rows the old build added.
        assert not [
            op for op in ops(records)
            if op[0] == NET_REPLY_JOURNAL_TABLE or op[1] == "__meta__"
        ], name
    journal_keys = {
        name: [op[1] for op in ops(records) if op[0] == "reply_journal"]
        for name, records in over_tcp.items()
    }
    assert journal_keys["grant"] == ["m1:req"]
    assert journal_keys["sell"] == ["m5:action"]
    assert journal_keys["release"][0].startswith("release:shop:prm-")


# ------------------------------------------- (b) crash after every record


def prior_grant(wire: Wire) -> str:
    reply, __ = wire.send(grant("prior:m1"))
    return reply.promise_responses[0].promise_id


CASES = {
    "grant": lambda wire: grant("victim:m1"),
    "release": lambda wire: release("victim:m1", prior_grant(wire)),
    "sell-with-release": lambda wire: sell("victim:m1", prior_grant(wire)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_crash_after_every_record_of_a_request(tmp_path, case):
    base = tmp_path / "base.wal"
    wire = Wire(build_shop(base))
    script(wire)  # some history for the request to land on
    message = CASES[case](wire)
    before = base.read_text().splitlines(keepends=True)
    wire.send(message)
    original = wire.last_reply_bytes
    after = base.read_text().splitlines(keepends=True)
    effect = state(wire.shop)
    wire.close()
    request = after[len(before):]
    assert after[: len(before)] == before
    assert len(request) == 1 and '"type": "commit"' in request[0]
    line = request[0]

    for cut in (0, len(line) // 2, len(line)):
        # The disk froze before the request's line, half-way through
        # it (a torn tail), or after it.
        crashed = tmp_path / f"{case}-{cut}.wal"
        crashed.write_text("".join(before) + line[:cut])
        revived = Wire(build_shop(crashed))
        try:
            assert revived.shop.recovery_report.healthy, cut
            committed = cut == len(line)
            assert (state(revived.shop) == effect) == committed, cut
            reply, __ = revived.send(message)
            assert not reply.faults, (cut, reply.faults)
            # Exactly one effect, whichever side of the COMMIT it died on.
            assert state(revived.shop) == effect, cut
            replays = revived.server.metrics.value("manager.journal.replays")
            assert replays == (1 if committed else 0), cut
            if committed:
                assert revived.last_reply_bytes == original
            # ... and once more, against the row the redelivery wrote.
            revived.send(message)
            assert revived.last_reply_bytes == (
                original if committed else revived.transport.wire_log[-3]
            )
            assert state(revived.shop) == effect, cut
            recorder = HistoryRecorder()
            for record in revived.shop.store.wal:
                recorder.observer(0)(record)
            assert audit_history(recorder) == [], cut
            assert revived.shop.manager.check_all() == []
        finally:
            revived.close()


# --------------------------------------------------------- observability


def test_a_post_restart_duplicate_shows_as_a_journal_replay(tmp_path):
    """``repro top`` reads this: after a restart a redelivery is a cache
    miss plus a journal hit, so ``server.duplicates_served`` alone would
    show nothing."""
    wal = tmp_path / "shop.wal"
    wire = Wire(build_shop(wal))
    wire.send(grant("m1"))
    wire.send(grant("m1"))  # same life: the server's cache answers
    assert wire.server.metrics.value("server.duplicates_served") == 1
    assert wire.server.metrics.value("manager.journal.replays") == 0
    wire.close()

    revived = Wire(build_shop(wal))
    try:
        revived.send(grant("m1"))
        scrape = revived.transport.send(
            Message("top:m1", "top", METRICS_ENDPOINT)
        )
        counters = scrape.action_outcome.value["counters"]
        assert counters["manager.journal.replays"] == 1
        assert "server.duplicates_served" not in counters
        revived.send(grant("m1"))  # cached now
        scrape = revived.transport.send(
            Message("top:m2", "top", METRICS_ENDPOINT)
        )
        lines = _render_metrics(scrape.action_outcome.value)
        assert "  manager.journal.replays = 1" in lines
        assert "  server.duplicates_served = 1" in lines
        assert state(revived.shop) == (STOCK - 5, 5, ["shop:prm-1"])
    finally:
        revived.close()
