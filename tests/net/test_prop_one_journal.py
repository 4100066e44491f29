"""Property: the reply to a journalled id never changes.

Hypothesis picks any order of *send* (fresh or duplicate — the model
knows which), *restart* (the reply cache dies, the log stays) and
*crowd* (enough other requests to push the bounded journal over its
capacity, which evicts the oldest half) over a handful of message ids,
against a real server on a real log.  Whatever the order:

* while an id's row is journalled — or its reply is still in the living
  server's cache — a delivery is answered with the bytes the id was
  last answered with, and nothing is effected;
* an id whose row was evicted (and whose cached reply died in a
  restart) is new to the system, as it is today: it executes once more,
  is journalled again, and from then on *that* reply never changes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.history import HistoryRecorder, audit_history
from repro.recovery import ReplyJournal

from .test_one_journal import Wire, build_shop, grant

pytestmark = pytest.mark.crash

IDS = 4
CAPACITY = 6  # evicts rows with seq < next - 3 once a 7th is recorded

steps = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.integers(0, IDS - 1)),
        st.tuples(st.just("restart"), st.just(0)),
        st.tuples(st.just("crowd"), st.integers(1, 4)),
    ),
    min_size=1,
    max_size=10,  # at most 40 grants of one unit: the pool holds 50
)


def open_wire(wal) -> Wire:
    shop = build_shop(wal)
    # The manager's journal is bounded at 4096 rows; a handful of ids
    # only ever meets the bound if it is a handful too.
    shop.manager.journal = ReplyJournal(shop.store, capacity=CAPACITY)
    return Wire(shop)


def journalled(wire: Wire, request_id: str) -> bool:
    with wire.shop.store.begin() as txn:
        return wire.shop.manager.journal.get(txn, request_id) is not None


def live(wire: Wire) -> int:
    return len(wire.shop.manager.active_promises())


@given(steps)
@settings(max_examples=30, deadline=None)
def test_the_reply_to_a_journalled_id_never_changes(tmp_path_factory, script):
    wal = tmp_path_factory.mktemp("one-journal") / "shop.wal"
    wire = open_wire(wal)
    answered: dict[int, str] = {}  # id -> the bytes it was last answered with
    cached: set[int] = set()  # ids the living server has answered
    executions = crowd = 0
    try:
        for step, argument in script:
            if step == "restart":
                wire.close()
                wire = open_wire(wal)
                assert wire.shop.recovery_report.healthy
                cached.clear()
            elif step == "crowd":
                for __ in range(argument):
                    crowd += 1
                    wire.send(grant(f"crowd:m{crowd}", amount=1))
                executions += argument
            else:
                message = grant(f"id:m{argument}", amount=1)
                request_id = message.promise_requests[0].request_id
                known = journalled(wire, request_id) or argument in cached
                before = live(wire)
                reply, __ = wire.send(message)
                assert reply.promise_responses[0].accepted
                if known:
                    assert wire.last_reply_bytes == answered[argument]
                    assert live(wire) == before
                else:
                    executions += 1
                    assert live(wire) == before + 1
                    assert journalled(wire, request_id)
                answered[argument] = wire.last_reply_bytes
                cached.add(argument)
            assert live(wire) == executions
            with wire.shop.store.begin() as txn:
                assert wire.shop.manager.journal.count(txn) <= CAPACITY
        recorder = HistoryRecorder()
        for record in wire.shop.store.wal:
            recorder.observer(0)(record)
        assert audit_history(recorder) == []
    finally:
        wire.close()


def test_an_evicted_id_executes_once_more_and_is_journalled_again(tmp_path):
    """The one path the property must not reach only by luck."""
    wal = tmp_path / "shop.wal"
    wire = open_wire(wal)
    try:
        message = grant("id:m0", amount=1)
        request_id = message.promise_requests[0].request_id
        wire.send(message)
        first = wire.last_reply_bytes
        for number in range(CAPACITY):
            wire.send(grant(f"crowd:m{number}", amount=1))
        assert not journalled(wire, request_id)  # evicted ...
        wire.send(message)
        assert wire.last_reply_bytes == first  # ... but still cached
        assert live(wire) == 1 + CAPACITY

        wire.close()
        wire = open_wire(wal)  # the cache is gone too: a new request
        wire.send(message)
        second = wire.last_reply_bytes
        assert second != first  # a second promise, honestly reported
        assert live(wire) == 2 + CAPACITY
        assert journalled(wire, request_id)

        wire.close()
        wire = open_wire(wal)
        wire.send(message)
        assert wire.last_reply_bytes == second  # and it never changes
        assert live(wire) == 2 + CAPACITY
        assert wire.server.metrics.value("manager.journal.replays") == 1
    finally:
        wire.close()
