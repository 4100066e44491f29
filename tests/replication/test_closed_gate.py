"""No reply of any kind leaves a primary whose gate is closed.

A replicated primary executes a request *before* the ack gate ships
what it logged.  The reply is durable iff the effect is — the manager
journals it in the effect's own COMMIT, the server journals nothing —
so no reply row can exist for a commit that does not; what is left are
windows in which effect and reply exist locally, in the log or in the
dedup cache, for state no follower holds: the process died between the
COMMIT and the gate, the gate refused, the node was deposed.  Each
scenario here opens one of those windows on a real fleet (one shard, two
followers, sockets) and redelivers the request: the duplicate must be
refused while the gate is closed, and answered with the one journalled
grant — by the manager's row, not by granting again — once a follower
holds it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster import provision_products
from repro.core.parser import P
from repro.faults import crashpoints
from repro.net import NetworkTransport
from repro.protocol.client import PromiseClient
from repro.protocol.errors import ProtocolError, TransportFailure
from repro.protocol.retry import RetryPolicy
from repro.replication import ReplicatedFleet

pytestmark = pytest.mark.failover


class Tap:
    """Remember the last wire message, to redeliver it."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.last = None

    def send(self, message):
        self.last = message
        return self.inner.send(message)


@pytest.fixture()
def fleet(tmp_path):
    fleet = ReplicatedFleet(
        1,
        replicas=2,
        provision=provision_products(1, 10),
        wal_dir=str(tmp_path),
    )
    fleet.start()
    yield fleet
    crashpoints.clear()
    fleet.stop()


@pytest.fixture()
def wire(fleet):
    """A transport straight to the primary's address (no gateway: the
    duplicate must reach *this* node whatever routing thinks of it)."""
    transport = NetworkTransport(
        fleet.shard(0).address, timeout=2.0, retry=RetryPolicy.none()
    )
    yield transport
    transport.close()


def grant(tap: Tap):
    client = PromiseClient("closed-gate", tap, retry=RetryPolicy.none())
    return client.request_promise(
        "shop", [P("quantity('product-0') >= 1")], 60
    )


def at_the_post_execution_gate(primary, action) -> None:
    """Run ``action`` where the next request's second gate call would
    be: its handler committed (reply row included), nothing shipped."""
    server, real, calls = primary.server, primary.server.gate, []

    def gate():
        calls.append(None)
        if len(calls) == 2:
            server.gate = real
            action()
        return real()

    server.gate = gate


def die(primary) -> None:
    crashpoints.install("primary.dies", scope=primary.scope)
    crashpoints.crash_point("primary.dies", primary.scope)


def held(fleet) -> list[int]:
    return [f.receiver.applied_lsn for f in fleet.group(0).followers]


def accepted_ids(reply) -> list[str]:
    return [r.promise_id for r in reply.promise_responses if r.accepted]


def journalled(fleet) -> dict[str, dict]:
    """The manager's journal — the only one: request id -> response."""
    return dict(fleet.shard(0).deployment.manager.journal.entries_alone())


def request_id(tap: Tap) -> str:
    return tap.last.promise_requests[0].request_id


def replays(replica) -> int:
    return int(replica.server.metrics.value("manager.journal.replays"))


def crash_after_journalling(fleet, tap) -> int:
    """Kill the primary between the grant's COMMIT and the gate; returns
    the LSN its log ends at (what no follower holds).

    A request's own barrier comes after its gate, so the COMMIT reaches
    the file first only through someone else's barrier — another
    worker's request, a vacuum — which the hardening here stands in for.
    Without it the crash freezes the disk and the grant is simply lost.
    """
    primary = fleet.shard(0)
    store = primary.deployment.store
    at_the_post_execution_gate(
        primary, lambda: (store.wait_durable(), die(primary))
    )
    with pytest.raises(TransportFailure):
        grant(tap)
    lost = primary.deployment.store.wal.last_lsn
    assert max(held(fleet)) < lost
    fleet.kill(0)
    crashpoints.clear()
    return lost


def reboot_same_primary(fleet) -> None:
    # The public ``restart`` promotes a follower when there is one; the
    # case here is the node coming back before anyone noticed.
    fleet._reboot_primary(fleet.group(0))


def test_restart_ships_the_journalled_row_before_replaying_it(fleet, wire):
    tap = Tap(wire)
    lost = crash_after_journalling(fleet, tap)
    reboot_same_primary(fleet)

    reborn = fleet.shard(0)
    # The boot's full sync ran before the listener opened.
    assert min(held(fleet)) >= lost
    row = journalled(fleet)[request_id(tap)]
    reply = wire.send(tap.last)
    assert accepted_ids(reply) == [row["promise_id"]]
    assert replays(reborn) == 1
    assert held(fleet) == [reborn.deployment.store.wal.last_lsn] * 2
    assert fleet.live_promises() == {0: 1}


def test_restart_without_followers_refuses_the_replay_until_healed(
    fleet, wire, monkeypatch
):
    tap = Tap(wire)
    lost = crash_after_journalling(fleet, tap)
    followers = fleet.group(0).followers
    for follower in followers:
        # The log listener stays up; the receiver behind it refuses.
        monkeypatch.setattr(
            follower.receiver, "handle", lambda frame: b'{"error": "unplugged"}'
        )
    reboot_same_primary(fleet)

    reborn = fleet.shard(0)
    assert max(held(fleet)) < lost
    row = journalled(fleet)[request_id(tap)]
    for _ in range(2):
        with pytest.raises(TransportFailure, match="fenced: replication lagging"):
            wire.send(tap.last)
    assert replays(reborn) == 0  # refused at the door, not in the handler

    monkeypatch.undo()
    reply = wire.send(tap.last)
    assert accepted_ids(reply) == [row["promise_id"]]  # the journalled grant
    assert replays(reborn) == 1
    assert held(fleet) == [reborn.deployment.store.wal.last_lsn] * 2
    assert fleet.live_promises() == {0: 1}


def test_a_refused_request_leaves_a_row_that_is_not_served_unshipped(fleet, wire):
    """The gate refuses after the grant and its reply row committed.  The
    row must stay unserved while the partition lasts; the retry after it
    ends re-enters the handler, which the row makes the same grant."""
    tap = Tap(wire)
    primary = fleet.shard(0)
    at_the_post_execution_gate(
        primary, lambda: setattr(primary.sender, "blocked", True)
    )
    with pytest.raises(TransportFailure, match="fenced"):
        grant(tap)
    row = journalled(fleet)[request_id(tap)]
    assert max(held(fleet)) < primary.deployment.store.wal.last_lsn
    with pytest.raises(TransportFailure, match="fenced"):
        wire.send(tap.last)
    assert replays(primary) == 0
    served = primary.server.metrics
    assert served.value("server.duplicates_served") == 0  # withheld: not cached

    primary.sender.blocked = False
    first = wire.send(tap.last)
    again = wire.send(tap.last)
    assert accepted_ids(first) == [row["promise_id"]]
    assert wire.wire_log[-1] == wire.wire_log[-3]  # again == first, in bytes
    assert (replays(primary), served.value("server.duplicates_served")) == (1, 1)
    assert held(fleet) == [primary.deployment.store.wal.last_lsn] * 2
    assert fleet.live_promises() == {0: 1}


def test_a_deposed_primary_refuses_duplicates_it_has_cached(fleet, wire):
    tap = Tap(wire)
    response = grant(tap)
    assert response.accepted
    zombie = fleet.shard(0)
    assert accepted_ids(wire.send(tap.last)) == [response.promise_id]

    fleet.partition(0)
    fleet.failover(0)
    assert fleet.shard(0) is not zombie and zombie.alive
    # The old node still has the reply cached; whether its copy of the
    # state survived the promotion is not its call any more.
    for message in (tap.last, replace(tap.last, epoch=0)):
        with pytest.raises(ProtocolError, match="fenced: deposed primary"):
            wire.send(message)
    # The promoted follower holds the row: it is part of the commit.
    with NetworkTransport(
        fleet.shard(0).address, timeout=2.0, retry=RetryPolicy.none()
    ) as successor:
        assert accepted_ids(successor.send(tap.last)) == [response.promise_id]
