"""WAL shipping between a shard primary and its hot followers.

The invariant this layer keeps, whatever is underneath it: **acked to
the client ⇒ on at least one follower at that LSN, in LSN order, under
one epoch** — and, so that it covers every reply there is, **no reply of
any kind (fresh or cached) leaves a primary whose
gate is closed** (``tests/replication/test_shipping_invariants.py``
tests both with nothing else running).

The sender subscribes to the primary's
:class:`~repro.storage.wal.WriteAheadLog`.  The ship unit is the
*request*: a server runs a request's handler — whose transactions
carry the reply row with the effect it answers — inside the log's
:meth:`~repro.storage.wal.WriteAheadLog.request_scope`, where
:meth:`~ReplicationSender.observe` leaves commits alone, and
the :meth:`~ReplicationSender.gate` call that follows ships what it
logged — and whatever other workers committed meanwhile — in one batch,
before the request's durability barrier.  A COMMIT logged *outside* a
request (seeding, ``vacuum()``, a recovery sweep), and a CHECKPOINT or
CREATE_TABLE anywhere, ships as it is appended — after the log's
barrier has put it on the primary's disk.
Each follower gets the suffix past its link's cursor — read by
bisection (:meth:`~repro.storage.wal.WriteAheadLog.since`), never by
scanning the log — as a ``_repl`` message over the ordinary framed
transport, every lagging follower's message on its wire before any ack
is awaited.  The payload is a batch of WAL lines (newline-joined
:meth:`LogRecord.to_json` output, the log's own file format) which the
receiver writes *verbatim* into its own file
(:meth:`~repro.storage.wal.WriteAheadLog.ingest_lines`: one barrier —
one write and one fsync — per batch) before it acks the LSN it then
holds, so the follower's file is the primary's byte for byte —
promotion boots a deployment straight off it through the normal
recovery path.

Three properties carry the failover guarantees:

* **Idempotent delivery** — the sender re-ships the full unacked suffix
  after any failure; the receiver skips records at or below its applied
  LSN, so redelivery can never double-apply.
* **Epoch fencing** — every ship carries the sender's epoch; a receiver
  that has adopted a newer epoch (because a promotion happened) answers
  ``repl-fenced`` and the sender latches :attr:`ReplicationSender.fenced`
  permanently: the deposed primary's stream is dead, not retried.
* **Ack gating** — :meth:`ReplicationSender.gate` plugs into
  :attr:`~repro.net.server.PromiseServer.gate`: while no live follower
  holds the last committed LSN (partitioned, lagging, or fenced), the
  primary withholds every reply, so no client ever observes state the
  replica group cannot promise to keep across a failover.
"""

from __future__ import annotations

import itertools
import threading
import uuid
from functools import partial
from typing import Callable, Iterator

from ..obs.metrics import MetricsRegistry
from ..protocol.errors import ProtocolError
from ..protocol.messages import ActionOutcomePayload, ActionPayload, Message
from ..protocol.retry import RetryPolicy
from ..storage.errors import RecoveryError
from ..storage.wal import LogRecord, LogRecordType, WriteAheadLog

#: Endpoint name the receiver's handler is registered under on every
#: follower server.  Deliberately underscore-prefixed like ``_ping``:
#: not an application endpoint, never routed by a gateway.
REPL_ENDPOINT = "_repl"

#: Fault prefix a receiver uses to reject a stale-epoch stream.  An
#: application-level fault (no ``transport:`` prefix): the message was
#: delivered and understood, the *sender* is what's wrong.
FENCED_FAULT_PREFIX = "repl-fenced:"

#: Records per ship message.  A long-unreachable (or freshly rejoined)
#: follower may be missing the log's entire tail; shipping that in one
#: message would blow the transport's 1 MiB frame limit and fail
#: forever — the link could then *never* catch up and the primary's ack
#: gate would stay closed for good.  Chunking keeps every frame small
#: and lets ``acked_lsn`` advance chunk by chunk, so partial progress
#: survives a mid-catch-up failure.
SHIP_CHUNK_RECORDS = 512


def _chunks(
    records: list[LogRecord], line_of: Callable[[LogRecord], str]
) -> Iterator[list[str]]:
    """``records`` as frame-sized runs of WAL lines, acked one by one.
    No records is one empty run: an empty ``full_sync`` still sends its
    message — the reset and the epoch adoption are the point."""
    for start in range(0, max(1, len(records)), SHIP_CHUNK_RECORDS):
        yield [line_of(r) for r in records[start : start + SHIP_CHUNK_RECORDS]]


class _FollowerLink:
    """The sender's view of one follower: transport plus applied LSN."""

    def __init__(self, name: str, transport) -> None:
        self.name = name
        self.transport = transport
        #: Highest LSN the follower has acknowledged applying.
        self.acked_lsn = 0

    def close(self) -> None:
        self.transport.close()


class ReplicationSender:
    """Ship one primary's WAL to its followers, one batch per request.

    Subscribe :meth:`observe` to the primary's WAL and put :meth:`gate`
    on its server (whose request scope is the WAL's).  Each link's
    unacked suffix is read from the log's in-memory records (which a
    checkpoint truncates to a snapshot the receiver applies as a
    whole-file replace), so a follower unreachable for any length of
    time catches up from whatever the log still holds.
    """

    def __init__(
        self,
        group: str,
        epoch: int,
        wal: WriteAheadLog,
        sender_name: str = "primary",
        transport_factory: Callable[[tuple[str, int]], object] | None = None,
        timeout: float = 1.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.group = group
        self.epoch = epoch
        self._wal = wal
        self._name = sender_name
        self._timeout = timeout
        self._transport_factory = transport_factory
        self._links: list[_FollowerLink] = []
        #: Held for the whole of a flush: nothing closes a transport a
        #: ship is in flight on, and one flush at a time moves cursors.
        self._lock = threading.RLock()
        #: ``next()`` on it is atomic: no two ships ever share a
        #: ``repl:`` message id (the follower's server dedups by it) —
        #: nor do two senders, or a primary restarted at its old epoch
        #: would be answered from the cache of the stream it replaces.
        self._ids = itertools.count(1)
        self._stream = f"repl:{group}:{epoch}:{uuid.uuid4().hex[:8]}"
        #: Simulated network partition from every follower: flushes fail
        #: without touching a socket.  The chaos nemesis flips this.
        self.blocked = False
        #: Latched reason once a follower rejected our epoch: this
        #: sender belongs to a deposed primary and must never ack again.
        self.fenced: str | None = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Records per ship message (a count, not a latency).
        self._ship_sizes = self.metrics.histogram(
            "repl.ship.records", (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
        )

    @property
    def ships(self) -> int:
        """Ship messages sent (view over ``repl.ships``)."""
        return int(self.metrics.value("repl.ships"))

    @property
    def records_shipped(self) -> int:
        """WAL records acknowledged applied (``repl.records_shipped``)."""
        return int(self.metrics.value("repl.records_shipped"))

    def _update_lag(self) -> None:
        """Refresh the lag gauges: ``repl.lag_lsn.<follower>`` per link
        and ``repl.ship_lag_lsn`` (primary vs the best follower)."""
        for name, lag in self._lags().items():
            self.metrics.set_gauge(f"repl.lag_lsn.{name}", float(lag))
        behind = self._wal.last_lsn - self.synced_lsn()
        self.metrics.set_gauge("repl.ship_lag_lsn", float(behind))

    def _lags(self) -> dict[str, int]:
        """Records each follower is behind the primary's log."""
        last = self._wal.last_lsn
        return {link.name: last - link.acked_lsn for link in self._links}

    # -------------------------------------------------------------- wiring

    def add_follower(
        self, address: tuple[str, int], name: str
    ) -> _FollowerLink:
        """Register a follower to ship to (does not sync it — see
        :meth:`full_sync`)."""
        link = _FollowerLink(name, self._make_transport(address))
        with self._lock:
            self._links.append(link)
        return link

    def remove_follower(self, name: str) -> None:
        """Drop a follower link (it was promoted, or torn down)."""
        with self._lock:
            for link in list(self._links):
                if link.name == name:
                    self._links.remove(link)
                    link.close()

    def close(self) -> None:
        """Close every follower transport."""
        with self._lock:
            for link in self._links:
                link.close()
            self._links = []

    @property
    def followers(self) -> list[str]:
        with self._lock:
            return [link.name for link in self._links]

    def _make_transport(self, address: tuple[str, int]):
        if self._transport_factory is not None:
            return self._transport_factory(address)
        from ..net.transport import NetworkTransport

        return NetworkTransport(
            address, timeout=self._timeout, retry=RetryPolicy.none()
        )

    # ------------------------------------------------------------ shipping

    def observe(self, record: LogRecord) -> None:
        """WAL observer: every record the log writes — a transaction's
        COMMIT line, a CREATE_TABLE, a CHECKPOINT — closes a unit of
        work, so flush the unacked suffix, except for a COMMIT the log
        says belongs to a request
        (:meth:`~repro.storage.wal.WriteAheadLog.in_request`): the
        request's gate ships that."""
        if record.record_type is LogRecordType.COMMIT and self._wal.in_request():
            return
        self.flush()

    def flush(self) -> bool:
        """Ship each follower the records it is missing: every lagging
        follower's first message goes on its wire, then the acks are
        awaited in turn, so the followers work at the same time and
        nothing outlives the call.

        Returns True when at least one follower acknowledges holding the
        log's last LSN — the condition under which the primary may ack.
        Failures mark the follower lagging (its suffix is re-shipped on
        the next flush); a ``repl-fenced`` answer latches
        :attr:`fenced` and stops this sender for good.
        """
        with self._lock:
            if self.fenced is not None or self.blocked:
                return False
            target = self._wal.last_lsn
            self.metrics.inc("repl.flushes")
            # Every follower gets a record as the same line: render it
            # once per flush, whichever link reaches it first.
            rendered: dict[int, str] = {}

            def line_of(record: LogRecord) -> str:
                line = rendered.get(record.lsn)
                if line is None:
                    line = rendered[record.lsn] = record.to_json()
                return line

            begun = []
            for link in self._links:
                # Up to ``target`` only: a record a worker appends while
                # this loop runs would otherwise reach only the links
                # read after it, and its own gate, finding it acked by
                # one follower, would never ship it to the others.
                todo = [r for r in self._wal.since(link.acked_lsn) if r.lsn <= target]
                if todo:
                    chunks = _chunks(todo, line_of)
                    begun.append(
                        (link, chunks, self._begin(link, "ship", next(chunks)))
                    )
            for link, chunks, acked in begun:
                ok = acked()
                for lines in chunks:  # a backlog longer than one frame
                    ok = ok and self._begin(link, "ship", lines)()
            self._update_lag()
            return self.fenced is None and any(
                link.acked_lsn >= target for link in self._links
            )

    def full_sync(self, link: _FollowerLink) -> bool:
        """Rebuild one follower's log from scratch (bootstrap / rejoin).

        A ``full_sync`` tells the receiver to discard its file — losing
        any suffix that diverged while it was a deposed primary — and
        re-ingest everything the current log holds, then adopt this
        sender's epoch.  Only the first chunk carries the op: the reset
        must happen exactly once, the rest append as ordinary ships.
        """
        with self._lock:
            link.acked_lsn = 0
            op = "full_sync"
            for lines in _chunks(list(self._wal), LogRecord.to_json):
                if not self._begin(link, op, lines)():
                    return False
                op = "ship"
            return True

    def full_sync_all(self) -> None:
        """Bootstrap every registered follower."""
        with self._lock:
            for link in self._links:
                self.full_sync(link)

    def _begin(
        self, link: _FollowerLink, op: str, lines: list[str]
    ) -> Callable[[], bool]:
        """Put one ship message on ``link``'s wire: ``lines`` are WAL
        lines, sent as the file would hold them.  The returned thunk
        awaits the ack and moves the link's cursor; True when it did."""
        self.metrics.inc("repl.ships")
        self._ship_sizes.observe(len(lines))
        message = Message(
            message_id=f"{self._stream}:{next(self._ids)}",
            sender=self._name,
            recipient=REPL_ENDPOINT,
            action=ActionPayload(
                service="replication",
                operation=op,
                params={
                    "group": self.group,
                    "epoch": self.epoch,
                    "records": "\n".join(lines),
                },
            ),
        )
        try:
            reply_of = link.transport.begin(message)
        except ProtocolError:  # refused, lost or timed out
            return partial(self._failed, link)
        return partial(self._finish, link, reply_of, len(lines))

    def _finish(
        self, link: _FollowerLink, reply_of: Callable[[], Message], count: int
    ) -> bool:
        try:
            reply = reply_of()
        except ProtocolError:  # refused, lost or timed out
            return self._failed(link)
        for fault in reply.faults:
            if fault.startswith(FENCED_FAULT_PREFIX):
                self.fenced = fault[len(FENCED_FAULT_PREFIX):].strip()
                self.metrics.inc("repl.fenced")
                return False
        outcome = reply.action_outcome
        applied = outcome.value if outcome is not None and outcome.success else None
        if isinstance(applied, dict) and "applied_lsn" in applied:
            link.acked_lsn = int(applied["applied_lsn"])  # type: ignore[arg-type]
            self.metrics.inc("repl.records_shipped", count)
            return True
        return self._failed(link)

    def _failed(self, link: _FollowerLink) -> bool:
        self.metrics.inc(f"repl.ship_failures.{link.name}")
        return False

    # ---------------------------------------------------------------- gate

    def synced_lsn(self) -> int:
        """Highest LSN any follower has acknowledged."""
        with self._lock:
            return max((link.acked_lsn for link in self._links), default=0)

    def gate(self) -> str | None:
        """Why the primary must not ack right now (``None`` = go ahead).

        Plugged into :attr:`repro.net.server.PromiseServer.gate`, which
        asks before anything is answered and again once a request has
        executed — the flush made here is then
        the request's one ship.  A fenced sender never acks again; a
        lagging one gets that flush before the request is refused, so a
        single dropped ship does not bounce a healthy client.  With no
        followers registered the gate is open — the group has
        *degraded to a single copy* (every follower promoted or gone),
        which is weaker but strictly no worse than an unreplicated
        shard; :meth:`ReplicatedFleet.rejoin` restores redundancy.
        """
        if self.fenced is not None:
            return f"deposed primary ({self.fenced})"
        with self._lock:
            target = self._wal.last_lsn
            if not self._links or self.synced_lsn() >= target or self.flush():
                return None
            return (
                f"replication lagging: no follower of {self.group} "
                f"holds lsn {target}"
            )

    def status(self) -> dict[str, object]:
        """Vitals for ping replies and the CLI."""
        with self._lock:
            sizes = self._ship_sizes
            return {
                "group": self.group,
                "epoch": self.epoch,
                "last_lsn": self._wal.last_lsn,
                "synced_lsn": self.synced_lsn(),
                "followers": {
                    link.name: link.acked_lsn for link in self._links
                },
                "lag": self._lags(),
                "flushes": int(self.metrics.value("repl.flushes")),
                "ships": self.ships,
                "records_per_ship": sizes.total / max(1, sizes.count),
                "fenced": self.fenced,
                "blocked": self.blocked,
            }


class ReplicationReceiver:
    """Apply a primary's shipped WAL records on a follower.

    Owns the follower's log file.  Registered under
    :data:`REPL_ENDPOINT` on the follower's server; promotion calls
    :meth:`promote`, after which every further ship is answered
    ``repl-fenced`` — the token on the replication stream is what
    rejects a deposed primary's late writes.
    """

    def __init__(
        self,
        group: str,
        wal_path: str,
        epoch: int = 0,
        fsync: bool = False,
        fault_scope: str | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.group = group
        self.epoch = epoch
        self._wal_path = wal_path
        self._fsync = fsync
        self._fault_scope = fault_scope
        self.wal = WriteAheadLog(
            wal_path, fsync=fsync, fault_scope=fault_scope
        )
        #: Set by :meth:`promote`: this node is (or is becoming) the
        #: primary and its log is no longer writable by any stream.
        self.promoted = False
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._reply_counter = 0

    @property
    def ships_applied(self) -> int:
        """Shipped records ingested (view over ``repl.ships_applied``)."""
        return int(self.metrics.value("repl.ships_applied"))

    @property
    def ships_fenced(self) -> int:
        """Stale-epoch ships bounced (view over ``repl.ships_fenced``)."""
        return int(self.metrics.value("repl.ships_fenced"))

    @property
    def applied_lsn(self) -> int:
        return self.wal.last_lsn

    def promote(self, epoch: int) -> str:
        """Seal the log for promotion; returns its path for the boot.

        Closes the file handle so the promoted deployment can reopen it
        through the ordinary recovery path, adopts the new epoch, and
        fences the stream: the old primary may still be alive behind a
        partition, and its next ship must bounce.
        """
        self.promoted = True
        self.epoch = epoch
        self.wal.close()
        return self._wal_path

    # ------------------------------------------------------------- handler

    def handle(self, message: Message) -> Message:
        """The ``_repl`` endpoint: ship / full_sync / status."""
        action = message.action
        if action is None or action.service != "replication":
            return self._fault(message, "repl-malformed: not a replication op")
        params = action.params
        if params.get("group") != self.group:
            return self._fault(
                message,
                f"repl-malformed: group {params.get('group')!r} "
                f"is not {self.group!r}",
            )
        if action.operation == "status":
            return self._ack(message)
        try:
            epoch = int(params.get("epoch", -1))  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return self._fault(message, "repl-malformed: bad epoch")
        if self.promoted or epoch < self.epoch:
            self.metrics.inc("repl.ships_fenced")
            return self._fault(
                message,
                f"{FENCED_FAULT_PREFIX} receiver of {self.group} at epoch "
                f"{self.epoch}"
                + (" (promoted)" if self.promoted else "")
                + f", stream at {epoch}",
            )
        self.epoch = max(self.epoch, epoch)
        lines = params.get("records", "")
        if not isinstance(lines, str):
            return self._fault(message, "repl-malformed: bad records")
        if action.operation == "full_sync":
            self._reset_log()
        elif action.operation != "ship":
            return self._fault(
                message, f"repl-malformed: unknown op {action.operation!r}"
            )
        try:
            applied = self.wal.ingest_lines(lines)
        except RecoveryError:
            return self._fault(message, "repl-malformed: bad records")
        self.metrics.inc("repl.ships_applied", applied)
        # The ack reads the log after the batch's barrier.
        return self._ack(message)

    def close(self) -> None:
        self.wal.close()

    # ----------------------------------------------------------- internals

    def _reset_log(self) -> None:
        """Discard the log (diverged rejoin) ahead of a full re-ingest."""
        self.wal.close()
        path = self.wal.path
        if path is not None and path.exists():
            path.unlink()
        self.wal = WriteAheadLog(
            self._wal_path, fsync=self._fsync, fault_scope=self._fault_scope
        )

    def _ack(self, message: Message) -> Message:
        self._reply_counter += 1
        return message.reply(
            message_id=f"repl-ack:{self.group}:{self._reply_counter}",
            action_outcome=ActionOutcomePayload(
                success=True,
                value={
                    "group": self.group,
                    "epoch": self.epoch,
                    "applied_lsn": self.wal.last_lsn,
                    "promoted": self.promoted,
                },
            ),
        )

    def _fault(self, message: Message, fault: str) -> Message:
        self._reply_counter += 1
        return message.reply(
            message_id=f"repl-fault:{self.group}:{self._reply_counter}",
            faults=(fault,),
        )
