"""WAL shipping between a shard primary and its hot followers.

The invariant this layer keeps, whatever is underneath it: **acked to
the client ⇒ on at least one follower at that LSN, in LSN order, under
one epoch** (``tests/replication/test_shipping_invariants.py`` tests it
with nothing else running).

The sender subscribes to the primary's
:class:`~repro.storage.wal.WriteAheadLog` and, at every transaction
boundary (COMMIT, ABORT, CHECKPOINT, CREATE_TABLE), synchronously ships
each follower the suffix past that link's cursor — read by bisection
(:meth:`~repro.storage.wal.WriteAheadLog.since`), never by scanning the
log — as a ``_repl`` message over the ordinary framed transport, to all
lagging followers at the same time.  A ship's payload is a batch of WAL
lines: newline-joined :meth:`LogRecord.to_json` output, the log's own
file format.  The receiver writes the lines it has not got *verbatim*
into its own WAL file
(:meth:`~repro.storage.wal.WriteAheadLog.ingest_lines`: one write, one
barrier per batch) and acks the LSN it holds after that barrier, so the
follower's file is the primary's byte for byte — promotion later boots a
deployment straight off it through the normal recovery path.

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
  primary withholds acks, so no client ever observes state the replica
  group cannot promise to keep across a failover.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial
from typing import Callable

from ..obs.metrics import MetricsRegistry
from ..protocol.errors import ProtocolError, RequestTimeout, TransportFailure
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

#: Record types that close a unit of work; appends of these flush the
#: ship buffer synchronously, so an acked commit is on a follower
#: before the primary's reply leaves the building.
_FLUSH_TYPES = frozenset(
    {
        LogRecordType.COMMIT,
        LogRecordType.ABORT,
        LogRecordType.CHECKPOINT,
        LogRecordType.CREATE_TABLE,
    }
)

#: Records per ship message.  A long-unreachable (or freshly rejoined)
#: follower may be missing the log's entire tail; shipping that in one
#: message would blow the transport's 1 MiB frame limit and fail
#: forever — the link could then *never* catch up and the primary's ack
#: gate would stay closed for good.  Chunking keeps every frame small
#: and lets ``acked_lsn`` advance chunk by chunk, so partial progress
#: survives a mid-catch-up failure.
SHIP_CHUNK_RECORDS = 512

#: Threads a sender keeps for shipping to several followers at the same
#: time (the flushing thread takes one link itself).  Lagging links
#: beyond that queue up behind them; none is skipped.
_FANOUT_THREADS = 4


class _FollowerLink:
    """The sender's view of one follower: transport plus applied LSN."""

    def __init__(self, name: str, transport) -> None:
        self.name = name
        self.transport = transport
        #: Highest LSN the follower has acknowledged applying.
        self.acked_lsn = 0
        self.ship_failures = 0

    def close(self) -> None:
        closer = getattr(self.transport, "close", None)
        if closer is not None:
            closer()


class ReplicationSender:
    """Ship one primary's WAL to its followers, synchronously on commit.

    Subscribe :meth:`observe` to the primary's WAL; the sender reads
    each link's unacked suffix from the log's in-memory records (which a
    checkpoint truncates to a snapshot record the receiver applies as a
    whole-file replace), so a follower that has been unreachable for any
    length of time catches up from whatever the log still holds.
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
        #: Held for the whole of a flush, fan-out included: nothing
        #: closes a transport a pool thread is mid-``send`` on.  The
        #: ship legs themselves must never take it.
        self._lock = threading.RLock()
        #: ``next()`` on it is atomic: two concurrent ships never share
        #: a ``repl:`` message id (the follower's server dedups by it).
        self._ids = itertools.count(1)
        self._pool: ThreadPoolExecutor | None = None
        #: Simulated network partition from every follower: flushes fail
        #: without touching a socket.  The chaos nemesis flips this.
        self.blocked = False
        #: Latched reason once a follower rejected our epoch: this
        #: sender belongs to a deposed primary and must never ack again.
        self.fenced: str | None = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()

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
        self.metrics.set_gauge(
            "repl.ship_lag_lsn",
            float(self._wal.last_lsn - self.synced_lsn()),
        )

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
        transport = self._make_transport(address)
        link = _FollowerLink(name, transport)
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
        """Close every follower transport and stop the fan-out threads."""
        with self._lock:
            for link in self._links:
                link.close()
            self._links = []
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

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
        """WAL observer: flush the unacked suffix at txn boundaries.

        Intermediate records (BEGIN, PUT, DELETE) ride along with the
        boundary record that closes their transaction — one ship per
        commit, not one per record.
        """
        if record.record_type in _FLUSH_TYPES:
            self.flush()

    def flush(self) -> bool:
        """Ship each follower the records it is missing, all followers
        at the same time.

        Returns True when at least one follower acknowledges holding the
        log's last LSN — the condition under which the primary may ack.
        Failures mark the follower lagging (its suffix is re-shipped on
        the next flush); a ``repl-fenced`` answer latches
        :attr:`fenced` and stops this sender for good.
        """
        with self._lock:
            if self.fenced is not None:
                return False
            target = self._wal.last_lsn
            if self.blocked:
                return False
            # Every follower gets a record as the same line: render it
            # once per flush, whichever leg reaches it first.
            lines: dict[int, str] = {}

            def line_of(record: LogRecord) -> str:
                line = lines.get(record.lsn)
                if line is None:
                    line = lines[record.lsn] = record.to_json()
                return line

            legs = []
            for link in self._links:
                todo = self._wal.since(link.acked_lsn)
                if todo:
                    legs.append(
                        partial(self._ship_chunked, link, "ship", todo, line_of)
                    )
            self._fan_out(legs)
            self._update_lag()
            return self.fenced is None and any(
                link.acked_lsn >= target for link in self._links
            )

    def _fan_out(self, legs: list[Callable[[], object]]) -> None:
        """Run ``legs`` at the same time; return when all have.

        As the gateway's scatter legs: the calling thread takes one, the
        sender's own small pool the others.  Called under the sender
        lock, which the legs therefore must not take.
        """
        if not legs:
            return
        futures = []
        if len(legs) > 1:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=_FANOUT_THREADS,
                    thread_name_prefix=f"repl-{self.group}",
                )
            futures = [self._pool.submit(leg) for leg in legs[1:]]
        try:
            legs[0]()
        finally:
            wait(futures)
        for future in futures:
            future.result()

    def full_sync(self, link: _FollowerLink) -> bool:
        """Rebuild one follower's log from scratch (bootstrap / rejoin).

        A ``full_sync`` tells the receiver to discard its file — losing
        any suffix that diverged while it was a deposed primary — and
        re-ingest everything the current log holds, then adopt this
        sender's epoch.
        """
        with self._lock:
            link.acked_lsn = 0
            return self._ship_chunked(
                link, "full_sync", list(self._wal), LogRecord.to_json
            )

    def full_sync_all(self) -> None:
        """Bootstrap every registered follower."""
        with self._lock:
            for link in self._links:
                self.full_sync(link)

    def _ship_chunked(
        self,
        link: _FollowerLink,
        op: str,
        records: list[LogRecord],
        line_of: Callable[[LogRecord], str],
    ) -> bool:
        """Ship ``records`` in frame-sized chunks, acked one by one.

        Only the first chunk carries a ``full_sync`` op (the receiver's
        log reset must happen exactly once); the rest append as ordinary
        ships.  An empty ``full_sync`` still sends one message — the
        reset and the epoch adoption are the point, not the records.
        """
        if not records:
            return op != "full_sync" or self._ship(link, op, [])
        for start in range(0, len(records), SHIP_CHUNK_RECORDS):
            chunk = records[start : start + SHIP_CHUNK_RECORDS]
            chunk_op = op if start == 0 else "ship"
            if not self._ship(link, chunk_op, [line_of(r) for r in chunk]):
                return False
        return True

    def _ship(self, link: _FollowerLink, op: str, lines: list[str]) -> bool:
        """One ship message: ``lines`` are WAL lines, sent as the file
        would hold them.  Runs on a fan-out thread as well as on the
        flushing one, so it touches only its own link, the registry
        (which locks itself) and the one-way ``fenced`` latch."""
        self.metrics.inc("repl.ships")
        message = Message(
            message_id=f"repl:{self.group}:{self.epoch}:{next(self._ids)}",
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
            reply = link.transport.send(message)
        except (TransportFailure, RequestTimeout, ProtocolError):
            link.ship_failures += 1
            return False
        for fault in reply.faults:
            if fault.startswith(FENCED_FAULT_PREFIX):
                self.fenced = fault[len(FENCED_FAULT_PREFIX):].strip()
                self.metrics.inc("repl.fenced")
                return False
        outcome = reply.action_outcome
        if outcome is None or not outcome.success:
            link.ship_failures += 1
            return False
        applied = outcome.value
        if isinstance(applied, dict) and "applied_lsn" in applied:
            link.acked_lsn = int(applied["applied_lsn"])  # type: ignore[arg-type]
            self.metrics.inc("repl.records_shipped", len(lines))
            return True
        link.ship_failures += 1
        return False

    # ---------------------------------------------------------------- gate

    def synced_lsn(self) -> int:
        """Highest LSN any follower has acknowledged."""
        with self._lock:
            return max((link.acked_lsn for link in self._links), default=0)

    def gate(self) -> str | None:
        """Why the primary must not ack right now (``None`` = go ahead).

        Plugged into :attr:`repro.net.server.PromiseServer.gate`.  A
        fenced sender never acks again; a lagging one gets one
        immediate re-flush before the request is refused, so a single
        dropped ship does not bounce a healthy client.  With no
        followers registered the gate is open — the group has
        *degraded to a single copy* (every follower promoted or gone),
        which is weaker but strictly no worse than an unreplicated
        shard; :meth:`ReplicatedFleet.rejoin` restores redundancy.
        """
        if self.fenced is not None:
            return f"deposed primary ({self.fenced})"
        with self._lock:
            if not self._links:
                return None
            target = self._wal.last_lsn
            if any(link.acked_lsn >= target for link in self._links):
                return None
            if self.flush():
                return None
            return (
                f"replication lagging: no follower of {self.group} "
                f"holds lsn {target}"
            )

    def status(self) -> dict[str, object]:
        """Vitals for ping replies and the CLI."""
        with self._lock:
            return {
                "group": self.group,
                "epoch": self.epoch,
                "last_lsn": self._wal.last_lsn,
                "synced_lsn": self.synced_lsn(),
                "followers": {
                    link.name: link.acked_lsn for link in self._links
                },
                "lag": self._lags(),
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
