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

Replication speaks the log, not the client protocol.  Each follower
gets the suffix past its link's cursor — read by bisection from the
log's memory while the link keeps up, and back from its file once it
lags (:meth:`~repro.storage.wal.WriteAheadLog.since`) — as one
length-prefixed frame on a plain blocking socket: a JSON
header line ``{"group", "epoch", "op", "from_lsn"}`` (``op`` is
``ship`` or ``full_sync``; ``from_lsn`` is the LSN the batch continues
from), then the WAL lines verbatim — the log's own file format.  Every
lagging follower's frame is on its wire before any ack is awaited.  The
receiver writes the lines *verbatim* into its own file
(:meth:`~repro.storage.wal.WriteAheadLog.ingest_lines`: one barrier —
one write and one fsync — per batch) and answers one JSON frame,
``{"applied_lsn": n}`` read off its log after that barrier, or
``{"fenced": "repl-fenced: …"}``.  So the follower's file is the
primary's byte for byte — promotion boots a deployment straight off it
through the normal recovery path.  Acks are matched to frames by order
alone, so any error or timeout closes the link's socket and the next
flush reconnects: a late ack is never read as the answer to a later
frame.

Four properties carry the failover guarantees:

* **Idempotent delivery** — the sender re-ships the full unacked suffix
  after any failure; the receiver skips records at or below its applied
  LSN, so redelivery can never double-apply.
* **No gaps** — a batch whose ``from_lsn`` is past the follower's end
  (the sender's cursor ran ahead of a follower that lost records) is
  refused whole: nothing is written, the ack carries the true
  ``applied_lsn``, and the sender moves its cursor back to it.
* **Epoch fencing** — every frame carries the sender's epoch; a receiver
  that has adopted a newer epoch (because a promotion happened) answers
  ``fenced`` and the sender latches :attr:`ReplicationSender.fenced`
  permanently: the deposed primary's stream is dead, not retried.
* **Ack gating** — :meth:`ReplicationSender.gate` plugs into
  :attr:`~repro.net.server.PromiseServer.gate`: while no live follower
  holds the last committed LSN (partitioned, lagging, or fenced), the
  primary withholds every reply, so no client ever observes state the
  replica group cannot promise to keep across a failover.
"""

from __future__ import annotations

import json
import socket
import threading
from functools import partial
from typing import Callable, Iterator, TypeVar

from ..net.framing import encode_frame, read_frame
from ..obs.metrics import MetricsRegistry
from ..protocol.errors import ProtocolError, TransportFailure
from ..storage.errors import RecoveryError
from ..storage.wal import LogRecord, LogRecordType, WriteAheadLog

#: The endpoint name ships were once sent to on a follower's
#: ``PromiseServer``.  Nothing in the program registers it any more (a
#: ship goes to the follower's log listener); ``benchmarks/perf`` still
#: imports the name.
REPL_ENDPOINT = "_repl"

#: Prefix of the reason a receiver gives for rejecting a stale-epoch
#: stream (the ``fenced`` value of its ack): the frame was delivered and
#: understood, the *sender* is what's wrong.
FENCED_FAULT_PREFIX = "repl-fenced:"

#: Records per ship frame.  A long-unreachable (or freshly rejoined)
#: follower may be missing the log's entire tail; shipping that in one
#: frame would blow the 1 MiB frame limit and fail forever — the link
#: could then *never* catch up and the primary's ack gate would stay
#: closed for good.  Chunking keeps every frame small and lets
#: ``acked_lsn`` advance chunk by chunk, so partial progress survives a
#: mid-catch-up failure.
SHIP_CHUNK_RECORDS = 512

T = TypeVar("T")


def _chunks(
    entries: list[tuple[int, T]], line_of: Callable[[T], str]
) -> Iterator[tuple[int, list[str]]]:
    """``(lsn, record or line)`` entries as frame-sized runs of WAL
    lines, rendered run by run, acked one by one, each with the LSN of
    its last record.  No entries is one empty run: an empty
    ``full_sync`` still sends its frame — the reset and the epoch
    adoption are the point."""
    for start in range(0, max(1, len(entries)), SHIP_CHUNK_RECORDS):
        run = entries[start : start + SHIP_CHUNK_RECORDS]
        yield (run[-1][0] if run else 0), [line_of(item) for _, item in run]


def _answer(**fields: object) -> bytes:
    return json.dumps(fields).encode()


class _LogConnection:
    """One blocking socket to a follower's log listener.

    Frames and acks alternate on it, so an ack is matched to its frame
    by order alone: any error or timeout closes the socket, and the
    next :meth:`begin` reconnects — it can never read an ack that
    belongs to a frame sent before.
    """

    def __init__(self, address: tuple[str, int], timeout: float) -> None:
        self._address = address
        self._timeout = timeout
        self._sock: socket.socket | None = None

    def begin(self, frame: bytes) -> Callable[[], bytes]:
        """Put ``frame`` on the wire; the returned thunk reads its ack."""
        data = encode_frame(frame)
        try:
            if self._sock is None:
                self._sock = socket.create_connection(
                    self._address, self._timeout
                )
                self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock.sendall(data)
        except OSError as exc:
            self.close()
            raise TransportFailure(f"ship to {self._address}: {exc}") from exc
        return self._ack

    def _ack(self) -> bytes:
        try:
            if self._sock is None:
                raise OSError("connection closed")
            ack = read_frame(self._sock.recv)
            if ack is None:
                raise OSError("connection closed by the follower")
            return ack
        except (OSError, ProtocolError) as exc:
            self.close()
            raise TransportFailure(f"ack from {self._address}: {exc}") from exc

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


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
    unacked suffix comes from :meth:`~repro.storage.wal.WriteAheadLog.since`:
    from memory while the link keeps up, and read back from the log's
    file once it lags behind what memory holds; a :meth:`full_sync`
    ships the file's lines verbatim.  A checkpoint truncates
    the log to a snapshot the receiver applies as a whole-file replace,
    so a follower unreachable for any length of time catches up from
    whatever the log's file still holds.

    ``transport_factory(address)`` builds a link's transport: anything
    with ``begin(frame: bytes) -> (() -> ack bytes)`` and ``close()``,
    raising :class:`~repro.protocol.errors.ProtocolError` on failure.
    The default is one blocking socket per follower.
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
        self._transport_factory = transport_factory or partial(
            _LogConnection, timeout=timeout
        )
        self._links: list[_FollowerLink] = []
        #: Held for the whole of a flush: nothing closes a transport a
        #: ship is in flight on, and one flush at a time moves cursors.
        self._lock = threading.RLock()
        #: Simulated network partition from every follower: flushes fail
        #: without touching a socket.  The chaos nemesis flips this.
        self.blocked = False
        #: Latched reason once a follower rejected our epoch: this
        #: sender belongs to a deposed primary and must never ack again.
        self.fenced: str | None = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Records per ship frame (a count, not a latency).
        self._ship_sizes = self.metrics.histogram(
            "repl.ship.records", (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
        )

    @property
    def ships(self) -> int:
        """Ship frames sent (view over ``repl.ships``)."""
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
        """Register a follower's log listener to ship to (does not sync
        it — see :meth:`full_sync`)."""
        link = _FollowerLink(name, self._transport_factory(address))
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
        follower's first frame goes on its wire, then the acks are
        awaited in turn, so the followers work at the same time and
        nothing outlives the call.

        Returns True when at least one follower acknowledges holding the
        log's last LSN — the condition under which the primary may ack.
        Failures mark the follower lagging (its suffix is re-shipped on
        the next flush); a ``fenced`` answer latches :attr:`fenced` and
        stops this sender for good.
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
                todo = [
                    (r.lsn, r)
                    for r in self._wal.since(link.acked_lsn)
                    if r.lsn <= target
                ]
                if todo:
                    chunks = _chunks(todo, line_of)
                    first = self._begin(link, "ship", link.acked_lsn, *next(chunks))
                    begun.append((link, chunks, first))
            for link, chunks, acked in begun:
                ok = acked()
                for last, lines in chunks:  # a backlog longer than one frame
                    ok = ok and self._begin(link, "ship", link.acked_lsn, last, lines)()
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
            for last, lines in _chunks(self._wal.lines(), str):
                if not self._begin(link, op, link.acked_lsn, last, lines)():
                    return False
                op = "ship"
            return True

    def full_sync_all(self) -> None:
        """Bootstrap every registered follower."""
        with self._lock:
            for link in self._links:
                self.full_sync(link)

    def _begin(
        self, link: _FollowerLink, op: str, from_lsn: int, last: int,
        lines: list[str],
    ) -> Callable[[], bool]:
        """Put one ship frame on ``link``'s wire: the header, then
        ``lines`` — WAL lines continuing ``from_lsn`` up to ``last``,
        sent as the file would hold them.  The returned thunk awaits the
        ack and moves the link's cursor; True when the batch landed."""
        self.metrics.inc("repl.ships")
        self._ship_sizes.observe(len(lines))
        header = json.dumps({
            "group": self.group,
            "epoch": self.epoch,
            "op": op,
            "from_lsn": from_lsn,
        })
        frame = "\n".join([header, *lines]).encode()
        try:
            ack_of = link.transport.begin(frame)
        except ProtocolError:  # refused, lost or timed out
            return partial(self._failed, link)
        return partial(self._finish, link, ack_of, last, len(lines))

    def _finish(
        self, link: _FollowerLink, ack_of: Callable[[], bytes], last: int,
        count: int,
    ) -> bool:
        try:
            ack = json.loads(ack_of())
        except (ProtocolError, ValueError):  # lost, timed out or garbled
            return self._failed(link)
        if not isinstance(ack, dict):
            return self._failed(link)
        fenced = ack.get("fenced")
        if isinstance(fenced, str):
            self.fenced = fenced.removeprefix(FENCED_FAULT_PREFIX).strip()
            self.metrics.inc("repl.fenced")
            return False
        applied = ack.get("applied_lsn")
        if not isinstance(applied, int):
            return self._failed(link)
        # The follower's own word, even backwards: a gap it refused puts
        # the cursor at its end, and the next flush ships from there.
        link.acked_lsn = applied
        if applied < last:
            return False
        self.metrics.inc("repl.records_shipped", count)
        return True

    def _failed(self, link: _FollowerLink) -> bool:
        """Count the failure and drop the connection: an ack still on
        its way must not answer the next frame."""
        self.metrics.inc(f"repl.ship_failures.{link.name}")
        link.close()
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

    Owns the follower's log file.  :meth:`handle` answers the frames a
    follower's log listener reads
    (:meth:`~repro.net.server.ThreadedServer.serve_frames`); promotion
    calls :meth:`promote`, after which every further frame is answered
    ``fenced`` — the epoch on the replication stream is what rejects a
    deposed primary's late writes.
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

    def handle(self, frame: bytes) -> bytes:
        """Answer one ship frame with its ack frame (see the module)."""
        head, _, body = frame.partition(b"\n")
        try:
            header = json.loads(head)
            group, op = header["group"], header["op"]
            epoch, from_lsn = int(header["epoch"]), int(header["from_lsn"])
        except (ValueError, TypeError, KeyError):
            return _answer(error="repl-malformed: bad header")
        if group != self.group:
            return _answer(
                error=f"repl-malformed: group {group!r} is not {self.group!r}"
            )
        if self.promoted or epoch < self.epoch:
            self.metrics.inc("repl.ships_fenced")
            return _answer(
                fenced=f"{FENCED_FAULT_PREFIX} receiver of {self.group} at "
                f"epoch {self.epoch}"
                + (" (promoted)" if self.promoted else "")
                + f", stream at {epoch}"
            )
        if op not in ("ship", "full_sync"):
            return _answer(error=f"repl-malformed: unknown op {op!r}")
        self.epoch = max(self.epoch, epoch)
        if op == "full_sync":
            self._reset_log()
        elif from_lsn > self.wal.last_lsn:
            # The batch continues records this log never got: writing it
            # would leave a hole.  The ack tells the sender where to
            # resume.
            self.metrics.inc("repl.gaps_refused")
            return _answer(applied_lsn=self.wal.last_lsn)
        try:
            applied = self.wal.ingest_lines(body.decode())
        except (RecoveryError, UnicodeDecodeError):
            return _answer(error="repl-malformed: bad records")
        self.metrics.inc("repl.ships_applied", applied)
        # The ack reads the log after the batch's barrier.
        return _answer(applied_lsn=self.wal.last_lsn)

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
