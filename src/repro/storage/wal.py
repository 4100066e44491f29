"""Write-ahead log for the embedded store.

Records are append-only and serialisable to JSON lines, so a store can be
rebuilt after a crash by replaying committed transactions.  The log is
deliberately simple — physical REDO images keyed by (table, key) — because
the substrate only needs to honour the ACID contract the prototype relies on
(paper, §8), not compete with a production engine.

A transaction is one line, its COMMIT record, whose ``value`` is the
write set; an aborted transaction, or one that wrote nothing, leaves
none.  :func:`committed` is the one reader of that shape and of the
record-by-record one older builds wrote.

The invariant, whatever writes the file (``tests/storage/
test_one_write_path.py`` tests it apart from the code): **acked ⇒
hardened; the file is a byte prefix of the log; nothing is written after
a crash.**  The mechanism is one write path:

* :meth:`WriteAheadLog.append` renders each record's line into a pending
  buffer and writes nothing.  One routine, the *barrier*, writes the
  file: the first thread that needs durability writes, flushes and
  (``fsync=True``) fsyncs everything pending in one call; threads that
  arrive meanwhile wait for it, then find their LSN covered or lead the
  next batch.  Batches form only while a barrier is in progress — no
  flusher thread, no timer, a lone commit never waits for company.
* Outside a request (:meth:`WriteAheadLog.request_scope`) every COMMIT
  and CREATE_TABLE is a barrier, so an in-process commit returns
  hardened.  Inside one, hardening waits for the request's
  :meth:`WriteAheadLog.wait_durable`, which a server calls after its ack
  gate: one barrier per request.
* A write or fsync that fails latches the log: the barrier raises
  :class:`~repro.storage.errors.DurabilityError` to every waiter,
  ``durable_lsn`` does not move, every later barrier raises too, and no
  new transaction starts (:meth:`WriteAheadLog.raise_if_failed`) nor is a
  line buffered that nothing drains.
* Once the owning scope has simulated-crashed the disk is frozen: no
  barrier writes anything, pending lines included.
* A *torn tail* — the final line cut short by a crash mid-append — is
  logged, dropped, and truncated away rather than making the log
  unopenable; corruption anywhere *before* the tail still raises, since
  dropping committed history would be silent data loss.
* :meth:`WriteAheadLog.checkpoint` hardens what is pending into the old
  file, writes the snapshot to a temporary file and atomically
  ``os.replace``\\ s it over the log, so a crash at any point leaves
  either the full old log or the complete checkpoint — never an empty or
  half-written file.

Memory holds only what the file does not: each append (and each
follower batch) drops the in-memory prefix at or below ``durable_lsn``,
so a file-backed log's memory is the records since the last barrier,
not its history.  Whatever reads the whole log, or a
suffix older than what memory still holds, reads that prefix back from
the file (:meth:`WriteAheadLog.since`).  Nothing is dropped by a log
with no file, a latched one, one whose scope has crashed, or one that
logged a record its file will never hold.
"""

from __future__ import annotations

import contextlib
import enum
import json
import logging
import os
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator

from ..faults.crashpoints import SimulatedCrash, crash_point, crashed, should_crash
from .errors import DurabilityError, RecoveryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.metrics import MetricsRegistry

logger = logging.getLogger(__name__)

_lsn_of = attrgetter("lsn")
_lsn_at = itemgetter(0)

#: Bytes a read of the log file back from its end starts with; each
#: further step doubles what is in hand.
_READ_BACK_STEP = 64 * 1024


class LogRecordType(enum.Enum):
    """Kinds of WAL records.  BEGIN, PUT, DELETE and ABORT are only in
    logs older builds wrote."""

    CREATE_TABLE = "create_table"
    BEGIN = "begin"
    PUT = "put"
    DELETE = "delete"
    COMMIT = "commit"
    ABORT = "abort"
    CHECKPOINT = "checkpoint"


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One WAL entry.

    A COMMIT's ``value`` is its transaction's write set (module
    docstring); a CHECKPOINT's is a snapshot of the whole store.  A
    file-backed log holds in memory only the records its file does not
    yet hold; a memory-only log holds every record since its checkpoint,
    about one per transaction, so the instances carry no ``__dict__``.
    """

    lsn: int
    record_type: LogRecordType
    txn_id: int | None = None
    table: str | None = None
    key: str | None = None
    value: object | None = None

    def to_json(self) -> str:
        """Serialise to a single JSON line."""
        payload = {
            "lsn": self.lsn,
            "type": self.record_type.value,
            "txn": self.txn_id,
            "table": self.table,
            "key": self.key,
            "value": self.value,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "LogRecord":
        """Parse a JSON line produced by :meth:`to_json`."""
        try:
            payload = json.loads(line)
            return cls(
                lsn=payload["lsn"],
                record_type=LogRecordType(payload["type"]),
                txn_id=payload["txn"],
                table=payload["table"],
                key=payload["key"],
                value=payload["value"],
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise RecoveryError(f"malformed WAL line: {line!r}") from exc


class WriteAheadLog:
    """WAL with optional file persistence.

    The store appends records before applying changes; :meth:`replay` folds
    the log into the after-state of all *committed* transactions.  With
    a file, memory keeps only what the file does not hold yet (module
    docstring); without one, it keeps everything.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        fsync: bool = False,
        fault_scope: str | None = None,
    ) -> None:
        #: The records memory still holds, oldest first: with a file, the
        #: ones it does not hold yet (plus, after an open, what was read
        #: until the first append drops it).  Only ever appended to or
        #: swapped for a new list, never edited in place: :meth:`since`
        #: reads it without the mutex.
        self._records: list[LogRecord] = []
        #: Records the log holds since its checkpoint, in memory or not.
        self._count = 0
        #: Highest transaction id of those records.
        self._max_txn = 0
        #: True once a record was logged that the file will never hold
        #: (closed, crashed or torn): memory then forgets nothing more.
        self._unfiled = False
        self._next_lsn = 1
        self._path = Path(path) if path is not None else None
        self._fsync = fsync
        #: Serialises all log mutation; parallel dispatch runs handlers
        #: on worker threads, and every one of them appends here.
        self._mutex = threading.RLock()
        #: Which logical process this log belongs to, for scoped crash
        #: injection: a scoped simulated crash freezes only the disks of
        #: its own scope (one shard of a fleet), not its siblings'.
        self._fault_scope = fault_scope
        self._handle: IO[str] | None = None
        self._since_checkpoint = 0
        #: Replication taps: called with each record the local process
        #: successfully logged (appends and checkpoints, never ingests).
        self._observers: list[Callable[[LogRecord], None]] = []
        #: Per thread: how many request scopes it is inside.
        self._requests = threading.local()
        #: The barrier's state, guarded by its own lock (taken after the
        #: log mutex, never before it): lines not yet written, the LSN of
        #: the last of them, the LSN the file is hardened to, whether a
        #: barrier is writing, and the latched failure.  Only a request's
        #: barrier (:meth:`wait_durable`) runs without the log mutex, so
        #: observers hear records in LSN order (DESIGN "One write path").
        self._barrier = threading.Condition(threading.Lock())
        self._pending: list[str] = []
        self._buffered_lsn = 0
        self._durable_lsn = 0
        self._writing = False
        self._failure: OSError | None = None
        self._metrics: "MetricsRegistry | None" = None
        #: Human-readable notes recovery surfaces (torn tail drops etc.).
        self.recovery_notes: list[str] = []
        if self._path is not None:
            # A stale temp file is an interrupted checkpoint whose
            # os.replace never ran; the main log is authoritative.
            tmp = self._tmp_path()
            if tmp.exists():
                self.recovery_notes.append(
                    f"removed interrupted checkpoint temp file {tmp.name}"
                )
                tmp.unlink()
            if self._path.exists():
                self._load()
            self._handle = self._path.open("a", encoding="utf-8")
            self._buffered_lsn = self._durable_lsn = self.last_lsn

    def __len__(self) -> int:
        """Records the log holds since its checkpoint (or its start),
        whether memory still holds them or only the file does."""
        return self._count

    def __iter__(self) -> Iterator[LogRecord]:
        """Every record since the checkpoint, oldest first; what memory
        has dropped is read back from the file."""
        return iter(self.since(0))

    @property
    def last_lsn(self) -> int:
        """LSN of the most recent record, 0 when empty."""
        return self._next_lsn - 1

    @property
    def path(self) -> Path | None:
        """The backing file, when persistent."""
        return self._path

    @property
    def records_since_checkpoint(self) -> int:
        """Appends since the last checkpoint (drives auto-checkpointing)."""
        return self._since_checkpoint

    def max_txn_id(self) -> int:
        """Highest transaction id the log mentions (0 when none).

        A store reopening this log continues numbering *past* it, so
        replay never sees one id meaning two different transactions.
        Tracked as records arrive, so it reads no file.
        """
        return self._max_txn

    @property
    def durable_lsn(self) -> int:
        """Highest LSN hardened in the file (every LSN for an in-memory
        log, which has nothing to harden)."""
        if self._path is None:
            return self.last_lsn
        return self._durable_lsn

    @property
    def failed(self) -> bool:
        """True once a write or fsync failed: the log is latched and
        acknowledges nothing more until the process restarts."""
        return self._failure is not None

    @contextlib.contextmanager
    def request_scope(self) -> Iterator[None]:
        """One request's work on this thread: the COMMITs logged inside
        are not barriers — the request's
        :meth:`wait_durable` hardens them together, and a replication
        sender leaves them to the request's gate (:meth:`in_request`).
        Installed as :attr:`~repro.net.server.PromiseServer.request_scope`
        by :meth:`~repro.net.server.PromiseServer.attach_store`, beside
        the durability call that ends it."""
        depth = getattr(self._requests, "depth", 0)
        self._requests.depth = depth + 1
        try:
            yield
        finally:
            self._requests.depth = depth

    def in_request(self) -> bool:
        """True inside :meth:`request_scope` on the calling thread."""
        return getattr(self._requests, "depth", 0) > 0

    def wait_durable(self, lsn: int | None = None) -> None:
        """The ack barrier: return once ``lsn`` (default: everything
        logged so far) is hardened.

        Raises :class:`DurabilityError` when the log failed, and
        :class:`SimulatedCrash` when its scope crashed first — a dead
        process acknowledges nothing.
        """
        target = self.last_lsn if lsn is None else lsn
        self._harden(target)
        if self.durable_lsn < target and crashed(self._fault_scope):
            raise SimulatedCrash("wal.frozen")

    def set_metrics(self, registry: "MetricsRegistry | None") -> None:
        """Route ``wal.batch.*`` counters into ``registry``."""
        self._metrics = registry

    def close(self) -> None:
        """Harden what is pending, then close the file (idempotent).

        A failed log closes without writing: it is latched."""
        with self._mutex:
            try:
                if self._failure is None:
                    self._harden(self.last_lsn)
            finally:
                self._close_handle()

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def subscribe(self, observer: Callable[[LogRecord], None]) -> None:
        """Register a tap notified after every locally-logged record.

        This is the hook WAL shipping hangs off: a replication sender
        subscribes and forwards each record to the shard's followers.
        Observers run synchronously after the record's barrier, so a
        boundary outside a request is never shipped before it is on the
        primary's own disk; they are *not* called for :meth:`ingest`\\ ed
        records (a follower does not re-ship what its primary sent it)
        nor once the owning scope has simulated-crashed (a dead process
        ships nothing).
        """
        self._observers.append(observer)

    def unsubscribe(self, observer: Callable[[LogRecord], None]) -> None:
        """Remove a previously-subscribed tap (idempotent)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    def _notify(self, record: LogRecord) -> None:
        if not self._observers or crashed(self._fault_scope):
            return
        for observer in list(self._observers):
            observer(record)

    def append(
        self,
        record_type: LogRecordType,
        txn_id: int | None = None,
        table: str | None = None,
        key: str | None = None,
        value: object | None = None,
    ) -> LogRecord:
        """Append a record, assigning the next LSN; its line is pending
        until a barrier writes it — at once, for a boundary record
        outside a request.  A failed log raises :class:`DurabilityError`
        for a CREATE_TABLE, before anything changes."""
        with self._mutex:
            if record_type is LogRecordType.CREATE_TABLE:
                self.raise_if_failed()
            record = LogRecord(
                lsn=self._next_lsn,
                record_type=record_type,
                txn_id=txn_id,
                table=table,
                key=key,
                value=value,
            )
            self._next_lsn += 1
            self._hold(record)
            self._forget_hardened()
            self._since_checkpoint += 1
            if self._handle is not None and not crashed(self._fault_scope):
                line = record.to_json() + "\n"
                if should_crash("wal.torn-append", self._fault_scope):
                    # Power loss mid-append: what is pending reaches the
                    # disk, then half of this record.
                    self._unfiled = True
                    self._buffer(record.lsn, line[: max(1, len(line) // 2)])
                    self._harden(record.lsn, dying=True)
                    raise SimulatedCrash("wal.torn-append")
                self._buffer(record.lsn, line)
            else:
                self._unfiled = True
            if record_type is LogRecordType.CREATE_TABLE or (
                record_type is LogRecordType.COMMIT and not self.in_request()
            ):
                self._harden(record.lsn)
            self._notify(record)
            return record

    def _hold(self, record: LogRecord) -> None:
        """Keep ``record`` in memory and count it (log mutex held)."""
        self._records.append(record)
        self._count += 1
        if record.txn_id is not None and record.txn_id > self._max_txn:
            self._max_txn = record.txn_id

    def _forget_hardened(self) -> None:
        """Drop the in-memory prefix the file already holds: the records
        at or below ``durable_lsn``, but never the newest (log mutex held).

        A new list replaces the old one, so a lock-free :meth:`since`
        holding the old reference still reads a whole list, and a list
        is empty only while the log is.  Nothing is dropped without a
        file, once the log is latched or its scope has crashed, or once
        it logged a record the file will never hold."""
        records = self._records
        durable = self._durable_lsn
        if (
            len(records) < 2
            or records[0].lsn > durable
            or self._path is None
            or self._unfiled
            or self._failure is not None
            or crashed(self._fault_scope)
        ):
            return
        kept = min(bisect_right(records, durable, key=_lsn_of), len(records) - 1)
        self._records = records[kept:]

    def _buffer(self, lsn: int, line: str) -> None:
        """Queue a line for the next barrier (log mutex held; not once failed)."""
        with self._barrier:
            if self._failure is None:
                self._pending.append(line)
                self._buffered_lsn = lsn

    def raise_if_failed(self) -> None:
        """Refuse new work on a latched log: :class:`DurabilityError`
        once a write or fsync failed (a store checks this in ``begin``)."""
        if self._failure is not None:
            raise DurabilityError(
                f"{self._path}: log write failed: {self._failure}"
            ) from self._failure

    def _harden(self, lsn: int, *, dying: bool = False) -> None:
        """The barrier, and the one routine that writes the log file.

        Returns once the file holds everything up to ``lsn``: the first
        caller to find it unwritten takes *all* pending lines, releases
        the lock and writes, flushes and (``fsync=True``) fsyncs them in
        one call; callers arriving meanwhile wait, then find their LSN
        covered or lead the next batch.  A failed write latches the log
        and raises to every caller, now and later.  Does nothing for a
        closed or in-memory log, nor once the scope has crashed (the
        torn append passes ``dying`` to write its last gasp); returns
        early, too, when what covers ``lsn`` was never buffered (logged
        while closed or crashed).
        """
        with self._barrier:
            while self._durable_lsn < lsn:
                self.raise_if_failed()
                if self._handle is None or (
                    crashed(self._fault_scope) and not dying
                ):
                    return
                if self._writing:
                    self._barrier.wait()
                    continue
                if not self._pending:
                    return  # ``lsn`` was logged while nothing was buffered
                lines, self._pending = self._pending, []
                top, handle = self._buffered_lsn, self._handle
                self._writing = True
                self._barrier.release()
                failure: OSError | None = None
                try:
                    handle.write("".join(lines))
                    handle.flush()
                    if self._fsync:
                        os.fsync(handle.fileno())
                except OSError as exc:  # latched: raised at the loop's top
                    failure = exc
                finally:
                    self._barrier.acquire()
                    self._writing = False
                    self._barrier.notify_all()
                if failure is None:
                    self._durable_lsn = top
                else:
                    self._failure = failure
                if self._metrics is not None:
                    if failure is None:
                        self._metrics.inc("wal.batch.flushes")
                        self._metrics.inc("wal.batch.records", len(lines))
                        self._metrics.observe("wal.batch.size", float(len(lines)))
                    else:
                        self._metrics.inc("wal.batch.flush_errors")

    def since(self, lsn: int) -> list[LogRecord]:
        """Records with an LSN above ``lsn``, oldest first.

        The suffix a replication link that holds ``lsn`` is missing.
        When memory still holds the record after ``lsn`` — a link that
        keeps up — it is found by bisection, so the cost is the suffix,
        not the log.  Older records, which memory has dropped, are read
        back from the file.  After a checkpoint truncated past ``lsn``
        the suffix is the whole log, starting with the CHECKPOINT record
        the receiver applies as a file replace.

        Takes no lock, and must not: the replication sender calls this
        holding its own lock, while its observer runs *under* the log
        mutex — taking the mutex here would invert that order and
        deadlock a gate-path flush against an appending worker.  It
        reads one reference to the record list instead, which is only
        ever appended to or swapped for a new list, and a file that a
        checkpoint replaces whole.
        """
        filed, records = self._suffix(lsn)
        if not filed:
            return records
        return [LogRecord.from_json(line) for _, line in filed] + records

    def lines(self) -> list[tuple[int, str]]:
        """The whole log as ``(lsn, line)`` pairs: what the file holds
        as it holds it, unparsed, then what only memory holds, rendered."""
        filed, records = self._suffix(0)
        return filed + [(record.lsn, record.to_json()) for record in records]

    def _suffix(self, lsn: int) -> tuple[list[tuple[int, str]], list[LogRecord]]:
        """What :meth:`since` returns, split: the file's lines past
        ``lsn`` that memory no longer holds, then the records it does.

        The record list is read first, then the file, so the file holds
        everything below the list's head — unless a checkpoint replaced
        it in between, and then it starts with a CHECKPOINT newer than
        that head and is the whole answer."""
        records = self._records
        if (
            not records  # the log is empty
            or self._path is None
            or records[0].lsn <= lsn + 1
            or records[0].lsn == 1
            or records[0].record_type is LogRecordType.CHECKPOINT
        ):
            return [], records[bisect_right(records, lsn, key=_lsn_of):]
        entries, first = self._filed(lsn)
        floor = records[0].lsn
        if first is not None and (
            first.record_type is LogRecordType.CHECKPOINT and first.lsn >= floor
        ):
            return entries[bisect_right(entries, lsn, key=_lsn_at):], []
        end = bisect_left(entries, floor, key=_lsn_at)
        if end and entries[end - 1][0] != floor - 1:
            raise RecoveryError(
                f"{self._path}: the file ends at lsn {entries[end - 1][0]}, "
                f"memory starts at {floor}"
            )
        filed = entries[bisect_right(entries, lsn, key=_lsn_at) : end]
        top = filed[-1][0] if filed else lsn
        return filed, records[bisect_right(records, top, key=_lsn_of):]

    def _filed(self, lsn: int) -> tuple[list[tuple[int, str]], LogRecord | None]:
        """The file's whole lines from the one after ``lsn`` on — or from
        its start — as ``(lsn, line)`` pairs, and the first of them parsed.

        Read backward from the end in growing steps until a whole line
        at or before ``lsn + 1`` is in hand, so a link a few records
        behind reads a few records, not the file.  One open handle keeps
        the read on one file should a checkpoint replace it meanwhile,
        and a line a barrier is still writing is left out.  LSNs in a
        file run one by one, so only the first and last lines are parsed
        when their distance says so."""
        assert self._path is not None
        with self._path.open("rb") as handle:
            start = handle.seek(0, os.SEEK_END)
            data = b""
            while start:
                step = min(start, max(_READ_BACK_STEP, len(data)))
                start -= step
                handle.seek(start)
                data = handle.read(step) + data
                head = data.find(b"\n") + 1  # where the first whole line begins
                tail = data.find(b"\n", head)
                if head and tail != -1:
                    if LogRecord.from_json(data[head:tail].decode()).lsn <= lsn + 1:
                        data = data[head:]
                        break
        text = data[: data.rfind(b"\n") + 1].decode("utf-8")
        lines = [line for line in text.split("\n") if line]
        if not lines:
            return [], None
        first = LogRecord.from_json(lines[0])
        last = LogRecord.from_json(lines[-1]).lsn
        if last - first.lsn == len(lines) - 1:
            return list(zip(range(first.lsn, last + 1), lines)), first
        return [(LogRecord.from_json(line).lsn, line) for line in lines], first

    def ingest(self, record: LogRecord) -> bool:
        """Apply one record shipped from a replication primary: the
        one-record case of :meth:`ingest_lines`.  Returns True when the
        record advanced the log."""
        with self._mutex:
            return self._ingest_locked([(record, record.to_json())]) == 1

    def ingest_lines(self, lines: str) -> int:
        """Apply a batch shipped from a replication primary.

        ``lines`` is newline-joined :meth:`LogRecord.to_json` output —
        this log's own file format — and each accepted line is written
        to the file *verbatim*, so a follower's log is byte-compatible
        with its primary's by construction and promotion can boot a
        deployment straight off it.  Unlike :meth:`append`, records keep
        the LSN the primary assigned.  Records at or below
        :attr:`last_lsn` were already applied (the sender re-ships its
        backlog after a transient failure) and are skipped, making
        delivery idempotent.  The batch is one barrier, before the
        receiver acks it; a CHECKPOINT inside it hardens what precedes
        it and then swaps the file exactly as a local checkpoint would.
        Returns how many records advanced the log.
        """
        entries = [
            (LogRecord.from_json(line), line)
            for line in lines.split("\n")
            if line
        ]
        with self._mutex:
            return self._ingest_locked(entries)

    def _ingest_locked(self, entries: list[tuple[LogRecord, str]]) -> int:
        self._forget_hardened()
        applied = 0
        for record, line in entries:
            if record.lsn <= self.last_lsn:
                continue
            if record.record_type is LogRecordType.CHECKPOINT:
                self._swap_in(record, line + "\n")
            else:
                self._hold(record)
                self._since_checkpoint += 1
                if self._handle is not None and not crashed(self._fault_scope):
                    self._buffer(record.lsn, line + "\n")
                else:
                    self._unfiled = True
            self._next_lsn = record.lsn + 1
            applied += 1
        self._harden(self.last_lsn)
        return applied

    def checkpoint(self, snapshot: dict[str, dict[str, object]]) -> LogRecord:
        """Write a CHECKPOINT carrying a full store snapshot and truncate.

        After a checkpoint, replay starts from the snapshot rather than the
        beginning of time.  The file swap is atomic (temp file +
        ``os.replace``): a crash mid-checkpoint leaves the previous log
        intact, never a destroyed one.
        """
        with self._mutex:
            record = LogRecord(
                lsn=self._next_lsn,
                record_type=LogRecordType.CHECKPOINT,
                value=snapshot,
            )
            self._swap_in(record, record.to_json() + "\n")
            self._next_lsn += 1
            self._notify(record)
            return record

    def _swap_in(self, record: LogRecord, line: str) -> None:
        """Make ``record`` the whole log, in memory and on disk.

        What is pending is hardened into the *old* file first: its
        waiters' LSNs predate the checkpoint and must not be left
        pointing at lines that never reached any disk."""
        self._harden(record.lsn - 1)
        filed = self._path is not None and not crashed(self._fault_scope)
        if filed:
            tmp = self._tmp_path()
            with tmp.open("w", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                if self._fsync:
                    os.fsync(handle.fileno())
            crash_point("wal.mid-checkpoint", self._fault_scope)
            self._close_handle()
            os.replace(tmp, self._path)
            crash_point("wal.after-checkpoint-replace", self._fault_scope)
            if self._fsync:
                # os.replace makes the swap atomic but not durable: the
                # rename lives in the directory, and a power loss before
                # the directory block reaches disk can resurrect the old
                # log (or the temp name) after the checkpoint was
                # acknowledged.  Fsyncing the parent directory pins the
                # rename.
                dir_fd = os.open(self._path.parent, os.O_RDONLY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
            self._handle = self._path.open("a", encoding="utf-8")
            with self._barrier:
                self._buffered_lsn = self._durable_lsn = record.lsn
        self._unfiled = not filed
        self._records = [record]
        self._count, self._max_txn = 1, 0
        self._since_checkpoint = 0

    def replay(self) -> dict[str, dict[str, object]]:
        """Fold the log into table->key->value state of committed work.

        Uncommitted (in-flight or aborted) transactions leave no trace —
        they logged nothing, or, in an older build's log, no COMMIT —
        which is exactly the atomicity contract the promise manager's
        per-request transaction depends on.
        """
        state: dict[str, dict[str, object]] = {}
        for record, ops in committed(self):
            if record.record_type is LogRecordType.CREATE_TABLE:
                state.setdefault(record.table or "", {})
            elif record.record_type is LogRecordType.CHECKPOINT:
                if not isinstance(record.value, dict):
                    raise RecoveryError("checkpoint record missing snapshot")
                state = {
                    table: dict(rows) for table, rows in record.value.items()
                }
            for table, key, *value in ops:
                rows = state.setdefault(table, {})
                if value:
                    rows[key] = value[0]
                else:
                    rows.pop(key, None)
        return state

    # ------------------------------------------------------------ internals

    def _tmp_path(self) -> Path:
        assert self._path is not None
        return self._path.with_name(self._path.name + ".tmp")

    def _load(self) -> None:
        """Read the log back, tolerating a crash-torn final line.

        A record cut short mid-append is the *expected* signature of a
        crash; it was never acknowledged, so it is dropped and the file
        truncated back to the last whole record.  A malformed line with
        valid records after it is genuine corruption and still raises.
        """
        assert self._path is not None
        raw = self._path.read_bytes()
        pos = 0
        truncate_at: int | None = None
        while pos < len(raw):
            newline = raw.find(b"\n", pos)
            end = newline + 1 if newline != -1 else len(raw)
            line = raw[pos:end].strip()
            if line:
                try:
                    record = LogRecord.from_json(line.decode("utf-8"))
                except (RecoveryError, UnicodeDecodeError) as exc:
                    if raw[end:].strip():
                        raise RecoveryError(
                            f"corrupt WAL record before end of log "
                            f"(byte offset {pos})"
                        ) from exc
                    truncate_at = pos
                    break
                self._hold(record)
                self._next_lsn = max(self._next_lsn, record.lsn + 1)
                if record.record_type is LogRecordType.CHECKPOINT:
                    self._since_checkpoint = 0
                else:
                    self._since_checkpoint += 1
            pos = end
        if truncate_at is not None:
            dropped = len(raw) - truncate_at
            note = (
                f"dropped torn tail record ({dropped} bytes) "
                f"at byte offset {truncate_at}"
            )
            logger.warning("%s: %s", self._path, note)
            self.recovery_notes.append(note)
            with self._path.open("r+b") as handle:
                handle.truncate(truncate_at)
        elif raw and not raw.endswith(b"\n"):
            # Final record is whole but its newline was lost; restore it
            # so the next append starts on a fresh line.
            with self._path.open("ab") as handle:
                handle.write(b"\n")


def committed(
    records: Iterable[LogRecord],
) -> Iterator[tuple[LogRecord, list[list]]]:
    """What a replay applies, in log order: ``(commit, ops)`` per
    committed transaction — ``[table, key, value]`` per row it put,
    ``[table, key]`` per row it deleted — and ``(record, [])`` per
    CREATE_TABLE and CHECKPOINT.

    A COMMIT whose ``value`` is null closes a group an older build
    logged record by record — BEGIN, a PUT or DELETE per write, then
    COMMIT, or ABORT or nothing to drop it — folded into the same ops.
    """
    pending: dict[int, list[list]] = {}
    for record in records:
        kind = record.record_type
        if kind is LogRecordType.COMMIT:
            if record.value is not None:
                yield record, record.value  # type: ignore[misc]
                continue
            ops = pending.pop(record.txn_id, None)  # type: ignore[arg-type]
            if ops is None:
                raise RecoveryError(f"COMMIT for unknown txn {record.txn_id}")
            yield record, ops
        elif kind is LogRecordType.CREATE_TABLE:
            yield record, []
        elif kind is LogRecordType.CHECKPOINT:
            pending.clear()
            yield record, []
        elif kind is LogRecordType.BEGIN:
            if record.txn_id is None:
                raise RecoveryError("BEGIN record without txn id")
            pending[record.txn_id] = []
        elif kind in (LogRecordType.PUT, LogRecordType.DELETE):
            if record.txn_id not in pending:
                raise RecoveryError(
                    f"change record for unknown txn {record.txn_id}"
                )
            op = [record.table or "", record.key or ""]
            if kind is LogRecordType.PUT:
                op.append(record.value)
            pending[record.txn_id].append(op)
        elif kind is LogRecordType.ABORT:
            pending.pop(record.txn_id, None)  # type: ignore[arg-type]
