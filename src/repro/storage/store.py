"""Embedded transactional key-value store.

The store keeps named tables of JSON-ish records and provides ACID
transactions with strict two-phase locking, undo-log rollback and a
write-ahead log.  It is the substrate standing in for the commercial DBMS
behind the paper's prototype Resource Manager (§8): the Resource Manager
stores resource state in it, the Promise Manager stores the promise table in
it, and each client request runs inside a single store transaction so that
promise-violation detection can roll back the application's changes.

Concurrency discipline: conflicting lock requests fail immediately
(``try_acquire``): the requesting transaction is aborted and
:class:`~repro.storage.errors.TransactionAborted` raised rather than
blocking.  This mirrors the paper's observation (§9) that immediate
rejection avoids the deadlocks that plague lock-based algorithms; the
*blocking* behaviour the paper argues against lives in the locking
baseline, not here.
"""

from __future__ import annotations

import itertools
import threading
from pathlib import Path
from typing import Callable, Iterator

from ..faults.crashpoints import crash_point
from .errors import (
    DuplicateKey,
    KeyNotFound,
    TableNotFound,
    TransactionAborted,
    TransactionStateError,
)
from .frozen import freeze
from .group_commit import GroupCommitConfig
from .locks import LockManager, LockMode
from .transactions import Transaction, TransactionStatus, UndoEntry
from .wal import LogRecordType, WriteAheadLog

_MISSING = object()


def _table_sentinel(table: str) -> tuple[str, str]:
    """Lock key guarding a table's key-set (phantom protection)."""
    return ("__table__", table)


class Store:
    """Named tables of records with ACID transactions.

    Values are immutable: a row is frozen once, when it is written
    (:func:`~repro.storage.frozen.freeze`), and every read, scan,
    snapshot and checkpoint hands out the stored object itself.  A
    caller that wants a different row builds a new value and puts it.
    """

    def __init__(
        self,
        wal_path: str | Path | None = None,
        *,
        fsync: bool = False,
        auto_checkpoint_every: int | None = None,
        fault_scope: str | None = None,
        group_commit: GroupCommitConfig | None = None,
    ) -> None:
        # ``group_commit`` is accepted and ignored: the log has one
        # write path.  Kept for callers not yet moved off it.
        # ``auto_checkpoint_every`` counts log records since the last
        # checkpoint — one per committed transaction that wrote.
        if auto_checkpoint_every is not None and auto_checkpoint_every < 1:
            raise ValueError("auto_checkpoint_every must be positive")
        self._tables: dict[str, dict[str, object]] = {}
        self._locks = LockManager()
        self._fault_scope = fault_scope
        self._wal = WriteAheadLog(wal_path, fsync=fsync, fault_scope=fault_scope)
        #: Serialises whole transactions across threads.  The in-memory
        #: structures (tables, undo logs, the lock table) are not
        #: internally synchronised; a server runs each handler's
        #: transactions while holding this, then calls
        #: :meth:`wait_durable` outside it — which is where concurrent
        #: requests' commits share one barrier.
        self.mutex = threading.RLock()
        self._auto_checkpoint_every = auto_checkpoint_every
        # Continue txn numbering past anything the log already mentions,
        # so a replayed id can never mean two different transactions.
        self._txn_ids = itertools.count(self._wal.max_txn_id() + 1)
        self._active: dict[int, Transaction] = {}
        self.recovered = False
        if len(self._wal):
            self._tables = {
                table: {key: freeze(value) for key, value in rows.items()}
                for table, rows in self._wal.replay().items()
            }
            self.recovered = True

    # ----------------------------------------------------------- schema API

    def create_table(self, name: str) -> None:
        """Create ``name`` if absent (idempotent, WAL-logged)."""
        if name not in self._tables:
            self._wal.append(LogRecordType.CREATE_TABLE, table=name)
            self._tables[name] = {}

    def tables(self) -> list[str]:
        """Names of all tables."""
        return sorted(self._tables)

    def row_count(self, table: str) -> int:
        """Number of committed rows in ``table`` (no transaction needed)."""
        if table not in self._tables:
            raise TableNotFound(table)
        return len(self._tables[table])

    # ----------------------------------------------------- transaction API

    def begin(self) -> Transaction:
        """Start a new transaction (refused once the log has failed).

        Nothing is logged until it commits (:meth:`_commit`)."""
        self._wal.raise_if_failed()
        txn = Transaction(self, next(self._txn_ids))
        self._active[txn.txn_id] = txn
        crash_point("store.after-begin", self._fault_scope)
        return txn

    def transaction(self) -> Transaction:
        """Alias of :meth:`begin`, reads naturally with ``with``."""
        return self.begin()

    def run(self, work: Callable[[Transaction], object]) -> object:
        """Run ``work`` in a transaction, committing on success.

        Any exception aborts the transaction and propagates.
        """
        with self.begin() as txn:
            return work(txn)

    @property
    def active_transactions(self) -> list[int]:
        """Ids of transactions currently in flight."""
        return sorted(self._active)

    # -------------------------------------------------------- durability API

    def checkpoint(self) -> None:
        """Truncate the WAL to a snapshot of current committed state."""
        if self._active:
            raise TransactionStateError(
                "cannot checkpoint with active transactions"
            )
        self._wal.checkpoint(self._copy_tables())

    def wait_durable(self, lsn: int | None = None) -> None:
        """Durability barrier over the WAL: everything logged so far (or
        up to ``lsn``) is hardened when it returns.

        A commit outside a request is hardened before it returns; a
        server ends each request with this *after* leaving
        :attr:`mutex`, so concurrent requests ride one write and fsync.
        """
        self._wal.wait_durable(lsn)

    def close(self) -> None:
        """Release the WAL file handle (idempotent; store stays readable)."""
        self._wal.close()

    @property
    def wal(self) -> WriteAheadLog:
        """The underlying write-ahead log (read-mostly; tests and recovery)."""
        return self._wal

    @property
    def durable(self) -> bool:
        """True when the WAL is backed by a file (state survives restarts)."""
        return self._wal.path is not None

    @property
    def fault_scope(self) -> str | None:
        """Scope token for scoped crash injection (one shard of a fleet)."""
        return self._fault_scope

    @property
    def lock_manager(self) -> LockManager:
        """The underlying lock manager (exposed for the locking baseline)."""
        return self._locks

    def snapshot(self) -> dict[str, dict[str, object]]:
        """All committed state, table by table (no transaction needed).

        The table mappings are the caller's own; the rows in them are
        the stored, immutable values."""
        if self._active:
            raise TransactionStateError(
                "snapshot requires quiescence; abort active transactions first"
            )
        return self._copy_tables()

    def _copy_tables(self) -> dict[str, dict[str, object]]:
        return {table: dict(rows) for table, rows in self._tables.items()}

    # --------------------------------------------- internals used by Transaction

    def _require_table(self, table: str) -> dict[str, object]:
        try:
            return self._tables[table]
        except KeyError:
            raise TableNotFound(table) from None

    def _lock(self, txn: Transaction, key: object, mode: LockMode) -> None:
        held = txn.locks.get(key)
        if held is mode or held is LockMode.EXCLUSIVE:
            return
        if not self._locks.try_acquire(txn.txn_id, key, mode):
            self._abort(txn)
            raise TransactionAborted(
                f"txn {txn.txn_id} conflicts on {key!r} ({mode.value})",
                txn_id=txn.txn_id,
            )
        txn.locks[key] = mode

    def _get(self, txn: Transaction, table: str, key: str) -> object:
        value = self._get_or_none(txn, table, key)
        if value is None and key not in self._require_table(table):
            raise KeyNotFound(table, key)
        return value

    def _get_or_none(self, txn: Transaction, table: str, key: str) -> object | None:
        rows = self._require_table(table)
        self._lock(txn, (table, key), LockMode.SHARED)
        return rows.get(key)

    def _put(self, txn: Transaction, table: str, key: str, value: object) -> None:
        stored = freeze(value)
        rows = self._require_table(table)
        if key not in rows:
            self._lock(txn, _table_sentinel(table), LockMode.EXCLUSIVE)
        self._lock(txn, (table, key), LockMode.EXCLUSIVE)
        old = rows.get(key, _MISSING)
        txn.undo_log.append(UndoEntry(table, key, old))
        rows[key] = stored
        crash_point("store.after-put", self._fault_scope)

    def _insert(self, txn: Transaction, table: str, key: str, value: object) -> None:
        rows = self._require_table(table)
        self._lock(txn, (table, key), LockMode.EXCLUSIVE)
        if key in rows:
            raise DuplicateKey(table, key)
        self._put(txn, table, key, value)

    def _delete(self, txn: Transaction, table: str, key: str) -> None:
        rows = self._require_table(table)
        self._lock(txn, _table_sentinel(table), LockMode.EXCLUSIVE)
        self._lock(txn, (table, key), LockMode.EXCLUSIVE)
        if key not in rows:
            raise KeyNotFound(table, key)
        txn.undo_log.append(UndoEntry(table, key, rows[key]))
        del rows[key]

    def _scan(
        self,
        txn: Transaction,
        table: str,
        predicate: Callable[[str, object], bool] | None,
    ) -> Iterator[tuple[str, object]]:
        rows = self._require_table(table)
        self._lock(txn, _table_sentinel(table), LockMode.SHARED)
        # Materialise the key list so the caller may mutate during iteration.
        results: list[tuple[str, object]] = []
        for key in sorted(rows):
            self._lock(txn, (table, key), LockMode.SHARED)
            value = rows[key]
            if predicate is None or predicate(key, value):
                results.append((key, value))
        return iter(results)

    def _rollback_to(self, txn: Transaction, undo_length: int) -> None:
        while len(txn.undo_log) > undo_length:
            entry = txn.undo_log.pop()
            rows = self._tables[entry.table]
            if entry.old_value is _MISSING:
                rows.pop(entry.key, None)
            else:
                rows[entry.key] = entry.old_value

    def _commit(self, txn: Transaction) -> None:
        crash_point("store.before-commit", self._fault_scope)
        ops = self._write_set(txn)
        if ops:
            self._wal.append(LogRecordType.COMMIT, txn_id=txn.txn_id, value=ops)
        crash_point("store.after-commit", self._fault_scope)
        txn.status = TransactionStatus.COMMITTED
        self._finish(txn)
        if (
            self._auto_checkpoint_every is not None
            and not self._active
            and self._wal.records_since_checkpoint >= self._auto_checkpoint_every
        ):
            self.checkpoint()

    def _write_set(self, txn: Transaction) -> list[list]:
        """The COMMIT line's ops: every row the undo log says ``txn``
        touched, once, in first-write order, with its after-image —
        ``[table, key, value]``, or ``[table, key]`` when it is gone."""
        ops: list[list] = []
        for table, key in dict.fromkeys((e.table, e.key) for e in txn.undo_log):
            value = self._tables[table].get(key, _MISSING)
            ops.append([table, key] if value is _MISSING else [table, key, value])
        return ops

    def _abort(self, txn: Transaction) -> None:
        self._rollback_to(txn, 0)
        txn.status = TransactionStatus.ABORTED
        self._finish(txn)

    def _finish(self, txn: Transaction) -> None:
        self._locks.release_all(txn.txn_id)
        txn.locks.clear()
        self._active.pop(txn.txn_id, None)
