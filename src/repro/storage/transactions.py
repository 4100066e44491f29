"""Transaction objects for the embedded store.

A :class:`Transaction` is a handle bound to a :class:`~repro.storage.store.Store`;
all reads and writes go through it so the store can enforce strict two-phase
locking and maintain the undo log, from which a commit's one WAL line is
built.  The promise manager
wraps each client request in exactly one of these transactions (paper, §8),
covering the application action *and* the subsequent promise checking, so a
detected violation rolls everything back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Iterator

from .errors import TransactionStateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .locks import LockMode
    from .store import Store


class TransactionStatus(enum.Enum):
    """Lifecycle of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


_MISSING = object()


@dataclass(frozen=True)
class UndoEntry:
    """Before-image of one key: ``old_value`` is ``_MISSING`` for inserts."""

    table: str
    key: str
    old_value: object


@dataclass(frozen=True)
class Savepoint:
    """Opaque marker for partial rollback (``rollback_to``)."""

    txn_id: int
    undo_length: int


class Transaction:
    """Handle for one ACID transaction against a :class:`Store`.

    Usable as a context manager: commits on clean exit, aborts on exception.
    """

    def __init__(self, store: "Store", txn_id: int) -> None:
        self._store = store
        self.txn_id = txn_id
        self.status = TransactionStatus.ACTIVE
        self.undo_log: list[UndoEntry] = []
        #: Lock key → the mode the lock manager granted this transaction.
        #: Under strict 2PL the set only grows until commit or abort, so
        #: the store answers a request it already covers from here.
        self.locks: dict[Hashable, "LockMode"] = {}

    # ------------------------------------------------------------- protocol

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.status is TransactionStatus.ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Transaction(id={self.txn_id}, status={self.status.value})"

    # ------------------------------------------------------------ data API

    def get(self, table: str, key: str) -> object:
        """Read ``key`` from ``table`` under a shared lock.

        The value is the stored row itself, which is immutable: to change
        it, build a new value and :meth:`put` it."""
        self._require_active()
        return self._store._get(self, table, key)

    def get_or_none(self, table: str, key: str) -> object | None:
        """Like :meth:`get` but returns ``None`` for a missing key."""
        self._require_active()
        return self._store._get_or_none(self, table, key)

    def exists(self, table: str, key: str) -> bool:
        """True when ``key`` is present in ``table``."""
        return self.get_or_none(table, key) is not None

    def put(self, table: str, key: str, value: object) -> None:
        """Insert or overwrite ``key`` under an exclusive lock."""
        self._require_active()
        self._store._put(self, table, key, value)

    def insert(self, table: str, key: str, value: object) -> None:
        """Insert ``key``; raises :class:`DuplicateKey` when present."""
        self._require_active()
        self._store._insert(self, table, key, value)

    def delete(self, table: str, key: str) -> None:
        """Remove ``key`` under an exclusive lock."""
        self._require_active()
        self._store._delete(self, table, key)

    def update(
        self, table: str, key: str, updater: Callable[[object], object]
    ) -> object:
        """Read-modify-write ``key`` atomically; returns the new value.

        ``updater`` gets the immutable current row and returns a new one."""
        self._require_active()
        current = self._store._get(self, table, key)
        new_value = updater(current)
        self._store._put(self, table, key, new_value)
        return new_value

    def scan(
        self,
        table: str,
        predicate: Callable[[str, object], bool] | None = None,
    ) -> Iterator[tuple[str, object]]:
        """Iterate ``(key, value)`` rows, optionally filtered.

        Takes a table-level shared lock: the coarse phantom guard the paper
        alludes to when citing predicate locking (§9).
        """
        self._require_active()
        return self._store._scan(self, table, predicate)

    def keys(self, table: str) -> list[str]:
        """All keys of ``table`` visible to this transaction."""
        return [key for key, __ in self.scan(table)]

    # ----------------------------------------------------------- lifecycle

    def savepoint(self) -> Savepoint:
        """Mark the current position for a later partial rollback."""
        self._require_active()
        return Savepoint(txn_id=self.txn_id, undo_length=len(self.undo_log))

    def rollback_to(self, savepoint: Savepoint) -> None:
        """Undo all changes made after ``savepoint`` (locks are kept)."""
        self._require_active()
        if savepoint.txn_id != self.txn_id:
            raise TransactionStateError(
                "savepoint belongs to a different transaction", txn_id=self.txn_id
            )
        self._store._rollback_to(self, savepoint.undo_length)

    def commit(self) -> None:
        """Make all changes durable and release locks."""
        self._require_active()
        self._store._commit(self)

    def abort(self) -> None:
        """Undo all changes and release locks."""
        self._require_active()
        self._store._abort(self)

    @property
    def is_active(self) -> bool:
        """True while the transaction can still perform work."""
        return self.status is TransactionStatus.ACTIVE

    # ------------------------------------------------------------ internals

    def _require_active(self) -> None:
        if self.status is not TransactionStatus.ACTIVE:
            raise TransactionStateError(
                f"transaction {self.txn_id} is {self.status.value}",
                txn_id=self.txn_id,
            )
