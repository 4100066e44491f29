"""Exception hierarchy for the transactional storage substrate.

The storage layer backs both the Resource Manager and the promise table
(paper, Section 8).  Every error raised by the substrate derives from
:class:`StorageError` so callers can catch storage failures uniformly while
still distinguishing aborts, deadlocks and misuse.
"""

from __future__ import annotations


class StorageError(Exception):
    """Base class for all storage-substrate errors."""


class TransactionError(StorageError):
    """Base class for errors tied to a specific transaction."""

    def __init__(self, message: str, txn_id: int | None = None) -> None:
        super().__init__(message)
        self.txn_id = txn_id


class TransactionAborted(TransactionError):
    """The transaction was rolled back and cannot perform further work."""


class DeadlockDetected(TransactionAborted):
    """The transaction was chosen as a deadlock victim and aborted.

    The paper (Section 9) contrasts promises with lock-based schemes exactly
    on this point: unfulfillable promise requests are rejected immediately,
    so promise managers never deadlock, whereas the long-duration 2PL
    baseline can and does raise this error under contention.
    """


class LockTimeout(TransactionError):
    """A lock request waited longer than the caller allowed."""


class TransactionStateError(TransactionError):
    """Operation attempted on a transaction in an incompatible state."""


class KeyNotFound(StorageError):
    """A read referenced a key that does not exist in the store."""

    def __init__(self, table: str, key: object) -> None:
        super().__init__(f"key {key!r} not found in table {table!r}")
        self.table = table
        self.key = key


class TableNotFound(StorageError):
    """An operation referenced a table that was never created."""

    def __init__(self, table: str) -> None:
        super().__init__(f"table {table!r} does not exist")
        self.table = table


class DuplicateKey(StorageError):
    """An insert would overwrite an existing row."""

    def __init__(self, table: str, key: object) -> None:
        super().__init__(f"key {key!r} already exists in table {table!r}")
        self.table = table
        self.key = key


class RecoveryError(StorageError):
    """The write-ahead log could not be replayed into a consistent state."""


class DurabilityError(StorageError):
    """A write or fsync of the write-ahead log failed.

    Nothing the failed barrier covered may be acknowledged, and the log
    stays failed: every later barrier raises this too.
    """
