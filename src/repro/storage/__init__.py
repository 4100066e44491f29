"""Transactional storage substrate.

An embedded key-value store with ACID transactions, strict two-phase
locking, undo-log rollback and a write-ahead log.  Stands in for the DBMS
behind the paper prototype's Resource Manager (Greenfield et al., Section 8).
"""

from .errors import (
    DeadlockDetected,
    DuplicateKey,
    DurabilityError,
    KeyNotFound,
    RecoveryError,
    StorageError,
    TableNotFound,
    TransactionAborted,
    TransactionError,
    TransactionStateError,
)
from .locks import LockManager, LockMode, LockStatus
from .store import Store
from .transactions import Savepoint, Transaction, TransactionStatus
from .wal import LogRecord, LogRecordType, WriteAheadLog

__all__ = [
    "DeadlockDetected",
    "DuplicateKey",
    "DurabilityError",
    "KeyNotFound",
    "LockManager",
    "LockMode",
    "LockStatus",
    "LogRecord",
    "LogRecordType",
    "RecoveryError",
    "Savepoint",
    "StorageError",
    "Store",
    "TableNotFound",
    "Transaction",
    "TransactionAborted",
    "TransactionError",
    "TransactionStateError",
    "TransactionStatus",
    "WriteAheadLog",
]
