"""Durable §6 reply journal.

"To make this work, the promise manager needs to treat the processing of
each message as an atomic unit" (§4) — including the *reply*.  The
in-memory :class:`~repro.protocol.correlation.ReplyCache` gives
at-most-once semantics while a process lives; this journal gives them
*across restarts* by keeping replies in a table of the same transactional
store that holds the promise table.  A reply recorded with
:meth:`ReplyJournal.record` inside the grant/action transaction commits
or vanishes together with the effect it describes, which is exactly the
atomicity a redelivered request needs: either the effect happened and
the original reply is replayable, or neither survived and re-execution
is safe.

Entries carry monotonically increasing sequence numbers; when the
journal exceeds its capacity it evicts the oldest half in one sweep, so
the amortised cost per record stays O(1) while a retry storm still finds
every recent reply.  Sequence and count live in memory (one scan on
first use, recounted by every eviction): a record is one row, and the
``__meta__`` row older builds rewrote beside it is ignored when read.
"""

from __future__ import annotations

from ..storage.transactions import Transaction

REPLY_JOURNAL_TABLE = "reply_journal"

_META_KEY = "__meta__"


class ReplyJournal:
    """Bounded, durable map of dedup key -> reply payload."""

    def __init__(
        self,
        store,
        table: str = REPLY_JOURNAL_TABLE,
        capacity: int = 4096,
    ) -> None:
        if capacity < 2:
            raise ValueError("journal capacity must be at least 2")
        self._store = store
        self._table = table
        self._capacity = capacity
        self._next_seq = self._count = 0  # 0: scanned on first record
        store.create_table(table)

    @property
    def table(self) -> str:
        """Name of the backing store table."""
        return self._table

    # -------------------------------------------------------------- in-txn

    def get(self, txn: Transaction, key: str) -> object | None:
        """The journaled reply payload for ``key``, or None if unseen."""
        entry = txn.get_or_none(self._table, key)
        if isinstance(entry, dict):
            return entry.get("payload")
        return None

    def record(self, txn: Transaction, key: str, payload: object) -> None:
        """Journal ``payload`` under ``key`` inside ``txn``.

        Calling this in the same transaction as the effect it answers is
        what makes grant-and-reply (or action-and-reply) atomic across a
        crash.  Re-recording an existing key overwrites it.  (An abort
        leaves the count off until the next eviction recounts.)
        """
        if not self._next_seq:
            rows = self._rows(txn)
            self._count = len(rows)
            self._next_seq = 1 + max(
                (int(entry.get("seq", 0)) for __, entry in rows), default=0
            )
        seq = self._next_seq
        self._next_seq += 1
        if txn.get_or_none(self._table, key) is None:
            self._count += 1
        txn.put(self._table, key, {"seq": seq, "payload": payload})
        if self._count > self._capacity:
            self._evict(txn, seq)

    def keys(self, txn: Transaction) -> list[str]:
        """All journaled dedup keys (recovery uses this to bump id pools)."""
        return [key for key, __ in self._rows(txn)]

    def entries(self, txn: Transaction) -> list[tuple[str, object]]:
        """``(key, payload)`` pairs, oldest first (server cache warm-up)."""
        rows = self._rows(txn)
        rows.sort(key=lambda item: int(item[1].get("seq", 0)))
        return [(key, entry.get("payload")) for key, entry in rows]

    def count(self, txn: Transaction) -> int:
        """Number of journaled replies."""
        return len(self._rows(txn))

    # ------------------------------------------------------- own-transaction

    def entries_alone(self) -> list[tuple[str, object]]:
        """Like :meth:`entries` in a transaction of its own."""
        with self._store.begin() as txn:
            return self.entries(txn)

    def record_alone(self, key: str, payload: object) -> None:
        """Like :meth:`record` in a transaction of its own.

        Used for outcomes whose own transaction *aborted* (rejections,
        failed actions): there is no effect to be atomic with, so a
        crash between the abort and this record merely lets the retry
        re-evaluate — which is safe, because nothing happened.
        """
        with self._store.begin() as txn:
            self.record(txn, key, payload)

    # ------------------------------------------------------------ internals

    def _rows(self, txn: Transaction) -> list[tuple[str, dict]]:
        """Every reply row; a legacy ``__meta__`` row is not one."""
        return [
            (key, entry)
            for key, entry in txn.scan(self._table)
            if key != _META_KEY and isinstance(entry, dict)
        ]

    def _evict(self, txn: Transaction, next_seq: int) -> None:
        """Drop the oldest half of the journal, recounting what stays."""
        horizon = next_seq - self._capacity // 2
        rows = self._rows(txn)
        victims = [
            key for key, entry in rows if int(entry.get("seq", 0)) < horizon
        ]
        for key in victims:
            txn.delete(self._table, key)
        self._count = len(rows) - len(victims)
