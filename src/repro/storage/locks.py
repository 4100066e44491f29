"""Strict two-phase locking with deadlock detection.

The lock manager provides shared/exclusive locks over arbitrary hashable
resource keys.  It is *cooperative*: ``acquire`` either grants immediately,
enqueues the requester (returning :data:`LockStatus.WAITING`), or raises
:class:`~repro.storage.errors.DeadlockDetected` when granting the wait would
close a cycle in the waits-for graph.  Callers that must block (the
long-duration-locking baseline of the benchmarks) drive the wait queue by
retrying after other transactions release.

Two usage profiles:

* The storage engine uses it with short transactions, mirroring the
  prototype's internal ACID transaction per client request (paper, §8).
* The locking *baseline* uses it with long-duration locks held across a
  whole business process, reproducing the regime the paper argues against.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Iterable

from .errors import DeadlockDetected


class LockMode(enum.Enum):
    """Lock compatibility modes: shared (readers) and exclusive (writers)."""

    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible_with(self, other: "LockMode") -> bool:
        """Two locks are compatible only when both are shared."""
        return self is LockMode.SHARED and other is LockMode.SHARED


class LockStatus(enum.Enum):
    """Result of an acquire call."""

    GRANTED = "granted"
    WAITING = "waiting"


@dataclass
class _LockRequest:
    txn_id: int
    mode: LockMode


@dataclass(slots=True)
class _LockEntry:
    """State of a single lockable key: current holders plus FIFO waiters.

    ``waiters`` becomes a deque when a request first waits; the no-wait
    path never builds one (a scan locks every row of a table)."""

    holders: dict[int, LockMode] = field(default_factory=dict)
    waiters: deque[_LockRequest] | tuple[()] = ()


class LockManager:
    """Table of locks with FIFO queuing and waits-for deadlock detection.

    Deadlock policy: the *requesting* transaction is the victim.  Rejecting
    the newcomer keeps the wait graph acyclic without touching transactions
    that may already hold many locks.
    """

    def __init__(self) -> None:
        self._table: dict[Hashable, _LockEntry] = {}
        # txn -> set of txns it waits for (edge txn -> holder)
        self._waits_for: dict[int, set[int]] = {}
        # txn -> keys it holds or waits on, for release_all
        self._keys_of: dict[int, set[Hashable]] = {}

    # ------------------------------------------------------------------ API

    def acquire(self, txn_id: int, key: Hashable, mode: LockMode) -> LockStatus:
        """Request ``mode`` on ``key`` for ``txn_id``.

        Returns GRANTED or WAITING; raises :class:`DeadlockDetected` when
        waiting would create a cycle.  Re-entrant: a transaction already
        holding the key in a sufficient mode is granted immediately, and a
        shared holder that is the *only* holder may upgrade to exclusive.
        """
        entry = self._table.setdefault(key, _LockEntry())
        held = entry.holders.get(txn_id)
        if held is not None:
            if held is LockMode.EXCLUSIVE or mode is LockMode.SHARED:
                return LockStatus.GRANTED
            # Upgrade S -> X: allowed only when sole holder and no waiter
            # would be bypassed unfairly.
            if len(entry.holders) == 1 and not entry.waiters:
                entry.holders[txn_id] = LockMode.EXCLUSIVE
                return LockStatus.GRANTED
            return self._enqueue(txn_id, key, mode, entry)

        if not entry.waiters and self._grantable(entry, mode):
            entry.holders[txn_id] = mode
            self._keys_of.setdefault(txn_id, set()).add(key)
            return LockStatus.GRANTED
        return self._enqueue(txn_id, key, mode, entry)

    def try_acquire(self, txn_id: int, key: Hashable, mode: LockMode) -> bool:
        """Non-blocking acquire: grant immediately or leave no trace.

        This is the "reject rather than block" discipline the promise
        manager uses internally (paper, §9): an unfulfillable request fails
        at once instead of joining a wait queue, so deadlock is impossible.
        """
        entry = self._table.get(key)
        if entry is None:
            self._table[key] = _LockEntry({txn_id: mode})
            self._keys_of.setdefault(txn_id, set()).add(key)
            return True
        held = entry.holders.get(txn_id)
        if held is not None:
            if held is LockMode.EXCLUSIVE or mode is LockMode.SHARED:
                return True
            if len(entry.holders) == 1 and not entry.waiters:
                entry.holders[txn_id] = LockMode.EXCLUSIVE
                return True
            return False
        if not entry.waiters and self._grantable(entry, mode):
            entry.holders[txn_id] = mode
            self._keys_of.setdefault(txn_id, set()).add(key)
            return True
        return False

    def release_all(self, txn_id: int) -> list[tuple[int, Hashable]]:
        """Release every lock ``txn_id`` holds or waits for.

        Returns the ``(txn_id, key)`` pairs newly granted by promotion so a
        scheduler can resume the lucky waiters.
        """
        granted: list[tuple[int, Hashable]] = []
        for key in self._keys_of.pop(txn_id, ()):
            entry = self._table.get(key)
            if entry is None:
                continue
            entry.holders.pop(txn_id, None)
            if entry.waiters:
                entry.waiters = deque(
                    request for request in entry.waiters if request.txn_id != txn_id
                )
                granted.extend(
                    (req_txn, key) for req_txn in self._promote(key, entry)
                )
            if not entry.holders and not entry.waiters:
                del self._table[key]
        if self._waits_for:
            self._waits_for.pop(txn_id, None)
            for edges in self._waits_for.values():
                edges.discard(txn_id)
        return granted

    def holders(self, key: Hashable) -> dict[int, LockMode]:
        """Current holders of ``key`` (copy)."""
        entry = self._table.get(key)
        return dict(entry.holders) if entry else {}

    def waiting(self, key: Hashable) -> list[int]:
        """Transactions queued on ``key`` in FIFO order."""
        entry = self._table.get(key)
        return [request.txn_id for request in entry.waiters] if entry else []

    def locks_held(self, txn_id: int) -> set[Hashable]:
        """Keys on which ``txn_id`` currently holds a granted lock."""
        held = set()
        for key in self._keys_of.get(txn_id, ()):
            entry = self._table.get(key)
            if entry and txn_id in entry.holders:
                held.add(key)
        return held

    def is_waiting(self, txn_id: int) -> bool:
        """True when ``txn_id`` sits in some wait queue."""
        return bool(self._waits_for.get(txn_id))

    # ------------------------------------------------------------ internals

    @staticmethod
    def _grantable(entry: _LockEntry, mode: LockMode) -> bool:
        return all(mode.compatible_with(held) for held in entry.holders.values())

    def _enqueue(
        self, txn_id: int, key: Hashable, mode: LockMode, entry: _LockEntry
    ) -> LockStatus:
        blockers = {holder for holder in entry.holders if holder != txn_id}
        blockers.update(
            request.txn_id for request in entry.waiters if request.txn_id != txn_id
        )
        if self._would_deadlock(txn_id, blockers):
            raise DeadlockDetected(
                f"txn {txn_id} waiting on {key!r} would deadlock", txn_id=txn_id
            )
        if not entry.waiters:
            entry.waiters = deque()
        entry.waiters.append(_LockRequest(txn_id, mode))
        self._waits_for.setdefault(txn_id, set()).update(blockers)
        self._keys_of.setdefault(txn_id, set()).add(key)
        return LockStatus.WAITING

    def _would_deadlock(self, txn_id: int, blockers: Iterable[int]) -> bool:
        """DFS over waits-for edges: does any blocker (transitively) wait on us?"""
        stack = list(blockers)
        seen: set[int] = set()
        while stack:
            current = stack.pop()
            if current == txn_id:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._waits_for.get(current, ()))
        return False

    def _promote(self, key: Hashable, entry: _LockEntry) -> list[int]:
        """Grant queued requests in FIFO order while compatibility allows."""
        newly: list[int] = []
        while entry.waiters:
            request = entry.waiters[0]
            held = entry.holders.get(request.txn_id)
            if held is not None:
                # Queued upgrade: grant when sole holder.
                if len(entry.holders) == 1:
                    entry.holders[request.txn_id] = LockMode.EXCLUSIVE
                else:
                    break
            elif self._grantable(entry, request.mode):
                entry.holders[request.txn_id] = request.mode
            else:
                break
            entry.waiters.popleft()
            newly.append(request.txn_id)
            edges = self._waits_for.get(request.txn_id)
            if edges is not None:
                edges.clear()
        return newly
