"""The promise table (paper, §8).

"The promise manager keeps a record of all non-expired promises and their
predicates in a 'promise table'.  Promises are placed in this table when
they are granted and removed when they are released."

The table lives in the transactional store, so insertions and status
changes participate in the same transaction as the application action and
the resource-state reads — the "special care" §8 says is needed to keep
promise state and resource state mutually consistent.  Rather than
physically deleting released/expired rows we mark their status, preserving
an audit trail; :meth:`PromiseTable.vacuum` removes dead rows.

Two derived structures live beside the rows.  Both are written in the
transaction that changes the row they describe — so undo, WAL, recovery
and WAL shipping cover them — and can be rebuilt from the rows alone:

* one index row per *resource*, listing the live promises whose
  predicates mention it: a request loads the promises that share its
  resources (§5: "all relevant existing promises"), not every live one;
* the *earliest-expiry watermark*, a lower bound on the soonest
  ``expires_at`` among live promises: the per-request expiry sweep is
  one read until the clock reaches it.

A decoded promise is kept beside its row, in memory: rows are immutable
values (:mod:`repro.storage.frozen`), so while the store still holds the
very row a promise was decoded from, the decoded value is still right.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from typing import Callable, Iterable, Sequence

from ..storage.frozen import freeze
from ..storage.transactions import Transaction
from .errors import UnknownPromise
from .predicates import Predicate
from .promise import Promise, PromiseStatus

PROMISES_TABLE = "promise_table"
PROMISE_INDEX_TABLE = "promise_index"
#: Prefix of resource rows, so no resource id collides with the watermark.
_RESOURCE_PREFIX = "r:"
_WATERMARK_KEY = "earliest-expiry"


class PromiseTable:
    """Persistent set of promises, keyed by promise id.

    ``resource_key`` maps a resource id a predicate names to the id it is
    indexed under (the promise manager folds instances into their
    collection): promises whose keys overlap can constrain each other.
    """

    def __init__(
        self, store, resource_key: Callable[[Transaction, str], str] | None = None
    ) -> None:
        self._store = store
        self._resource_key = resource_key or (lambda txn, resource_id: resource_id)
        #: promise id → (row, the promise decoded from it).  An entry is
        #: used only while the store holds that very row object, so a
        #: write, an undo or a replay makes it a miss; nothing clears it.
        self._decoded: dict[str, tuple[object, Promise]] = {}
        store.create_table(PROMISES_TABLE)
        store.create_table(PROMISE_INDEX_TABLE)

    def insert(self, txn: Transaction, promise: Promise) -> None:
        """Record a newly granted promise."""
        txn.insert(PROMISES_TABLE, promise.promise_id, self._encode(promise))
        if promise.is_active:
            self._index(txn, promise, live=True)

    def get(self, txn: Transaction, promise_id: str) -> Promise:
        """Load one promise; raises :class:`UnknownPromise` when absent."""
        promise = self.get_or_none(txn, promise_id)
        if promise is None:
            raise UnknownPromise(promise_id)
        return promise

    def get_or_none(self, txn: Transaction, promise_id: str) -> Promise | None:
        """Load one promise, or ``None`` when absent."""
        row = txn.get_or_none(PROMISES_TABLE, promise_id)
        if row is None:
            return None
        return self._decode(promise_id, row)

    def update(self, txn: Transaction, promise: Promise) -> None:
        """Persist changed status/metadata of an existing promise."""
        if not txn.exists(PROMISES_TABLE, promise.promise_id):
            raise UnknownPromise(promise.promise_id)
        txn.put(PROMISES_TABLE, promise.promise_id, self._encode(promise))
        self._index(txn, promise, live=promise.is_active)

    def mark(
        self, txn: Transaction, promise_id: str, status: PromiseStatus
    ) -> Promise:
        """Set a promise's status and return the updated promise.

        The new row is a new top level over the stored one: its
        predicates and meta are the stored objects, not encoded again."""
        row = txn.get_or_none(PROMISES_TABLE, promise_id)
        if row is None:
            raise UnknownPromise(promise_id)
        promise = dataclasses.replace(self._decode(promise_id, row), status=status)
        marked = freeze({**row, "status": status.value})  # type: ignore[dict-item]
        self._decoded[promise_id] = (marked, promise)
        txn.put(PROMISES_TABLE, promise_id, marked)
        self._index(txn, promise, live=promise.is_active)
        return promise

    def all_promises(self, txn: Transaction) -> list[Promise]:
        """Every promise, regardless of status (audit trail included)."""
        return [
            self._decode(promise_id, row)
            for promise_id, row in txn.scan(PROMISES_TABLE)
        ]

    def _decode(self, promise_id: str, row: object) -> Promise:
        """The promise ``row`` holds, decoded once per row object."""
        entry = self._decoded.get(promise_id)
        if entry is not None and entry[0] is row:
            return entry[1]
        promise = Promise.from_dict(row)  # type: ignore[arg-type]
        self._decoded[promise_id] = (row, promise)
        return promise

    def _encode(self, promise: Promise) -> object:
        """``promise`` as the row to write, remembered as that row's
        decoding, so the next read decodes nothing.

        The row is frozen here, and the store keeps a frozen value as
        it is, so it is the very object later reads return.  Its
        ``meta`` becomes the promise's, as decoding the row would give.
        A write that fails leaves an entry no stored row matches."""
        row = freeze(promise.to_dict())
        self._decoded[promise.promise_id] = (
            row,
            dataclasses.replace(promise, meta=row["meta"]),  # type: ignore[index]
        )
        return row

    # ------------------------------------------------------ indexed reads

    def active(self, txn: Transaction, now: int | None = None) -> list[Promise]:
        """Every live promise, in id order; with ``now`` given, excludes
        ones already due to expire (they bind nothing once the sweep
        runs).  Served from the index, not the audit trail."""
        return self.reachable(txn, self.indexed_resources(txn), now)

    def resource_keys(
        self, txn: Transaction, predicates: Iterable[Predicate]
    ) -> set[str]:
        """The index keys of every resource ``predicates`` mention."""
        return {
            self._resource_key(txn, resource_id)
            for predicate in predicates
            for resource_id in predicate.resources()
        }

    def indexed_resources(self, txn: Transaction) -> list[str]:
        """Index keys of every resource that has (or had) a promise."""
        return [
            key[len(_RESOURCE_PREFIX):]
            for key in txn.keys(PROMISE_INDEX_TABLE)
            if key.startswith(_RESOURCE_PREFIX)
        ]

    def reachable(
        self, txn: Transaction, resources: Iterable[str], now: int | None = None
    ) -> list[Promise]:
        """Live promises that can constrain a change to ``resources``.

        The closure over shared resources: promises on ``resources``, on
        any other resource those mention, and so on — an ``Or`` spanning
        two pools ties both pools' promises into one jointly checked set.
        A sub-list of :meth:`active` (same order, same ``now`` filter).
        """
        found: dict[str, Promise] = {}
        seen: set[str] = set()
        frontier = list(resources)
        while frontier:
            key = frontier.pop()
            if key in seen:
                continue
            seen.add(key)
            row = txn.get_or_none(PROMISE_INDEX_TABLE, _RESOURCE_PREFIX + key)
            for promise_id in row or ():  # type: ignore[union-attr]
                if promise_id in found:
                    continue
                promise = self.get_or_none(txn, promise_id)
                if promise is not None and promise.is_active:
                    found[promise_id] = promise
                    frontier.extend(self.resource_keys(txn, promise.predicates))
        return [
            found[promise_id]
            for promise_id in sorted(found)
            if now is None or not found[promise_id].is_expired_at(now)
        ]

    def due_for_expiry(self, txn: Transaction, now: int) -> list[Promise]:
        """ACTIVE promises whose duration has elapsed at ``now``.

        One read while ``now`` is short of the watermark.  Once reached,
        one pass over the live set finds the due promises and raises the
        watermark to the earliest expiry among the rest — the caller
        expires what is returned, in this same transaction.
        """
        earliest = self._earliest(txn)
        if earliest is None or now < earliest:
            return []
        live = self.active(txn)
        staying = [p.expires_at for p in live if not p.is_expired_at(now)]
        txn.put(
            PROMISE_INDEX_TABLE, _WATERMARK_KEY, {"at": min(staying, default=None)}
        )
        return [promise for promise in live if promise.is_expired_at(now)]

    def by_client(self, txn: Transaction, client_id: str) -> list[Promise]:
        """All promises granted to one client."""
        return [
            promise
            for promise in self.all_promises(txn)
            if promise.client_id == client_id
        ]

    def count_active(self, txn: Transaction, now: int | None = None) -> int:
        """Number of live promises."""
        return len(self.active(txn, now))

    def vacuum(self, txn: Transaction) -> int:
        """Physically delete released/expired rows; returns rows removed.
        (They left the index when they were marked.)"""
        live: dict[str, tuple[object, Promise]] = {}
        dead = []
        for promise_id, row in txn.scan(PROMISES_TABLE):
            if self._decode(promise_id, row).is_active:
                live[promise_id] = self._decoded[promise_id]
            else:
                dead.append(promise_id)
        for promise_id in dead:
            txn.delete(PROMISES_TABLE, promise_id)
        # Entries whose row is gone (vacuumed, or inserted by a
        # transaction that aborted) go too.
        self._decoded = live
        return len(dead)

    # ------------------------------------------- derived-state maintenance

    def index_drift(self, txn: Transaction) -> dict[str, str]:
        """Index rows that disagree with the promise rows, as row key →
        what is wrong; empty when every resource row lists exactly its
        live promises (an empty row and an absent one mean the same) and
        the watermark is a valid lower bound."""
        return self._drift(txn)[0]

    def rebuild_index(self, txn: Transaction) -> dict[str, str]:
        """Rewrite every drifted row from the promise rows; returns what
        :meth:`index_drift` found.  Rows nothing live maps to — a ghost
        resource, the one ``active`` list of a log written before the
        per-resource index — are deleted."""
        drift, expected = self._drift(txn)
        for key in drift:
            if key in expected:
                txn.put(PROMISE_INDEX_TABLE, key, expected[key])
            else:
                txn.delete(PROMISE_INDEX_TABLE, key)
        return drift

    def _drift(self, txn: Transaction) -> tuple[dict[str, str], dict]:
        """(drifted rows, the index the promise rows imply), in one scan."""
        rows: dict[str, list[str]] = {}
        expiries = []
        for promise_id, payload in txn.scan(PROMISES_TABLE):
            try:
                promise = self._decode(promise_id, payload)
            except Exception:  # noqa: BLE001 - the doctor reports bad rows
                continue
            if promise.is_active:
                expiries.append(promise.expires_at)
                for key in self.resource_keys(txn, promise.predicates):
                    rows.setdefault(_RESOURCE_PREFIX + key, []).append(promise_id)
        expected: dict = {key: sorted(ids) for key, ids in rows.items()}
        drift: dict[str, str] = {}
        earliest, bound = min(expiries, default=None), self._earliest(txn)
        if earliest is not None and (bound is None or bound > earliest):
            expected[_WATERMARK_KEY] = {"at": earliest}
            drift[_WATERMARK_KEY] = (
                f"watermark {bound} is past the earliest live expiry {earliest}"
            )
        stored = dict(txn.scan(PROMISE_INDEX_TABLE))
        for key in sorted((expected.keys() | stored.keys()) - {_WATERMARK_KEY}):
            want, have = expected.get(key, []), stored.get(key) or []
            if have != want:
                drift[key] = f"lists {have}, the live promises are {want}"
        return drift, expected

    def _index(self, txn: Transaction, promise: Promise, live: bool) -> None:
        """List (or unlist) ``promise`` under each of its resources."""
        promise_id = promise.promise_id
        for key in self.resource_keys(txn, promise.predicates):
            row = _RESOURCE_PREFIX + key
            ids: Sequence[str] = txn.get_or_none(PROMISE_INDEX_TABLE, row) or []  # type: ignore[assignment]
            if (promise_id in ids) == live:
                continue
            if live:
                ids = sorted([*ids, promise_id])
            else:
                ids = [entry for entry in ids if entry != promise_id]
            txn.put(PROMISE_INDEX_TABLE, row, ids)
        if live:
            earliest = self._earliest(txn)
            if earliest is None or promise.expires_at < earliest:
                txn.put(
                    PROMISE_INDEX_TABLE, _WATERMARK_KEY, {"at": promise.expires_at}
                )

    def _earliest(self, txn: Transaction) -> int | None:
        """The watermark: no live promise expires before it; ``None``
        when nothing is live.  An absent row (a fresh store, an older
        log) reads as 0 — unknown, so the next sweep scans and sets it."""
        row = txn.get_or_none(PROMISE_INDEX_TABLE, _WATERMARK_KEY)
        return row.get("at") if isinstance(row, Mapping) else 0  # type: ignore[return-value]

