"""Offline history checker: isolation proven from the event log alone.

In the spirit of HISTEX-style black-box checking, the recorder taps each
shard's write-ahead log (the one total order the shard's transactions
already agree on) and keeps the raw committed records.  After the run —
chaos schedule, failover drill, pipelined benchmark, anything — the
checker folds the history offline and asserts the two properties the
concurrent hot path must not have traded away:

* **no-over-grant** — at every commit point, the escrow held by active
  promises on a pool exactly matches the pool's recorded allocation, and
  no pool's availability ever goes negative.  A double-executed grant or
  a lost release shows up here as drift between what promises claim and
  what the pool granted.
* **at-most-once** — no promise id is ever granted twice (including
  re-activation after release/consume/expiry across a failover), and no
  §6 dedup key in the reply journal is ever re-written with a different
  payload (same key, different reply = the "same" request executed
  twice).

Crash semantics ride the WAL's own: observers hear appends when they
happen, but lines no barrier had hardened yet — a request's commits
before its durability call — die with the process.  Re-attaching after
a restart prunes recorded events above the recovered LSN — exactly the
transactions whose acks the barrier had not released — so
batch-boundary recovery is checked, not fudged.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from ..storage.wal import LogRecord, LogRecordType, committed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..storage.wal import WriteAheadLog

#: Reply-journal bookkeeping key older builds rewrote on every request;
#: not a reply.  Nothing writes it now, a recovered log may still hold it.
_JOURNAL_META_KEY = "__meta__"

#: Promise states that end a grant's hold on its resources.
_TERMINAL = frozenset({"released", "consumed", "expired", "rejected"})


@dataclass(frozen=True)
class HistoryEvent:
    """One grant or settle, as committed to a shard's log."""

    shard: int
    lsn: int
    txn_id: int
    kind: str  # "grant" | "settle" | "update"
    promise_id: str
    status: str
    resources: Mapping[str, int] = field(default_factory=dict)


class HistoryRecorder:
    """Tap WALs, keep committed history, check isolation offline.

    One recorder audits a whole fleet: :meth:`attach` each shard's WAL
    at boot (and again after every restart or promotion — re-attaching
    unsubscribes the shard's previous log, so a deposed primary's
    fenced appends stop polluting the stream, and prunes events above
    the recovered LSN, the lost un-acked tail).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: dict[int, list[LogRecord]] = {}
        self._taps: dict[int, tuple["WriteAheadLog", Callable[[LogRecord], None]]] = {}

    # ------------------------------------------------------------- capture

    def attach(self, shard: int, wal: "WriteAheadLog") -> None:
        """Audit ``shard`` through ``wal`` from this point on.

        Records already captured for the shard with an LSN beyond the
        log's recovered tail are discarded: the crash (or the epoch
        fence) erased those transactions before any client was told
        about them, so the history must forget them too.
        """
        with self._lock:
            previous = self._taps.pop(shard, None)
            if previous is not None:
                old_wal, old_observer = previous
                old_wal.unsubscribe(old_observer)
            base = wal.last_lsn
            kept = [
                record
                for record in self._records.get(shard, [])
                if record.lsn <= base
            ]
            self._records[shard] = kept
            observer = self.observer(shard)
            self._taps[shard] = (wal, observer)
        wal.subscribe(observer)

    def observer(self, shard: int) -> Callable[[LogRecord], None]:
        """A raw tap for ``shard`` (manual wiring; prefers :meth:`attach`)."""

        def record(entry: LogRecord) -> None:
            if entry.record_type is LogRecordType.CHECKPOINT:
                return  # snapshots carry no new transitions
            with self._lock:
                self._records.setdefault(shard, []).append(entry)

        return record

    def detach_all(self) -> None:
        """Unsubscribe every tap (the run is over; keep the history)."""
        with self._lock:
            taps = list(self._taps.values())
            self._taps.clear()
        for wal, observer in taps:
            wal.unsubscribe(observer)

    # ------------------------------------------------------------ analysis

    def events(self, shard: int | None = None) -> list[HistoryEvent]:
        """Committed grant/settle events, in shard commit order."""
        collected: list[HistoryEvent] = []
        for index in sorted(self._shards()) if shard is None else [shard]:
            _Fold(index, self._shard_records(index), collected, []).run()
        return [event for event in collected if event.kind != "update"]

    def check(self) -> list[str]:
        """Every isolation anomaly the recorded history proves.

        Empty means clean: no over-grant, no double execution, no
        escrow drift, on any shard, at any commit point of the run.
        """
        anomalies: list[str] = []
        for index in sorted(self._shards()):
            _Fold(index, self._shard_records(index), [], anomalies).run()
        return anomalies

    @property
    def events_recorded(self) -> int:
        """Raw records captured, CHECKPOINTs aside: one per committed
        transaction, plus CREATE_TABLEs, in a log this build wrote; an
        older build's log adds its per-write records (vacuity guard)."""
        with self._lock:
            return sum(len(records) for records in self._records.values())

    def _shards(self) -> list[int]:
        with self._lock:
            return list(self._records)

    def _shard_records(self, shard: int) -> list[LogRecord]:
        with self._lock:
            return list(self._records.get(shard, []))


class _Fold:
    """One shard's offline replay: fold records, emit events + anomalies."""

    def __init__(
        self,
        shard: int,
        records: Iterable[LogRecord],
        events: list[HistoryEvent],
        anomalies: list[str],
    ) -> None:
        self.shard = shard
        self.records = records
        self.events = events
        self.anomalies = anomalies
        #: promise id -> (status, escrow, escrow-is-authoritative) of the
        #: last committed image.  Escrow read from the pool strategy's
        #: meta is authoritative for the allocation cross-check; escrow
        #: inferred from predicates only labels the event.
        self._promises: dict[str, tuple[str, dict[str, int], bool]] = {}
        #: pool id -> last committed (available, allocated).
        self._pools: dict[str, tuple[int, int]] = {}
        #: dedup key -> canonical reply payload (JSON, for comparison).
        self._replies: dict[str, str] = {}

    def run(self) -> None:
        for record, ops in committed(self.records):
            if ops:
                self._commit(record, ops)

    # ----------------------------------------------------------- folding

    def _commit(self, commit: LogRecord, ops: list[list]) -> None:
        touched_pools: set[str] = set()
        for table, key, *value in ops:
            if table == "pools":
                self._apply_pool(commit, key, value)
                touched_pools.add(key)
            elif table == "promise_table":
                self._apply_promise(commit, key, value)
            elif table == "reply_journal":
                self._apply_reply(commit, key, value)
        self._check_escrow(commit, touched_pools)

    # ``image`` is an op's after-image: ``[value]``, or ``[]`` if deleted.

    def _apply_pool(self, commit: LogRecord, pool_id: str, image: list) -> None:
        if not image:
            self._pools.pop(pool_id, None)
            return
        value = image[0] if isinstance(image[0], dict) else {}
        available = int(value.get("available", 0))
        allocated = int(value.get("allocated", 0))
        if available < 0:
            self._flag(
                commit,
                f"over-grant: pool {pool_id!r} availability went negative "
                f"({available})",
            )
        if allocated < 0:
            self._flag(
                commit,
                f"accounting: pool {pool_id!r} allocation went negative "
                f"({allocated})",
            )
        self._pools[pool_id] = (available, allocated)

    def _apply_promise(self, commit: LogRecord, promise_id: str, image: list) -> None:
        if not image:
            self._promises.pop(promise_id, None)
            return
        value = image[0] if isinstance(image[0], dict) else {}
        status = str(value.get("status", ""))
        escrow, authoritative = self._escrow_of(value)
        previous = self._promises.get(promise_id)
        if status == "active":
            if previous is None:
                kind = "grant"
            elif previous[0] == "active":
                kind = "update"  # refreshed image, same grant
            else:
                kind = "grant"
                self._flag(
                    commit,
                    f"at-most-once: promise {promise_id!r} re-granted "
                    f"after {previous[0]!r}",
                )
        elif status in _TERMINAL:
            kind = "settle"
            if previous is None:
                self._flag(
                    commit,
                    f"history: settle of unknown promise {promise_id!r}",
                )
            elif previous[0] in _TERMINAL and previous[0] != status:
                self._flag(
                    commit,
                    f"history: promise {promise_id!r} settled twice "
                    f"({previous[0]!r} then {status!r})",
                )
        else:
            kind = "update"
        self._promises[promise_id] = (status, escrow, authoritative)
        self.events.append(
            HistoryEvent(
                shard=self.shard,
                lsn=commit.lsn,
                txn_id=commit.txn_id or 0,
                kind=kind,
                promise_id=promise_id,
                status=status,
                resources=escrow,
            )
        )

    def _apply_reply(self, commit: LogRecord, key: str, image: list) -> None:
        if key == _JOURNAL_META_KEY:
            return
        if not image:
            self._replies.pop(key, None)  # journal trim: forget, not flag
            return
        value = image[0] if isinstance(image[0], dict) else {}
        payload = json.dumps(value.get("payload"), sort_keys=True)
        previous = self._replies.get(key)
        if previous is not None and previous != payload:
            self._flag(
                commit,
                f"at-most-once: dedup key {key!r} re-executed with a "
                "different reply",
            )
        self._replies[key] = payload

    # ------------------------------------------------------------ checks

    def _check_escrow(self, commit: LogRecord, pools: set[str]) -> None:
        """Active-promise escrow must equal the pool's recorded allocation."""
        if not pools:
            return
        outstanding: dict[str, int] = {}
        for status, escrow, authoritative in self._promises.values():
            if status != "active" or not authoritative:
                continue
            for pool_id, amount in escrow.items():
                outstanding[pool_id] = outstanding.get(pool_id, 0) + amount
        for pool_id in pools:
            recorded = self._pools.get(pool_id)
            if recorded is None:
                continue
            held = outstanding.get(pool_id, 0)
            if held != recorded[1]:
                self._flag(
                    commit,
                    f"over-grant: pool {pool_id!r} allocation {recorded[1]} "
                    f"!= {held} escrowed by active promises",
                )

    def _flag(self, commit: LogRecord, detail: str) -> None:
        self.anomalies.append(
            f"shard {self.shard} lsn {commit.lsn}: {detail}"
        )

    @staticmethod
    def _escrow_of(value: dict) -> tuple[dict[str, int], bool]:
        meta = value.get("meta")
        if isinstance(meta, dict):
            pool_meta = meta.get("resource_pool")
            if isinstance(pool_meta, dict):
                escrow = pool_meta.get("escrow")
                if isinstance(escrow, dict):
                    return (
                        {
                            str(pool): int(amount)
                            for pool, amount in escrow.items()
                        },
                        True,
                    )
        # No pool strategy on this promise: fall back to its quantity
        # predicates so the event still names the resources it covers.
        escrow: dict[str, int] = {}
        for predicate in value.get("predicates") or []:
            if (
                isinstance(predicate, dict)
                and predicate.get("kind") == "quantity"
            ):
                pool = str(predicate.get("pool", ""))
                escrow[pool] = escrow.get(pool, 0) + int(
                    predicate.get("amount", 0)
                )
        return escrow, False


def audit_history(recorder: HistoryRecorder) -> list[str]:
    """The recorder's anomalies, as audit violations (empty = clean)."""
    return recorder.check()
