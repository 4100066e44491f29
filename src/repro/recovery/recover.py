"""The restart path: rebuild a promise manager's runtime state from disk.

:class:`~repro.storage.store.Store` already replays the WAL into table
state when opened on an existing log; what it cannot rebuild is the
runtime the promise manager keeps *around* the store — the logical
clock, the id pools, the expiry sweep that should have run while the
process was down.  :func:`recover` restores all of it and then audits
the result with :class:`~repro.tools.doctor.Doctor`, returning a
:class:`RecoveryReport` a server can log (and a test can assert on).

Call it after wiring strategies: the expiry sweep dispatches each
promise's ``on_expire`` through the strategy registry, so escrowed
stock is only handed back if the owning strategy is registered again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from ..core.manager import CLOCK_KEY, MANAGER_META_TABLE, PromiseManager
from ..core.promise import Promise
from ..core.table import PROMISES_TABLE
from ..obs.metrics import MetricsRegistry
from ..tools.doctor import Doctor, Finding


@dataclass(frozen=True)
class RecoveryReport:
    """What one restart found and did."""

    wal_path: str | None
    wal_records: int
    promises_total: int
    promises_active: int
    expired_on_recovery: tuple[str, ...]
    journal_entries: int
    clock_now: int
    repaired: tuple[Finding, ...]
    findings: tuple[Finding, ...]
    notes: tuple[str, ...] = ()
    elapsed_s: float = field(default=0.0, compare=False)
    #: Metrics-registry snapshot taken right after recovery, when the
    #: caller attached one — the observability section of the report.
    metrics: Mapping[str, object] | None = field(default=None, compare=False)

    @property
    def healthy(self) -> bool:
        """True when the post-recovery audit found nothing wrong."""
        return not self.findings

    def summary(self) -> str:
        """One log line describing the recovery."""
        status = "healthy" if self.healthy else f"{len(self.findings)} findings"
        line = (
            f"recovered {self.promises_active}/{self.promises_total} live "
            f"promises from {self.wal_records} WAL records "
            f"(clock={self.clock_now}, expired-while-down="
            f"{len(self.expired_on_recovery)}, journal={self.journal_entries} "
            f"replies, {status}, {self.elapsed_s * 1000:.1f} ms)"
        )
        if self.metrics is not None:
            counters = self.metrics.get("counters", {})
            if isinstance(counters, Mapping):
                line += f" [metrics: {len(counters)} counters]"
        return line

    def metrics_section(self) -> str:
        """Multi-line observability appendix (empty without a registry)."""
        if self.metrics is None:
            return ""
        lines = ["metrics at recovery:"]
        counters = self.metrics.get("counters", {})
        if isinstance(counters, Mapping):
            for name in sorted(counters):
                lines.append(f"  {name} = {counters[name]}")
        gauges = self.metrics.get("gauges", {})
        if isinstance(gauges, Mapping):
            for name in sorted(gauges):
                lines.append(f"  {name} = {gauges[name]}")
        return "\n".join(lines)


def recover(
    manager: PromiseManager,
    *,
    repair: bool = True,
    registry: MetricsRegistry | None = None,
) -> RecoveryReport:
    """Restore ``manager``'s runtime state after a restart.

    Steps, in order:

    1. restore the logical clock to the persisted tick (floored by the
       newest ``granted_at`` on record, in case the clock row lagged);
    2. advance the promise/request id pools past every id on record, so
       new grants never collide with recovered rows;
    3. rebuild what has drifted of the per-resource promise index and
       the expiry watermark — derived state like the two above, whatever
       ``repair`` says: the sweep and every later check find promises
       through them, and a log written before they existed holds neither
       (what was rewritten is listed in the report's ``repaired``);
    4. sweep promises whose ``expires_at`` passed while the manager was
       down — they are marked EXPIRED and their ``EXPIRED`` events fire
       exactly once, here;
    5. audit with the doctor, first repairing mechanically safe drift
       when ``repair`` is set.
    """
    start = time.perf_counter()
    store = manager.store
    wal = store.wal

    stored_tick = 0
    newest_grant = 0
    promises_total = 0
    journal_entries = 0
    with store.begin() as txn:
        clock_row = txn.get_or_none(MANAGER_META_TABLE, CLOCK_KEY)
        if isinstance(clock_row, Mapping):
            stored_tick = int(clock_row.get("now", 0))  # type: ignore[arg-type]
        for key, payload in txn.scan(PROMISES_TABLE):
            promises_total += 1
            manager.observe_issued_id(key)
            try:
                promise = Promise.from_dict(payload)  # type: ignore[arg-type]
            except Exception:  # noqa: BLE001 - doctor reports malformed rows
                continue
            newest_grant = max(newest_grant, promise.granted_at)
        # Counted from the rows themselves: the journal keeps no count
        # row, and a ``__meta__`` row an older build left is not a reply.
        journal_keys = manager.journal.keys(txn)
        for key in journal_keys:
            manager.observe_issued_id(key)
        journal_entries = len(journal_keys)

    manager.clock.advance_to(max(stored_tick, newest_grant))
    doctor = Doctor(manager, registry=registry)
    repaired = tuple(doctor.rebuild_promise_index())
    expired = manager.expire_due()
    if repair:
        repaired += tuple(doctor.repair())
    findings = tuple(doctor.check())
    active = manager.live_promises = len(manager.active_promises())
    if registry is not None:
        registry.inc("recovery.runs")
        registry.inc("recovery.expired_on_recovery", len(expired))

    return RecoveryReport(
        wal_path=str(wal.path) if wal.path is not None else None,
        wal_records=len(wal),
        promises_total=promises_total,
        promises_active=active,
        expired_on_recovery=tuple(expired),
        journal_entries=journal_entries,
        clock_now=manager.clock.now,
        repaired=repaired,
        findings=findings,
        notes=tuple(wal.recovery_notes),
        elapsed_s=time.perf_counter() - start,
        metrics=registry.snapshot() if registry is not None else None,
    )
