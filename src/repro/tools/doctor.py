"""Consistency doctor: offline audit of a promise manager's state.

Section 8 of the paper warns that "information about promises and resource
availability are stored in different places and controlled by different
managers ... special care will be needed to ensure consistency".  The
transactional design makes the hot paths safe; this tool is the *cold*
path — an audit a deployment runs periodically (or after restoring from a
WAL) to prove the cross-manager invariants still hold, and to repair the
benign kinds of drift (stale tags, stale index entries) that bugs or
manual surgery could introduce.

Checks:

* **tag integrity** — every PROMISED instance's ``promise_id`` refers to a
  live promise (stale tags strand resources forever);
* **escrow balance** — each pool's ``allocated`` counter equals the sum of
  live escrow bookkeeping over it;
* **index integrity** — the per-resource promise index, the expiry
  watermark and the per-collection instance indexes agree with a full
  scan of the rows they are derived from;
* **satisfiability** — the whole live promise set passes the manager's own
  joint consistency check;
* **record hygiene** — every stored promise deserialises.

``repair()`` fixes what is safe to fix mechanically: stale tags are reset
to available, index drift is rebuilt from scans.  Everything else is
reported only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core.manager import PromiseManager
from ..core.promise import Promise
from ..obs.metrics import MetricsRegistry
from ..core.table import PROMISES_TABLE
from ..resources.records import (
    INSTANCE_INDEX_TABLE,
    INSTANCES_TABLE,
    POOLS_TABLE,
    InstanceStatus,
)


class Severity(enum.Enum):
    """How bad a finding is."""

    ERROR = "error"       # an invariant is broken
    WARNING = "warning"   # suspicious but not provably wrong
    REPAIRED = "repaired" # was broken; fixed by repair()


@dataclass(frozen=True)
class Finding:
    """One audit finding."""

    severity: Severity
    check: str
    subject: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"[{self.severity.value}] {self.check}: {self.subject} — {self.detail}"


class Doctor:
    """Audits (and optionally repairs) one promise manager's state.

    ``registry`` (optional) makes audits self-reporting: every
    :meth:`check` bumps ``doctor.audits`` / ``doctor.findings`` and
    every :meth:`repair` bumps ``doctor.repairs``, so a fleet scrape
    shows how often each shard is audited and what the audits found.
    """

    def __init__(
        self,
        manager: PromiseManager,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._manager = manager
        self._registry = registry

    # ------------------------------------------------------------- checks

    def check(self) -> list[Finding]:
        """Run every audit; returns all findings (empty = healthy)."""
        findings: list[Finding] = []
        findings.extend(self._check_promise_records())
        findings.extend(self._check_tags())
        findings.extend(self._check_escrow())
        findings.extend(self._check_promise_index())
        findings.extend(self._check_instance_index())
        findings.extend(self._check_satisfiability())
        if self._registry is not None:
            self._registry.inc("doctor.audits")
            self._registry.inc("doctor.findings", len(findings))
        return findings

    def repair(self) -> list[Finding]:
        """Fix mechanically-safe drift; returns what was repaired.

        Stale tags (instance promised to a dead promise) are reset to
        available; the promise index, the expiry watermark and the
        instance indexes are rebuilt from the rows they are derived from.
        Run :meth:`check` afterwards to see what (if anything) remains.
        """
        repaired = self.rebuild_promise_index()
        manager = self._manager
        with manager.store.begin() as txn:
            live = {
                promise.promise_id
                for promise in self._safe_promises(txn)
                if promise.is_active
            }
            # Stale tags -> available.
            for key, payload in txn.scan(
                INSTANCES_TABLE,
                lambda __, record: bool(record.get("promise_id")),
            ):
                promise_id = str(payload["promise_id"])  # type: ignore[index]
                if promise_id not in live:
                    manager.resources.set_instance_status(
                        txn, key, InstanceStatus.AVAILABLE
                    )
                    repaired.append(
                        Finding(
                            Severity.REPAIRED,
                            "tag-integrity",
                            key,
                            f"cleared stale tag to dead promise {promise_id}",
                        )
                    )
            # Rebuild instance indexes.
            memberships: dict[str, list[str]] = {}
            for key, payload in txn.scan(INSTANCES_TABLE):
                memberships.setdefault(
                    str(payload["collection_id"]), []  # type: ignore[index]
                ).append(key)
            for collection_id, expected_members in memberships.items():
                stored = txn.get_or_none(INSTANCE_INDEX_TABLE, collection_id) or []
                if sorted(stored) != sorted(expected_members):  # type: ignore[arg-type]
                    txn.put(
                        INSTANCE_INDEX_TABLE,
                        collection_id,
                        sorted(expected_members),
                    )
                    repaired.append(
                        Finding(
                            Severity.REPAIRED,
                            "instance-index",
                            collection_id,
                            "rebuilt from instance scan",
                        )
                    )
        if self._registry is not None:
            self._registry.inc("doctor.repairs", len(repaired))
        return repaired

    def rebuild_promise_index(self) -> list[Finding]:
        """Rewrite drifted rows of the promise index, and the expiry
        watermark, from the promise rows.  Part of :meth:`repair`; recovery
        also runs it on its own, before anything reads through the index."""
        with self._manager.store.begin() as txn:
            return [
                Finding(Severity.REPAIRED, "promise-index", key, f"rebuilt: {detail}")
                for key, detail in self._manager.table.rebuild_index(txn).items()
            ]

    # ------------------------------------------------------------ internals

    def _safe_promises(self, txn) -> list[Promise]:
        """All deserialisable promises (malformed rows are reported by
        the promise-record check, not here)."""
        promises = []
        for __, payload in txn.scan(PROMISES_TABLE):
            try:
                promises.append(Promise.from_dict(payload))  # type: ignore[arg-type]
            except Exception:  # noqa: BLE001 - handled by promise-record check
                continue
        return promises

    def _check_promise_records(self) -> list[Finding]:
        findings = []
        with self._manager.store.begin() as txn:
            for key, payload in txn.scan(PROMISES_TABLE):
                try:
                    Promise.from_dict(payload)  # type: ignore[arg-type]
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    findings.append(
                        Finding(
                            Severity.ERROR,
                            "promise-record",
                            key,
                            f"does not deserialise: {exc}",
                        )
                    )
        return findings

    def _check_tags(self) -> list[Finding]:
        findings = []
        manager = self._manager
        with manager.store.begin() as txn:
            live = {
                promise.promise_id
                for promise in self._safe_promises(txn)
                if promise.is_active
            }
            for key, payload in txn.scan(
                INSTANCES_TABLE,
                lambda __, record: bool(record.get("promise_id")),
            ):
                promise_id = str(payload["promise_id"])  # type: ignore[index]
                if promise_id not in live:
                    findings.append(
                        Finding(
                            Severity.ERROR,
                            "tag-integrity",
                            key,
                            f"tagged to dead promise {promise_id}",
                        )
                    )
        return findings

    def _check_escrow(self) -> list[Finding]:
        findings = []
        manager = self._manager
        with manager.store.begin() as txn:
            escrowed: dict[str, int] = {}
            for promise in self._safe_promises(txn):
                if not promise.is_active:
                    continue
                meta = promise.meta.get("resource_pool", {})
                escrow = meta.get("escrow", {}) if isinstance(meta, dict) else {}
                for pool_id, amount in escrow.items():
                    escrowed[pool_id] = escrowed.get(pool_id, 0) + int(amount)
            for key, payload in txn.scan(POOLS_TABLE):
                allocated = int(payload["allocated"])  # type: ignore[index]
                expected = escrowed.get(key, 0)
                if allocated != expected:
                    findings.append(
                        Finding(
                            Severity.ERROR,
                            "escrow-balance",
                            key,
                            f"allocated={allocated} but live escrow sums "
                            f"to {expected}",
                        )
                    )
        return findings

    def _check_promise_index(self) -> list[Finding]:
        with self._manager.store.begin() as txn:
            return [
                Finding(Severity.ERROR, "promise-index", key, detail)
                for key, detail in self._manager.table.index_drift(txn).items()
            ]

    def _check_instance_index(self) -> list[Finding]:
        findings = []
        with self._manager.store.begin() as txn:
            memberships: dict[str, set[str]] = {}
            for key, payload in txn.scan(INSTANCES_TABLE):
                memberships.setdefault(
                    str(payload["collection_id"]), set()  # type: ignore[index]
                ).add(key)
            indexed: dict[str, set[str]] = {
                key: set(value)  # type: ignore[arg-type]
                for key, value in txn.scan(INSTANCE_INDEX_TABLE)
            }
            for collection_id in sorted(set(memberships) | set(indexed)):
                actual = memberships.get(collection_id, set())
                stored = indexed.get(collection_id, set())
                if actual != stored:
                    findings.append(
                        Finding(
                            Severity.ERROR,
                            "instance-index",
                            collection_id,
                            f"index has {len(stored)} members, scan finds "
                            f"{len(actual)}",
                        )
                    )
        return findings

    def _check_satisfiability(self) -> list[Finding]:
        violations = self._manager.check_all()
        return [
            Finding(
                Severity.ERROR,
                "satisfiability",
                violation.promise_id,
                violation.detail,
            )
            for violation in violations
        ]
