"""Resource-pool (escrow-style) strategy for anonymous resources.

"In managing anonymous interchangeable resources, it is common to keep the
available instances of each resource in a pool, and move them to a
separate 'allocated' pool to ensure that a promise can be honoured. ...
This technique is similar to escrow locking." (paper, §5)

Granting moves the promised quantity from the pool's *available* counter
into *allocated*; releasing moves it back (or consumes it when the release
rides on a purchase).  Because promised units physically leave the
available pool, concurrent activity can never violate such a promise — the
post-action consistency check only guards against application code
tampering with the allocated counter directly.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Sequence

from ..core.errors import PredicateUnsupported, UnknownResource
from ..core.predicates import QuantityAtLeast
from ..core.promise import Promise
from ..resources.manager import InsufficientResources, ResourceManager
from ..storage.transactions import Transaction
from .base import GrantDecision, IsolationStrategy, Violation

_ESCROW_KEY = "escrow"


class ResourcePoolStrategy(IsolationStrategy):
    """Escrow promised quantities into the pool's allocated counter."""

    name = "resource_pool"

    def can_grant(
        self,
        txn: Transaction,
        resources: ResourceManager,
        promise_id: str,
        duration: int,
        predicates: Sequence,
        active_promises: Sequence[Promise],
        tagged_instances: Mapping[str, str],
    ) -> GrantDecision:
        """Reserve the demanded quantities; reject on any shortfall."""
        escrow: dict[str, int] = {}
        for atom in self.flatten_atoms(predicates):
            if not isinstance(atom, QuantityAtLeast):
                raise PredicateUnsupported(
                    f"resource-pool strategy cannot promise {atom.describe()}"
                )
            escrow[atom.pool_id] = escrow.get(atom.pool_id, 0) + atom.amount
        for pool_id, amount in escrow.items():
            try:
                resources.reserve(txn, pool_id, amount)
            except InsufficientResources as exc:
                return GrantDecision.rejected(
                    f"pool {pool_id!r} has {exc.available} units, "
                    f"promise needs {exc.requested}"
                )
            except UnknownResource:
                return GrantDecision.rejected(f"unknown pool {pool_id!r}")
        return GrantDecision.granted(**{_ESCROW_KEY: escrow})

    def on_release(
        self,
        txn: Transaction,
        resources: ResourceManager,
        promise: Promise,
        consumed: bool,
        active_promises: Sequence[Promise] = (),
        tagged_instances: Mapping[str, str] | None = None,
    ) -> None:
        """Return escrowed units to the pool, or consume them."""
        escrow = self.meta_of(promise).get(_ESCROW_KEY, {})
        if not isinstance(escrow, Mapping):
            return
        for pool_id, amount in escrow.items():
            if consumed:
                resources.consume_allocated(txn, pool_id, int(amount))
            else:
                resources.unreserve(txn, pool_id, int(amount))

    def check_consistency(
        self,
        txn: Transaction,
        resources: ResourceManager,
        active_promises: Sequence[Promise],
        tagged_instances: Mapping[str, str],
    ) -> list[Violation]:
        """Allocated counters must still cover every escrowed promise."""
        needed: dict[str, int] = {}
        owners: dict[str, list[str]] = {}
        for promise in active_promises:
            escrow = self.meta_of(promise).get(_ESCROW_KEY, {})
            if not isinstance(escrow, Mapping):
                continue
            for pool_id, amount in escrow.items():
                needed[pool_id] = needed.get(pool_id, 0) + int(amount)
                owners.setdefault(pool_id, []).append(promise.promise_id)
        violations: list[Violation] = []
        for pool_id, amount in needed.items():
            try:
                allocated = resources.pool(txn, pool_id).allocated
            except UnknownResource:
                allocated = 0
            if allocated < amount:
                violations.extend(
                    Violation(
                        promise_id,
                        f"pool {pool_id!r} allocation {allocated} no longer "
                        f"covers escrowed total {amount}",
                    )
                    for promise_id in owners[pool_id]
                )
        return violations
