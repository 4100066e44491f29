"""Strategy registry and selection heuristics.

The registry maps each resource (pool id, instance id, or collection id)
to the :class:`IsolationStrategy` that implements promises over it.  The
promise manager consults it to route every predicate.

:func:`choose_strategy` implements the "simple heuristics to choose an
appropriate implementation technique for each class of resources" the
paper lists as future work (§10):

* pure counters (anonymous pools) → resource-pool escrow, because the sum
  check is O(1) and structurally violation-proof;
* individually named instances → allocated tags ('soft locks'), matching
  standard business practice (§2, §5);
* property-described collections → tentative allocation while the
  collection is small enough that re-matching stays cheap, otherwise pure
  satisfiability checking, which defers instance choice entirely (§5).
"""

from __future__ import annotations

from typing import Iterable

from .allocated_tags import AllocatedTagsStrategy
from .base import IsolationStrategy
from .resource_pool import ResourcePoolStrategy
from .satisfiability import SatisfiabilityStrategy
from .tentative import TentativeAllocationStrategy

TENTATIVE_COLLECTION_LIMIT = 200
"""Above this many instances, re-matching on every grant stops paying for
itself and the heuristic prefers pure satisfiability checking."""


class StrategyRegistry:
    """Resource → strategy routing table.

    Unassigned resources fall back to the default strategy (pure
    satisfiability checking, the technique of the paper's prototype, §8).
    """

    def __init__(self, default: IsolationStrategy | None = None) -> None:
        self._default = default or SatisfiabilityStrategy()
        self._by_resource: dict[str, IsolationStrategy] = {}
        self._strategies: dict[str, IsolationStrategy] = {
            self._default.name: self._default
        }

    @property
    def default(self) -> IsolationStrategy:
        """The fallback strategy for unassigned resources."""
        return self._default

    def assign(self, resource_id: str, strategy: IsolationStrategy) -> None:
        """Route promises over ``resource_id`` to ``strategy``."""
        self._by_resource[resource_id] = strategy
        self._strategies[strategy.name] = strategy

    def assign_many(
        self, resource_ids: Iterable[str], strategy: IsolationStrategy
    ) -> None:
        """Route several resources to the same strategy."""
        for resource_id in resource_ids:
            self.assign(resource_id, strategy)

    def strategy_for(self, resource_id: str) -> IsolationStrategy:
        """The strategy owning ``resource_id`` (default when unassigned)."""
        return self._by_resource.get(resource_id, self._default)

    def assigned(self, resource_id: str) -> IsolationStrategy | None:
        """The explicitly assigned strategy, or ``None``.

        The promise manager uses this to fall through from an instance id
        to its collection's strategy: the same instances support named and
        anonymous/property views simultaneously (§3.2), so a promise for
        'seat 24G' must be handled by whatever technique owns the seat
        collection.
        """
        return self._by_resource.get(resource_id)

    def named(self, name: str) -> IsolationStrategy | None:
        """The registered strategy called ``name``, or ``None``."""
        return self._strategies.get(name)

    def strategies(self) -> list[IsolationStrategy]:
        """Every distinct strategy the registry knows, default included."""
        return list(self._strategies.values())

    def assignments(self) -> dict[str, str]:
        """Resource id → strategy name (introspection/debugging)."""
        return {
            resource_id: strategy.name
            for resource_id, strategy in sorted(self._by_resource.items())
        }


def choose_strategy(
    resource_kind: str,
    collection_size: int | None = None,
) -> IsolationStrategy:
    """Pick an implementation technique for a class of resources.

    ``resource_kind`` is ``"pool"``, ``"named"`` or ``"collection"``;
    ``collection_size`` tunes the tentative-vs-satisfiability trade-off
    for collections.
    """
    if resource_kind == "pool":
        return ResourcePoolStrategy()
    if resource_kind == "named":
        return AllocatedTagsStrategy()
    if resource_kind == "collection":
        if collection_size is not None and collection_size > TENTATIVE_COLLECTION_LIMIT:
            return SatisfiabilityStrategy()
        return TentativeAllocationStrategy()
    raise ValueError(
        f"unknown resource kind {resource_kind!r} "
        "(expected 'pool', 'named' or 'collection')"
    )
