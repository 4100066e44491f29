"""Strategy interface for promise implementation techniques.

Section 5 of the paper catalogues implementation techniques — resource
pools, allocated tags, satisfiability checking, tentative allocation,
delegation — and insists they stay *invisible to clients*: "clients can
express their resource requirements by using abstract predicates ... and
the promise manager that receives these requests can then use whatever
techniques it wants to implement the promises".

Accordingly, each technique is an :class:`IsolationStrategy` plugged into
the promise manager per resource.  The manager routes each predicate's
atoms to the strategy owning the resources they mention; all strategy work
happens inside the manager's per-request store transaction, so a failed
grant (or a post-action violation) rolls back every side effect at once.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core.predicates import AtomicPredicate, Predicate
from ..core.promise import Promise
from ..resources.manager import ResourceManager
from ..storage.transactions import Transaction


@dataclass
class GrantDecision:
    """Outcome of a strategy's attempt to grant its share of a request.

    ``meta`` is strategy bookkeeping recorded in ``promise.meta[strategy
    name]`` — escrowed amounts, tagged instance ids, upstream promise ids —
    whatever the strategy needs at release/expiry/consistency time.
    """

    ok: bool
    reason: str = ""
    meta: dict[str, object] = field(default_factory=dict)

    @classmethod
    def granted(cls, **meta: object) -> "GrantDecision":
        """Build a successful decision."""
        return cls(ok=True, meta=dict(meta))

    @classmethod
    def rejected(cls, reason: str) -> "GrantDecision":
        """Build a rejection (never blocks — §9)."""
        return cls(ok=False, reason=reason)


@dataclass(frozen=True)
class Violation:
    """A granted promise an action's state changes have broken (§8)."""

    promise_id: str
    detail: str


class IsolationStrategy(ABC):
    """One implementation technique from §5.

    Lifecycle hooks (all run inside the manager's transaction):

    * :meth:`can_grant` — evaluate (and, for techniques that mutate
      resource state at grant time, *apply*) a candidate's atoms.  Failure
      simply aborts the surrounding transaction, undoing any mutations.
    * :meth:`on_release` — the client handed the promise back; ``consumed``
      is True when the release rode atomically on a successful action that
      used up the resources (§4, second atomicity requirement).
    * :meth:`on_expire` — duration elapsed; by default identical to an
      unconsumed release.
    * :meth:`check_consistency` — the post-action sweep (§8 'Executing
      Actions'): verify every active promise this strategy owns is still
      honourable, returning violations for the manager to roll back.
    """

    name: str = "abstract"

    @abstractmethod
    def can_grant(
        self,
        txn: Transaction,
        resources: ResourceManager,
        promise_id: str,
        duration: int,
        predicates: Sequence[Predicate],
        active_promises: Sequence[Promise],
        tagged_instances: Mapping[str, str],
    ) -> GrantDecision:
        """Try to grant ``predicates`` for ``promise_id``.

        ``active_promises`` are the live promises owned by this strategy;
        ``tagged_instances`` maps every instance currently carrying a
        promise tag to the owning promise id (across *all* strategies).
        Strategies that cannot handle disjunctions flatten each predicate
        with ``conjuncts()`` and let :class:`PredicateUnsupported`
        propagate.
        """

    @abstractmethod
    def on_release(
        self,
        txn: Transaction,
        resources: ResourceManager,
        promise: Promise,
        consumed: bool,
        active_promises: Sequence[Promise] = (),
        tagged_instances: Mapping[str, str] | None = None,
    ) -> Callable[[], None] | None:
        """Undo (or finalise, when ``consumed``) the grant-time effects.

        A consumed release *takes* the promised resources on the client's
        behalf: escrowed units are drained, tagged instances become
        'taken', and the satisfiability strategy picks and takes concrete
        instances that keep every other promise honourable.  This keeps
        the implementation technique invisible to application code, as
        §5 requires.  ``active_promises`` are the other live promises this
        strategy owns (needed to take resources safely).

        Effects *outside* the local transaction (delegation's upstream
        release) must not happen here — the surrounding transaction may
        still abort, and an upstream release cannot be rolled back.
        Return a callable instead; the manager runs it only after the
        local transaction commits.
        """

    def on_expire(
        self,
        txn: Transaction,
        resources: ResourceManager,
        promise: Promise,
    ) -> Callable[[], None] | None:
        """Default expiry behaviour: an unconsumed release."""
        return self.on_release(txn, resources, promise, consumed=False)

    def compensate(self, decision: GrantDecision) -> None:
        """Undo grant effects that live *outside* the local transaction.

        Only relevant to strategies with external side effects
        (delegation): when a sibling strategy rejects after this one
        granted, the local transaction rolls back automatically but the
        upstream promise must be released explicitly.
        """

    external = False
    """True when grant effects escape the local transaction (delegation)."""

    @abstractmethod
    def check_consistency(
        self,
        txn: Transaction,
        resources: ResourceManager,
        active_promises: Sequence[Promise],
        tagged_instances: Mapping[str, str],
    ) -> list[Violation]:
        """Post-action check: are all owned promises still honourable?"""

    # ------------------------------------------------------------ helpers

    def meta_of(self, promise: Promise) -> dict[str, object]:
        """This strategy's bookkeeping slice of a promise's metadata."""
        meta = promise.meta.get(self.name, {})
        return dict(meta) if isinstance(meta, Mapping) else {}

    @staticmethod
    def flatten_atoms(predicates: Sequence[Predicate]) -> list[AtomicPredicate]:
        """Flatten pure conjunctions to their atoms.

        Raises :class:`~repro.core.errors.PredicateUnsupported` when any
        predicate contains Or/Not — techniques that commit concrete
        resources at grant time cannot hedge across alternatives.
        """
        atoms: list[AtomicPredicate] = []
        for predicate in predicates:
            atoms.extend(predicate.conjuncts())
        return atoms

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"
