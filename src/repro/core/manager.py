"""The Promise Manager (paper, §2, §5, §8 — the centre of Figure 2).

"A promise manager sits between clients and application services and
implements Promise functionality on behalf of a number of services and
resource managers.  The job of a promise manager is to work with
application services and resource managers to grant or deny promise
requests, check on resource availability and ensure that promises are not
violated."

The request pipeline reproduces §8 exactly:

1. each client request runs inside **one store transaction** covering the
   promise work, the application action, and the post-action check;
2. new promise requests are checked against all existing promises and
   current resource availability, and granted or rejected immediately
   (never blocking — §9);
3. actions are passed to the application; afterwards the manager re-checks
   every strategy's promises and **rolls the action back** if any promise
   was violated;
4. promise releases bundled with an action are applied only when the
   action succeeds — the action and the release are atomic (§4).

The three atomicity requirements of §4 fall out of the single-transaction
design: multi-predicate requests grant all-or-nothing, action+release is a
unit, and exchanging old promises for new ones (``PromiseRequest.releases``)
restores the old promises automatically when the new grant fails, because
the release ran inside the aborted transaction.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..faults.crashpoints import crash_point
from ..obs.metrics import MetricsRegistry
from ..resources.manager import ResourceManager
from ..resources.records import (
    COLLECTIONS_TABLE,
    INSTANCE_INDEX_TABLE,
    INSTANCES_TABLE,
    POOLS_TABLE,
)
from ..storage.store import Store
from ..storage.transactions import Transaction
from ..strategies.base import IsolationStrategy, Violation
from ..strategies.registry import StrategyRegistry
from .clock import LogicalClock
from .environment import Environment
from .events import EventHub, EventKind, PromiseEvent
from .errors import (
    ActionFailed,
    PromiseExpired,
    PromiseStateError,
    PromiseViolation,
    UnknownPromise,
)
from .predicates import Predicate
from .promise import (
    IdGenerator,
    Promise,
    PromiseRequest,
    PromiseResponse,
    PromiseResult,
    PromiseStatus,
)
from .table import PromiseTable

_STRATEGIES_KEY = "strategies"
_SPLIT_KEY = "split"

#: Table holding manager runtime state that must survive a restart
#: (currently the logical-clock tick).  Lives beside the promise table so
#: WAL replay restores it for free.
MANAGER_META_TABLE = "promise_manager_meta"
CLOCK_KEY = "clock"

#: Tables whose rows are resource state: a write to one names, by its key,
#: a resource whose promises must be re-checked after the action.
_RESOURCE_TABLES = (POOLS_TABLE, COLLECTIONS_TABLE, INSTANCE_INDEX_TABLE)

#: Bucket bounds of the ``manager.check.promises`` histogram (a count).
_WIDTH_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Committed lifecycle events that take a promise out of the live set.
_ENDINGS = (EventKind.RELEASED, EventKind.CONSUMED, EventKind.EXPIRED)


@dataclass
class ActionResult:
    """What an application action reports back to the promise manager."""

    success: bool
    value: object = None
    reason: str = ""

    @classmethod
    def ok(cls, value: object = None) -> "ActionResult":
        """A successful action."""
        return cls(success=True, value=value)

    @classmethod
    def failed(cls, reason: str) -> "ActionResult":
        """A failed action (the whole request rolls back)."""
        return cls(success=False, reason=reason)


@dataclass
class ActionContext:
    """Everything an application action may touch while executing.

    Actions run *inside* the manager's transaction; mutating resources
    through ``resources``/``txn`` is how applications change state, and the
    post-action promise check guards those changes (§8: "the promise
    manager cannot rely on the application code being always
    well-behaved").
    """

    txn: Transaction
    resources: ResourceManager
    environment: Environment
    now: int
    client_id: str

    @property
    def reader(self):
        """Transactional read view of resource state."""
        return self.resources.reader(self.txn)

    def sell(self, pool_id: str, amount: int) -> int:
        """Remove unpromised stock; shortfalls fail the action cleanly.

        This is the unprotected check-then-act operation; stock consumed
        under a promise flows through release-on-success environments
        instead, so the implementation technique stays invisible (§5).
        """
        from ..resources.manager import InsufficientResources

        try:
            self.resources.remove_stock(self.txn, pool_id, amount)
        except InsufficientResources as exc:
            raise ActionFailed("sell", str(exc)) from exc
        return amount

    def take_instance(self, instance_id: str) -> str:
        """Take an available instance; anything else fails the action."""
        from ..resources.records import InstanceStatus

        record = self.resources.instance(self.txn, instance_id)
        if record.status is not InstanceStatus.AVAILABLE:
            raise ActionFailed(
                "take_instance",
                f"{instance_id} is {record.status.value}",
            )
        self.resources.set_instance_status(
            self.txn, instance_id, InstanceStatus.TAKEN
        )
        return instance_id


Action = Callable[[ActionContext], object]
"""An application action: may return an :class:`ActionResult`, any other
value (treated as success), or raise :class:`ActionFailed`."""


@dataclass
class ExecuteOutcome:
    """Result of processing one application request (§8 pipeline)."""

    success: bool
    value: object = None
    reason: str = ""
    released: tuple[str, ...] = ()
    violations: tuple[Violation, ...] = ()

    @property
    def violated(self) -> bool:
        """True when the action was rolled back for violating promises."""
        return bool(self.violations)

    def to_dict(self) -> dict[str, object]:
        """Serialise for the reply journal."""
        return {
            "success": self.success,
            "value": self.value,
            "reason": self.reason,
            "released": list(self.released),
            "violations": [
                [violation.promise_id, violation.detail]
                for violation in self.violations
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ExecuteOutcome":
        """Inverse of :meth:`to_dict`."""
        return cls(
            success=bool(payload.get("success")),
            value=payload.get("value"),
            reason=str(payload.get("reason", "")),
            released=tuple(str(item) for item in payload.get("released", ())),  # type: ignore[union-attr]
            violations=tuple(
                Violation(str(promise_id), str(detail))
                for promise_id, detail in payload.get("violations", ())  # type: ignore[union-attr]
            ),
        )


class PromiseManager:
    """Grants, tracks, enforces and releases promises.

    Satisfies the :class:`~repro.strategies.delegation.UpstreamPromiseMaker`
    protocol, so one manager can delegate to another (§5, delegation).
    """

    def __init__(
        self,
        store: Store | None = None,
        resources: ResourceManager | None = None,
        clock: LogicalClock | None = None,
        registry: StrategyRegistry | None = None,
        name: str = "promise-manager",
        max_duration: int | None = None,
        counter_offers: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        # Imported here, not at module level: repro.recovery imports this
        # module (the recover() entry point takes a PromiseManager).
        from ..recovery.journal import ReplyJournal

        self.name = name
        self._store = store or Store()
        self._resources = resources or ResourceManager(self._store)
        self.clock = clock or LogicalClock()
        self.registry = registry or StrategyRegistry()
        self._table = PromiseTable(self._store, self._resource_key)
        self._store.create_table(MANAGER_META_TABLE)
        self.journal = ReplyJournal(self._store)
        self._promise_ids = IdGenerator(f"{name}:prm")
        self._request_ids = IdGenerator(f"{name}:req")
        self.max_duration = max_duration
        self.counter_offers = counter_offers
        self.events = EventHub()
        #: Where ``manager.check.promises`` / ``manager.live_promises`` go;
        #: a server attaches its own registry here.
        self.metrics = metrics
        self.live_promises = 0  # from committed events; ``recover`` seeds it

    # ------------------------------------------------------------ accessors

    @property
    def store(self) -> Store:
        """The transactional store behind this manager."""
        return self._store

    @property
    def resources(self) -> ResourceManager:
        """The resource manager this promise manager guards."""
        return self._resources

    @property
    def fault_scope(self) -> str | None:
        """The store's crash-injection scope (scoped fault plans)."""
        return self._store.fault_scope

    @property
    def table(self) -> PromiseTable:
        """The promise table (read-mostly; tests and tooling)."""
        return self._table

    def new_request_id(self) -> str:
        """A fresh correlation id for a promise request."""
        return self._request_ids.next_id()

    def observe_issued_id(self, used_id: str) -> None:
        """Advance the id pools past an id recovered from disk."""
        self._promise_ids.ensure_past(used_id)
        self._request_ids.ensure_past(used_id)

    # -------------------------------------------------------- promise API

    def request_promise(
        self, request: PromiseRequest, *, dedup_key: str | None = None
    ) -> PromiseResponse:
        """Process a ``<promise-request>`` (§6): grant or reject atomically.

        All predicates grant together or the request is rejected (§4 first
        requirement).  When ``request.releases`` names existing promises,
        they are exchanged atomically: "if these new promises cannot be
        granted, the existing promises must continue to hold" (§6) — the
        rollback of the enclosing transaction restores them.

        With ``dedup_key`` set (the protocol endpoint passes the request
        id), the response is journaled *inside the grant transaction* and
        a redelivered request — even one arriving after a crash and
        restart — returns the original response instead of granting
        twice (§4: granting and replying are one atomic unit).
        """
        now = self.clock.now
        txn = self._store.begin()
        compensations: list[tuple[IsolationStrategy, object]] = []
        post_commit: list[Callable[[], None]] = []
        try:
            replayed = self._journalled(txn, dedup_key)
            if replayed is not None:
                txn.abort()
                return PromiseResponse.from_dict(replayed)  # type: ignore[arg-type]
            swept = self._sweep(txn, now, post_commit)
            for promise_id in request.releases:
                self._release_in_txn(
                    txn, promise_id, consume=False, now=now,
                    post_commit=post_commit,
                )

            promise_id = self._promise_ids.next_id()
            duration = request.duration
            if self.max_duration is not None:
                duration = min(duration, self.max_duration)
            meta: dict[str, object] = {}
            strategy_names: list[str] = []
            split_record: dict[str, list[dict[str, object]]] = {}

            relevant = self._relevant(txn, request.predicates, now)
            # One scan of the instance table a request, made when the
            # first strategy asks: strategies own disjoint resources, so
            # what one tags is no other's to look at.
            tagged: dict[str, str] | None = None
            for strategy, predicates in self._split(txn, request.predicates):
                split_record[strategy.name] = [
                    predicate.to_dict() for predicate in predicates
                ]
                if tagged is None:
                    tagged = self._tagged(txn)
                decision = strategy.can_grant(
                    txn,
                    self._resources,
                    promise_id,
                    duration,
                    predicates,
                    self._owned_by(strategy, relevant),
                    tagged,
                )
                if strategy.external:
                    compensations.append((strategy, decision))
                if not decision.ok:
                    txn.abort()
                    self._compensate(compensations)
                    self._emit(
                        EventKind.REJECTED,
                        now,
                        client_id=request.client_id,
                        detail=decision.reason,
                    )
                    counter = (
                        self._counter_offer(request, duration)
                        if self.counter_offers
                        else None
                    )
                    response = PromiseResponse.rejected(
                        request.request_id, decision.reason, counter=counter
                    )
                    if dedup_key is not None:
                        # The grant transaction aborted, so there is no
                        # effect to be atomic with; a crash before this
                        # records merely lets a retry re-evaluate.
                        self.journal.record_alone(dedup_key, response.to_dict())
                    return response
                strategy_names.append(strategy.name)
                meta[strategy.name] = decision.meta

            meta[_STRATEGIES_KEY] = strategy_names
            if len(split_record) > 1:
                # One strategy's share is the whole promise: recording it
                # again would double the predicates in every row image the
                # log keeps.
                meta[_SPLIT_KEY] = split_record
            promise = Promise(
                promise_id=promise_id,
                client_id=request.client_id,
                predicates=request.predicates,
                granted_at=now,
                expires_at=now + duration,
                status=PromiseStatus.ACTIVE,
                meta=meta,
            )
            self._table.insert(txn, promise)
            response = PromiseResponse(
                promise_id=promise_id,
                result=PromiseResult.ACCEPTED,
                duration=duration,
                correlation=request.request_id,
            )
            if dedup_key is not None:
                self.journal.record(txn, dedup_key, response.to_dict())
            self._persist_clock(txn, now)
            txn.commit()
            crash_point("manager.after-grant-before-reply", self.fault_scope)
            self._run_post_commit(post_commit)
            self._emit_expired(swept, now)
            for released_id in request.releases:
                self._emit(
                    EventKind.RELEASED,
                    now,
                    promise_id=released_id,
                    client_id=request.client_id,
                    detail=f"exchanged for {promise_id}",
                )
            self._emit(
                EventKind.GRANTED,
                now,
                promise_id=promise_id,
                client_id=request.client_id,
            )
            return response
        except Exception:
            if txn.is_active:
                txn.abort()
            self._compensate(compensations)
            raise

    def request_promise_for(
        self,
        predicates: Sequence[Predicate],
        duration: int,
        client_id: str = "anonymous",
        releases: Sequence[str] = (),
    ) -> PromiseResponse:
        """Convenience wrapper building the :class:`PromiseRequest`."""
        request = PromiseRequest(
            request_id=self.new_request_id(),
            predicates=tuple(predicates),
            duration=duration,
            client_id=client_id,
            releases=tuple(releases),
        )
        return self.request_promise(request)

    def request_first_grantable(
        self,
        alternatives: Sequence[Sequence[Predicate]],
        duration: int,
        client_id: str = "anonymous",
        releases: Sequence[str] = (),
    ) -> tuple[int, PromiseResponse]:
        """Negotiation (§3.3): try ranked alternatives, grant the best.

        "The interplay between essential and desirable properties when
        obtaining a promise may be complicated and could lead to systems
        where the promise requestor and the promise maker negotiate to
        find a promise that is both satisfiable and maximally desirable."

        ``alternatives`` is ordered most- to least-desirable; the first
        grantable predicate set wins.  Returns ``(index, response)`` where
        ``index`` is the chosen alternative (or -1 with the last rejection
        when nothing could be granted — in which case any ``releases``
        remain untouched, per the §4 exchange rule).
        """
        if not alternatives:
            raise ValueError("negotiation needs at least one alternative")
        response = PromiseResponse.rejected("", "no alternatives tried")
        for index, predicates in enumerate(alternatives):
            response = self.request_promise_for(
                predicates, duration, client_id, releases=releases
            )
            if response.accepted:
                return index, response
        return -1, response

    def release(
        self,
        promise_id: str,
        consume: bool = False,
        *,
        dedup_key: str | None = None,
    ) -> None:
        """Release a promise; with ``consume``, take its resources too.

        With ``dedup_key`` set, a redelivered release (same key) is a
        no-op instead of a promise-state fault: the journal remembers it
        already ran, across restarts included.
        """
        now = self.clock.now
        post_commit: list[Callable[[], None]] = []
        with self._store.begin() as txn:
            if self._journalled(txn, dedup_key) is not None:
                txn.abort()
                return
            swept = self._sweep(txn, now, post_commit)
            self._release_in_txn(
                txn, promise_id, consume=consume, now=now,
                post_commit=post_commit,
            )
            if consume:
                violations = self._check_written(txn, now)
                if violations:
                    raise PromiseViolation(
                        sorted({v.promise_id for v in violations}),
                        "; ".join(v.detail for v in violations[:3]),
                    )
            if dedup_key is not None:
                self.journal.record(txn, dedup_key, {"released": promise_id})
            self._persist_clock(txn, now)
        self._run_post_commit(post_commit)
        self._emit_expired(swept, now)
        self._emit(
            EventKind.CONSUMED if consume else EventKind.RELEASED,
            now,
            promise_id=promise_id,
        )

    def is_promise_active(self, promise_id: str) -> bool:
        """True while ``promise_id`` binds this manager."""
        with self._store.begin() as txn:
            promise = self._table.get_or_none(txn, promise_id)
            if promise is None:
                return False
            return promise.is_active and not promise.is_expired_at(self.clock.now)

    def promise(self, promise_id: str) -> Promise:
        """Load one promise (raises :class:`UnknownPromise` when absent)."""
        with self._store.begin() as txn:
            return self._table.get(txn, promise_id)

    def active_promises(self) -> list[Promise]:
        """All currently live promises."""
        with self._store.begin() as txn:
            return self._table.active(txn, self.clock.now)

    # --------------------------------------------------------- action API

    def execute(
        self,
        action: Action,
        environment: Environment | None = None,
        client_id: str = "anonymous",
        *,
        dedup_key: str | None = None,
    ) -> ExecuteOutcome:
        """Run an application action under a promise environment (§8).

        The §8 pipeline: validate the environment, run the action, apply
        the bundled releases, then re-check every promise.  Any failure
        rolls back the whole transaction, so the action and its releases
        are atomic and violated promises force the action to be undone.

        With ``dedup_key`` set, the outcome of a *committed* action is
        journaled in the same transaction, so a redelivery — before or
        after a restart — replays the original outcome instead of
        running the action twice (§4: performing an action and updating
        promise state are one atomic unit).
        """
        environment = environment or Environment.empty()
        now = self.clock.now
        txn = self._store.begin()
        post_commit: list[Callable[[], None]] = []
        try:
            replayed = self._journalled(txn, dedup_key)
            if replayed is not None:
                txn.abort()
                return ExecuteOutcome.from_dict(replayed)  # type: ignore[arg-type]
            swept = self._sweep(txn, now, post_commit)
            self._validate_environment(txn, environment, now)

            try:
                raw = action(
                    ActionContext(
                        txn=txn,
                        resources=self._resources,
                        environment=environment,
                        now=now,
                        client_id=client_id,
                    )
                )
            except ActionFailed as failure:
                txn.abort()
                return self._journal_failure(
                    dedup_key, ExecuteOutcome(success=False, reason=str(failure))
                )
            result = self._normalise(raw)
            if not result.success:
                txn.abort()
                return self._journal_failure(
                    dedup_key, ExecuteOutcome(success=False, reason=result.reason)
                )

            crash_point("manager.after-action-before-release", self.fault_scope)
            released: list[str] = []
            for promise_id in environment.releases():
                self._release_in_txn(
                    txn, promise_id, consume=True, now=now,
                    post_commit=post_commit,
                )
                released.append(promise_id)

            violations = self._check_written(txn, now)
            if violations:
                txn.abort()
                for violation in violations:
                    self._emit(
                        EventKind.VIOLATED,
                        now,
                        promise_id=violation.promise_id,
                        client_id=client_id,
                        detail=violation.detail,
                    )
                return self._journal_failure(
                    dedup_key,
                    ExecuteOutcome(
                        success=False,
                        reason="action rolled back: promises violated",
                        violations=tuple(violations),
                    ),
                )

            outcome = ExecuteOutcome(
                success=True, value=result.value, released=tuple(released)
            )
            if dedup_key is not None:
                self.journal.record(txn, dedup_key, outcome.to_dict())
            self._persist_clock(txn, now)
            txn.commit()
            crash_point("manager.after-execute-commit", self.fault_scope)
            self._run_post_commit(post_commit)
            self._emit_expired(swept, now)
            for consumed_id in released:
                self._emit(
                    EventKind.CONSUMED,
                    now,
                    promise_id=consumed_id,
                    client_id=client_id,
                )
            return outcome
        except PromiseViolation as violation:
            if txn.is_active:
                txn.abort()
            return self._journal_failure(
                dedup_key,
                ExecuteOutcome(
                    success=False,
                    reason=str(violation),
                    violations=tuple(
                        Violation(pid, violation.detail)
                        for pid in violation.promise_ids
                    ),
                ),
            )
        except Exception:
            if txn.is_active:
                txn.abort()
            raise

    def check_all(self) -> list[Violation]:
        """The audit: check every live promise (no action involved; the
        request path re-checks only what it wrote, :meth:`_check_written`)."""
        now = self.clock.now
        with self._store.begin() as txn:
            return self._check(txn, self._table.active(txn, now))

    # --------------------------------------------------------- expiry API

    def expire_due(self) -> list[str]:
        """Expire promises whose duration has elapsed; returns their ids.

        "Promise managers return 'promise-expired' errors to clients that
        attempt to perform operations under the protection of expired
        promises" (§2) — the sweep is also run implicitly at the start of
        every grant/execute, so a promise can never be used past its
        expiry even when nobody calls this explicitly.
        """
        now = self.clock.now
        post_commit: list[Callable[[], None]] = []
        with self._store.begin() as txn:
            swept = self._sweep(txn, now, post_commit)
            self._persist_clock(txn, now)
        self._run_post_commit(post_commit)
        self._emit_expired(swept, now)
        return swept

    def vacuum(self) -> int:
        """Drop released/expired promise rows; returns rows removed."""
        with self._store.begin() as txn:
            return self._table.vacuum(txn)

    # ------------------------------------------------------------ internals

    def _persist_clock(self, txn: Transaction, now: int) -> None:
        """Record the clock tick so recovery can resume logical time."""
        stored = txn.get_or_none(MANAGER_META_TABLE, CLOCK_KEY)
        if not isinstance(stored, Mapping) or stored.get("now") != now:
            txn.put(MANAGER_META_TABLE, CLOCK_KEY, {"now": now})

    def _journalled(
        self, txn: Transaction, dedup_key: str | None
    ) -> object | None:
        """What the journal holds for ``dedup_key`` — a redelivery — or None.

        Counted (``manager.journal.replays``): after a restart or a
        promotion this, not the server's reply cache, is what answers a
        duplicate.
        """
        if dedup_key is None:
            return None
        replayed = self.journal.get(txn, dedup_key)
        if replayed is not None and self.metrics is not None:
            self.metrics.inc("manager.journal.replays")
        return replayed

    def _journal_failure(
        self, dedup_key: str | None, outcome: ExecuteOutcome
    ) -> ExecuteOutcome:
        """Journal a failed outcome (its transaction already aborted).

        Nothing committed, so there is no effect to be atomic with; the
        separate journal write just keeps a redelivery from re-running
        the action once the failure has been reported.
        """
        if dedup_key is not None:
            self.journal.record_alone(dedup_key, outcome.to_dict())
        return outcome

    def _normalise(self, raw: object) -> ActionResult:
        if isinstance(raw, ActionResult):
            return raw
        return ActionResult.ok(raw)

    def _validate_environment(
        self, txn: Transaction, environment: Environment, now: int
    ) -> None:
        for promise_id in environment.promise_ids:
            promise = self._table.get_or_none(txn, promise_id)
            if promise is None:
                txn.abort()
                raise UnknownPromise(promise_id)
            if promise.status is PromiseStatus.EXPIRED or (
                promise.is_active and promise.is_expired_at(now)
            ):
                txn.abort()
                raise PromiseExpired(promise_id)
            if not promise.is_active:
                txn.abort()
                raise PromiseStateError(
                    promise_id, promise.status.value, "execute under"
                )

    def _release_in_txn(
        self,
        txn: Transaction,
        promise_id: str,
        consume: bool,
        now: int,
        post_commit: list[Callable[[], None]],
    ) -> None:
        promise = self._table.get_or_none(txn, promise_id)
        if promise is None:
            raise UnknownPromise(promise_id)
        if promise.status is PromiseStatus.EXPIRED or (
            promise.is_active and promise.is_expired_at(now)
        ):
            raise PromiseExpired(promise_id)
        if not promise.is_active:
            raise PromiseStateError(
                promise_id, promise.status.value, "release"
            )
        tagged = self._tagged(txn)
        relevant = self._relevant(txn, promise.predicates, now)
        for strategy in self._strategies_of(promise):
            deferred = strategy.on_release(
                txn,
                self._resources,
                self._view_for(promise, strategy),
                consumed=consume,
                active_promises=self._owned_by(strategy, relevant),
                tagged_instances=tagged,
            )
            if deferred is not None:
                post_commit.append(deferred)
        self._table.mark(txn, promise_id, PromiseStatus.RELEASED)

    def _sweep(
        self,
        txn: Transaction,
        now: int,
        post_commit: list[Callable[[], None]] | None = None,
    ) -> list[str]:
        expired: list[str] = []
        for promise in self._table.due_for_expiry(txn, now):
            for strategy in self._strategies_of(promise):
                deferred = strategy.on_expire(
                    txn, self._resources, self._view_for(promise, strategy)
                )
                if deferred is not None and post_commit is not None:
                    post_commit.append(deferred)
            self._table.mark(txn, promise.promise_id, PromiseStatus.EXPIRED)
            expired.append(promise.promise_id)
        return expired

    def _check(
        self, txn: Transaction, promises: Sequence[Promise]
    ) -> list[Violation]:
        """Ask each strategy whether its share of ``promises`` still holds."""
        violations: list[Violation] = []
        tagged = self._tagged(txn)
        for strategy in self.registry.strategies():
            violations.extend(
                strategy.check_consistency(
                    txn, self._resources, self._owned_by(strategy, promises), tagged
                )
            )
        return violations

    def _check_written(self, txn: Transaction, now: int) -> list[Violation]:
        """The post-action check (§8), over what the action could have broken.

        A promise's verdict is a function of the state of its resources
        and of the promises sharing them, so only promises reachable from
        a resource this transaction wrote can have changed verdict; the
        rest were honourable before it and still are.  Promises of
        *external* strategies are always included: their truth lives
        upstream, where no local write set can see it change.
        """
        written: set[str] = set()
        for entry in txn.undo_log:
            if entry.table in _RESOURCE_TABLES:
                written.add(entry.key)
            elif entry.table == INSTANCES_TABLE:
                written.add(self._resource_key(txn, entry.key))
                if isinstance(entry.old_value, Mapping):  # moved or removed
                    written.add(str(entry.old_value["collection_id"]))
        if any(strategy.external for strategy in self.registry.strategies()):
            written.update(
                key
                for key in self._table.indexed_resources(txn)
                if self.registry.strategy_for(key).external
            )
        return self._check(txn, self._reachable(txn, written, now))

    def _relevant(
        self, txn: Transaction, predicates: Iterable[Predicate], now: int
    ) -> list[Promise]:
        """Live promises that share a resource with ``predicates``, directly
        or through other promises (§5: "all relevant existing promises")."""
        return self._reachable(txn, self._table.resource_keys(txn, predicates), now)

    def _reachable(
        self, txn: Transaction, resources: Iterable[str], now: int
    ) -> list[Promise]:
        promises = self._table.reachable(txn, resources, now)
        if self.metrics is not None:
            self.metrics.histogram(
                "manager.check.promises", _WIDTH_BUCKETS
            ).observe(len(promises))
        return promises

    def _resource_key(self, txn: Transaction, resource_id: str) -> str:
        """The id a resource is indexed — and routed to a strategy — under.

        Instance ids fold into their collection unless a strategy was
        assigned to the instance itself: the same instances support named
        and anonymous/property views at once (§3.2), so 'seat 24G' is
        handled by, and checked together with, the seat collection.
        """
        if self.registry.assigned(resource_id) is None:
            record = txn.get_or_none(INSTANCES_TABLE, resource_id)
            if isinstance(record, Mapping):
                return str(record["collection_id"])
        return resource_id

    def _resolve_strategy(self, txn: Transaction, resource_id: str) -> IsolationStrategy:
        """Strategy owning one resource id."""
        return self.registry.strategy_for(self._resource_key(txn, resource_id))

    def _split(
        self, txn: Transaction, predicates: Sequence[Predicate]
    ) -> list[tuple[IsolationStrategy, list[Predicate]]]:
        """Group predicates by the strategy owning their resources.

        A predicate whose resources span strategies must be a pure
        conjunction; its atoms are routed individually (``conjuncts``
        raises :class:`PredicateUnsupported` otherwise, keeping Or-hedging
        within a single technique).
        """
        groups: dict[str, tuple[IsolationStrategy, list[Predicate]]] = {}

        def add(strategy: IsolationStrategy, predicate: Predicate) -> None:
            entry = groups.setdefault(strategy.name, (strategy, []))
            entry[1].append(predicate)

        for predicate in predicates:
            owners = {
                strategy.name: strategy
                for strategy in (
                    self._resolve_strategy(txn, resource)
                    for resource in predicate.resources()
                )
            }
            if len(owners) <= 1:
                strategy = next(iter(owners.values()), self.registry.default)
                add(strategy, predicate)
            else:
                for atom in predicate.conjuncts():
                    resource_owner = {
                        self._resolve_strategy(txn, resource)
                        for resource in atom.resources()
                    }
                    add(next(iter(resource_owner)), atom)

        # Local strategies first so external (delegation) grants only
        # happen when everything local already succeeded — minimising
        # cross-domain compensation.
        return sorted(
            groups.values(), key=lambda entry: (entry[0].external, entry[0].name)
        )

    def _owned_by(
        self, strategy: IsolationStrategy, promises: Iterable[Promise]
    ) -> list[Promise]:
        """``strategy``'s share of ``promises``."""
        return [
            self._view_for(promise, strategy)
            for promise in promises
            if strategy.name in self._strategy_names_of(promise)
        ]

    @staticmethod
    def _view_for(promise: Promise, strategy: IsolationStrategy) -> Promise:
        """A copy of ``promise`` carrying only ``strategy``'s predicates.

        A request may span strategies (stock via escrow + a suite via
        satisfiability); each strategy must only ever see — and on
        consumption, take — its own share, or quantity atoms would be
        consumed twice and foreign escrowed demands would look violated.
        A promise with one strategy is its own view.
        """
        split = promise.meta.get(_SPLIT_KEY)
        if split is None:
            return promise
        if not isinstance(split, Mapping) or len(split) <= 1:
            return promise
        raw = split.get(strategy.name)
        if not isinstance(raw, list):
            return promise
        predicates = tuple(Predicate.from_dict(entry) for entry in raw)
        return Promise(
            promise_id=promise.promise_id,
            client_id=promise.client_id,
            predicates=predicates,
            granted_at=promise.granted_at,
            expires_at=promise.expires_at,
            status=promise.status,
            meta=promise.meta,
        )

    def _strategies_of(self, promise: Promise) -> list[IsolationStrategy]:
        named = (
            self.registry.named(name) for name in self._strategy_names_of(promise)
        )
        return [strategy for strategy in named if strategy is not None]

    @staticmethod
    def _strategy_names_of(promise: Promise) -> list[str]:
        names = promise.meta.get(_STRATEGIES_KEY, [])
        if isinstance(names, list):
            return [str(name) for name in names]
        return []

    def _tagged(self, txn: Transaction) -> dict[str, str]:
        """instance id → owning promise id, for every tagged instance."""
        tagged: dict[str, str] = {}
        for __, payload in txn.scan(
            INSTANCES_TABLE,
            lambda __, record: bool(record.get("promise_id")),
        ):
            if isinstance(payload, Mapping):
                tagged[str(payload["instance_id"])] = str(payload["promise_id"])
        return tagged

    def _compensate(
        self, compensations: list[tuple[IsolationStrategy, object]]
    ) -> None:
        for strategy, decision in compensations:
            if getattr(decision, "ok", False):
                strategy.compensate(decision)  # type: ignore[arg-type]

    # ------------------------------------------------------ counter-offers

    def probe(self, predicates: Sequence[Predicate], duration: int) -> bool:
        """Would these predicates be grantable right now?

        Runs the full grant path inside a sacrificial transaction and
        aborts it, so nothing is recorded and no resource state changes.
        Resources owned by *external* strategies (delegation) cannot be
        probed — an upstream request is not reversible by a local abort —
        so any predicate touching them reports False.
        """
        now = self.clock.now
        txn = self._store.begin()
        try:
            self._sweep(txn, now)
            probe_id = f"{self.name}:probe"
            relevant = self._relevant(txn, predicates, now)
            tagged: dict[str, str] | None = None
            for strategy, group in self._split(txn, list(predicates)):
                if strategy.external:
                    return False
                if tagged is None:
                    tagged = self._tagged(txn)
                decision = strategy.can_grant(
                    txn,
                    self._resources,
                    probe_id,
                    duration,
                    group,
                    self._owned_by(strategy, relevant),
                    tagged,
                )
                if not decision.ok:
                    return False
            return True
        finally:
            if txn.is_active:
                txn.abort()

    def _counter_offer(
        self, request: PromiseRequest, duration: int
    ) -> Predicate | None:
        """The strongest weakening of a rejected request that would grant.

        Implements §6's uninvestigated 'accepted with the condition XX'
        response for the two monotone predicate families: quantity demands
        (binary-search the largest grantable amount) and property-count
        demands (binary-search the largest grantable count).  Requests
        with several predicates or non-monotone shapes get no offer.
        """
        from .predicates import PropertyMatch, QuantityAtLeast

        if request.releases or len(request.predicates) != 1:
            return None
        predicate = request.predicates[0]
        if isinstance(predicate, QuantityAtLeast):
            best = self._binary_search(
                predicate.amount - 1,
                lambda amount: self.probe(
                    [QuantityAtLeast(predicate.pool_id, amount)], duration
                ),
            )
            if best is None:
                return None
            return QuantityAtLeast(predicate.pool_id, best)
        if isinstance(predicate, PropertyMatch) and predicate.count > 1:
            best = self._binary_search(
                predicate.count - 1,
                lambda count: self.probe(
                    [
                        PropertyMatch(
                            predicate.collection_id,
                            predicate.conditions,
                            count,
                        )
                    ],
                    duration,
                ),
            )
            if best is None:
                return None
            return PropertyMatch(
                predicate.collection_id, predicate.conditions, best
            )
        return None

    @staticmethod
    def _binary_search(upper: int, grantable) -> int | None:
        """Largest value in [1, upper] for which ``grantable`` holds."""
        low, high = 1, upper
        best: int | None = None
        while low <= high:
            middle = (low + high) // 2
            if grantable(middle):
                best = middle
                low = middle + 1
            else:
                high = middle - 1
        return best

    @staticmethod
    def _run_post_commit(post_commit: list[Callable[[], None]]) -> None:
        """Run effects that had to wait for the local commit.

        These are cross-trust-domain actions (delegated upstream releases)
        that a local rollback could never undo — deferring them is what
        keeps a failed local request from leaking releases upstream.
        """
        for effect in post_commit:
            effect()

    # ------------------------------------------------------------- events

    def _emit(
        self,
        kind: EventKind,
        at: int,
        promise_id: str | None = None,
        client_id: str = "",
        detail: str = "",
    ) -> None:
        """Publish one lifecycle event (only for committed outcomes —
        rejection and violation describe the abort itself)."""
        self.live_promises += (kind is EventKind.GRANTED) - (kind in _ENDINGS)
        if self.metrics is not None:
            self.metrics.set_gauge("manager.live_promises", self.live_promises)
        self.events.emit(
            PromiseEvent(
                kind=kind,
                at=at,
                promise_id=promise_id,
                client_id=client_id,
                detail=detail,
            )
        )

    def _emit_expired(self, promise_ids: list[str], at: int) -> None:
        for promise_id in promise_ids:
            self._emit(EventKind.EXPIRED, at, promise_id=promise_id)
