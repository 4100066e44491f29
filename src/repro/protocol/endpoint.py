"""Service-side protocol endpoint (the message front of Figure 2).

"The promise manager receives each message as it arrives from the client
and breaks it up into its Promise and Action component pieces.  If a
message contains a Promise part, this is split into its promise request
and promise environment parts and any new promise requests are checked for
consistency against the existing promises and resource availability.
After this step, any Action is passed on to the associated application and
the promise manager waits for a response." (paper, §8)

The endpoint performs exactly that split and translates the promise-core
exceptions into protocol faults ('promise-expired', 'unknown-promise',
'promise-violated') for the reply message.
"""

from __future__ import annotations

import threading

from typing import Callable

from ..core.environment import Environment
from ..core.errors import (
    PredicateError,
    PromiseExpired,
    PromiseStateError,
    UnknownPromise,
)
from ..core.manager import Action, PromiseManager
from ..core.promise import PromiseResponse
from ..faults.crashpoints import SimulatedCrash, crash_point
from .errors import MalformedMessage
from .messages import ActionOutcomePayload, ActionPayload, Message

ActionResolver = Callable[[ActionPayload], Action]
"""Maps a body action element to the application callable implementing it.

The services layer provides one (see
:meth:`repro.services.base.ServiceRegistry.resolver`)."""


class PromiseEndpoint:
    """Wraps a :class:`PromiseManager` behind the message protocol."""

    def __init__(
        self,
        manager: PromiseManager,
        resolve: ActionResolver,
        name: str | None = None,
    ) -> None:
        self.manager = manager
        self._resolve = resolve
        self.name = name or manager.name
        # Durable reply dedup only earns its keep when the store outlives
        # the process; in-memory deployments rely on the transport's
        # ReplyCache, and disabling that disables dedup entirely.
        self._journal_replies = manager.store.durable
        # promise id -> the resources its predicates cover, learned as
        # grants succeed and forgotten as releases succeed.  Lets
        # :meth:`dispatch_keys` key releases and environment-protected
        # actions by resource without a store read (reads on the
        # dispatch path would defeat parallel dispatch).  Written under
        # the server's txn mutex, read from the event loop; individual
        # dict ops are atomic, the lock guards the bound-trim
        # read-modify-write.  The bound only catches promises that
        # expire unreleased.
        self._promise_resources: dict[str, frozenset[str]] = {}
        self._promise_resources_lock = threading.Lock()
        self._promise_resources_bound = 65536

    def handle(self, message: Message) -> Message:
        """Process one inbound message and build the reply.

        Promise requests are processed first; when a combined message's
        promise part is rejected, the action is *not* attempted (the
        client asked to act under guarantees it did not get) and a fault
        reports the skip.

        The reply is a function of the request and of what the manager
        journalled for it — its message id is derived from the request's,
        not drawn from a counter — so a redelivered request whose dedup
        keys (``request_id``, ``<message_id>:action``,
        ``release:<promise_id>``) are journalled renders the envelope it
        was first answered with, in this process or the next: the
        manager's in-transaction row is the only durable reply.
        """
        responses: list[PromiseResponse] = []
        faults: list[str] = []
        rejected = False

        for request in message.promise_requests:
            try:
                response = self.manager.request_promise(
                    request,
                    dedup_key=(
                        request.request_id if self._journal_replies else None
                    ),
                )
            except (PredicateError, UnknownPromise, PromiseStateError) as exc:
                response = PromiseResponse.rejected(request.request_id, str(exc))
            except PromiseExpired as exc:
                faults.append(f"promise-expired: {exc.promise_id}")
                response = PromiseResponse.rejected(request.request_id, str(exc))
            responses.append(response)
            rejected = rejected or not response.accepted
            if response.accepted and response.promise_id is not None:
                self._remember_resources(
                    response.promise_id, request.resources
                )
                for promise_id in request.releases:  # an exchange
                    self._forget_resources(promise_id)

        outcome: ActionOutcomePayload | None = None
        if message.action is not None:
            if rejected:
                faults.append("action-skipped: promise request rejected")
            else:
                outcome = self._run_action(message, faults)
        elif message.environment is not None:
            self._pure_release(message.environment, faults)

        crash_point("endpoint.before-reply", self.manager.fault_scope)
        return message.reply(
            message_id=f"{self.name}:re:{message.message_id}",
            promise_responses=tuple(responses),
            action_outcome=outcome,
            faults=tuple(faults),
        )

    # ------------------------------------------------- parallel dispatch

    def dispatch_keys(self, message: Message) -> frozenset[str] | None:
        """Resource keys ``message`` touches, or ``None`` when unknown.

        The networked server's parallel dispatcher uses this to run
        requests on disjoint resources concurrently while keeping
        same-resource requests FIFO.  Promise requests are keyed by
        their predicates' resources; environment-protected actions and
        releases by the resources of the named promises (learned when
        the grant went through this endpoint).  A promise this endpoint
        has never granted — or anything else it cannot account for —
        returns ``None``, degrading that one request to a global
        ordering barrier: never faster, never wrong.
        """
        keys: set[str] = set()
        for request in message.promise_requests:
            keys |= request.resources
        environment = message.environment
        if environment is not None:
            for promise_id in environment.promise_ids:
                resources = self._promise_resources.get(promise_id)
                if resources is None:
                    return None
                keys |= resources
        return frozenset(keys)

    def _remember_resources(
        self, promise_id: str, resources: frozenset[str]
    ) -> None:
        with self._promise_resources_lock:
            if len(self._promise_resources) >= self._promise_resources_bound:
                # Dropping entries is always safe: a forgotten promise
                # merely dispatches as a barrier next time.
                self._promise_resources.clear()
            self._promise_resources[promise_id] = resources

    def _forget_resources(self, promise_id: str) -> None:
        """A released promise is done: nothing dispatches under it again."""
        self._promise_resources.pop(promise_id, None)

    # ------------------------------------------------------------ internals

    def _run_action(
        self, message: Message, faults: list[str]
    ) -> ActionOutcomePayload | None:
        assert message.action is not None
        try:
            action = self._resolve(message.action)
        except (LookupError, MalformedMessage) as exc:
            faults.append(f"unknown-action: {exc}")
            return None
        environment = message.environment or Environment.empty()
        try:
            result = self.manager.execute(
                action,
                environment,
                client_id=message.sender,
                dedup_key=(
                    f"{message.message_id}:action"
                    if self._journal_replies
                    else None
                ),
            )
        except PromiseExpired as exc:
            faults.append(f"promise-expired: {exc.promise_id}")
            return None
        except UnknownPromise as exc:
            faults.append(f"unknown-promise: {exc.promise_id}")
            return None
        except PromiseStateError as exc:
            faults.append(f"promise-state: {exc}")
            return None
        except SimulatedCrash:
            # Fault injection models the *process* dying; swallowing it
            # here would turn a crash into a polite fault reply.
            raise
        except Exception as exc:  # noqa: BLE001 - service boundary
            # An unexpected application error must not take the endpoint
            # down; the manager already rolled the transaction back, so
            # report it as a fault like any SOAP server would.
            faults.append(f"internal-error: {type(exc).__name__}: {exc}")
            return None
        for promise_id in result.released:
            self._forget_resources(promise_id)
        if result.violations:
            faults.append("promise-violated: action rolled back")
        return ActionOutcomePayload(
            success=result.success,
            value=result.value,
            reason=result.reason,
            released=result.released,
            violations=tuple(
                violation.promise_id for violation in result.violations
            ),
        )

    def _pure_release(self, environment: Environment, faults: list[str]) -> None:
        """A promise-release message: environment, no action (§6)."""
        for promise_id in environment.releases():
            try:
                self.manager.release(
                    promise_id,
                    consume=False,
                    dedup_key=(
                        f"release:{promise_id}"
                        if self._journal_replies
                        else None
                    ),
                )
            except PromiseExpired as exc:
                faults.append(f"promise-expired: {exc.promise_id}")
            except UnknownPromise as exc:
                faults.append(f"unknown-promise: {exc.promise_id}")
            except PromiseStateError as exc:
                faults.append(f"promise-state: {exc}")
            else:
                self._forget_resources(promise_id)
