"""Routing gateway presenting a shard fleet as one promise manager.

:class:`ClusterGateway` implements the client-side transport contract
(``send(Message) -> Message``), so an unmodified
:class:`~repro.protocol.client.PromiseClient` talks to a whole fleet
exactly as it talks to one manager.  Three request shapes pass through:

* **Single-shard messages** are forwarded verbatim — same message id end
  to end, so the shard's §6 reply cache deduplicates the client's own
  retries with no gateway bookkeeping at all.
* **Cross-shard promise requests** are split by the
  :class:`~repro.cluster.partition.PartitionMap` and scatter-gathered:
  each shard receives a sub-request carrying only its predicates, under
  a *deterministic* sub-message id derived from the client's
  (``mid/s3``) — a gateway retry therefore hits the shard reply caches
  and gets the original grants back instead of double-granting.  Only
  when **every** shard accepts does the gateway mint a composite promise
  id mapping onto the sub-promises; any rejection or unreachable shard
  triggers **compensating release** of the sub-promises that were
  granted, so no torn cross-shard promise survives.
* **Releases and actions** on composite promises are rewritten onto the
  member sub-promises: the action runs on its resource's shard under
  that shard's sub-promise, and release-on-success fans out to the
  remaining shards afterwards.

Compensation for an *unreachable* shard uses redeliver-then-release: the
gateway re-sends the identical sub-message (the shard's reply cache makes
that a read, not a second grant), and releases whatever that reveals was
granted.  A shard that stays down gets the pair queued; call
:meth:`ClusterGateway.flush_pending` once it is back — until the queue
drains, the grant is time-bounded by its duration anyway, the paper's
backstop against every orphaned promise.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

from ..core.environment import Environment
from ..core.promise import PromiseRequest, PromiseResponse, PromiseResult
from ..net.server import METRICS_ENDPOINT, SPANS_ENDPOINT
from ..obs.metrics import MetricsRegistry
from ..obs.trace import ActiveSpan, SpanRecorder
from ..protocol.client import MessageTransport
from ..protocol.errors import ProtocolError, RequestTimeout, TransportFailure
from ..protocol.messages import ActionOutcomePayload, ActionPayload, Message
from ..resilience.breaker import CircuitBreaker, CircuitOpen
from .partition import PartitionError, PartitionMap

#: Action parameter names inspected (in order) to place an action on the
#: shard owning the resource it touches.
ACTION_RESOURCE_PARAMS = (
    "product",
    "pool",
    "pool_id",
    "resource",
    "resource_id",
    "instance",
    "instance_id",
    "collection",
    "collection_id",
)


@dataclass
class _PendingCompensation:
    """A sub-promise whose releasing shard was unreachable."""

    shard: int
    recipient: str
    sub_message: Message = field(repr=False)
    queued_at: float = 0.0


class ClusterGateway:
    """One logical promise manager over a fleet of shard transports.

    ``transports[i]`` must deliver messages to shard *i* of the fleet the
    ``ring`` describes; every shard serves the same endpoint name(s), so
    message recipients pass through untouched.  The gateway is itself a
    :class:`~repro.protocol.client.MessageTransport` — hand it to a
    :class:`~repro.protocol.client.PromiseClient` and go.

    ``breakers[i]`` (optional) is a per-shard
    :class:`~repro.resilience.CircuitBreaker`: every send to shard *i*
    consults it first and reports its outcome, so a dead shard stops
    consuming retry budget across scatter-gathers — it fails fast as
    unreachable until its breaker half-opens and a probe succeeds.

    ``pending_limit`` / ``pending_max_age`` bound the dead-shard
    compensation queue by depth and seconds queued.  Dropping a queued
    compensation is safe, just not free: the orphaned sub-promise is
    time-bounded by its own duration — the paper's backstop against
    every orphan — so the bound trades a transient over-reservation for
    a gateway whose memory cannot grow without limit while a shard
    stays dead.  Drops are counted in ``gateway.pending_dropped``.
    """

    def __init__(
        self,
        transports: Sequence[MessageTransport],
        ring: PartitionMap | None = None,
        name: str = "cluster",
        breakers: Sequence[CircuitBreaker] | None = None,
        pending_limit: int | None = 256,
        pending_max_age: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
        tracer: SpanRecorder | None = None,
    ) -> None:
        if not transports:
            raise PartitionError("a gateway needs at least one shard transport")
        self._transports = list(transports)
        self.ring = ring or PartitionMap(len(transports))
        if self.ring.shards != len(self._transports):
            raise PartitionError(
                f"partition map covers {self.ring.shards} shards but "
                f"{len(self._transports)} transports were supplied"
            )
        self.breakers = list(breakers) if breakers is not None else None
        if self.breakers is not None and len(self.breakers) != len(
            self._transports
        ):
            raise PartitionError(
                f"{len(self.breakers)} breakers for "
                f"{len(self._transports)} shard transports"
            )
        self.name = name
        self.pending_limit = pending_limit
        self.pending_max_age = pending_max_age
        self._clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self._scrape_counter = 0
        # composite promise id -> {shard: sub promise id}
        self._composites: dict[str, dict[int, str]] = {}
        # plain (single-shard) promise id -> home shard
        self._homes: dict[str, int] = {}
        self._pending: list[_PendingCompensation] = []
        # Per-shard transport generation, bumped by remap(): a reply
        # that arrives bearing an older generation is an ack from a
        # deposed primary and is discarded, never surfaced to callers.
        self._generations = [0] * len(self._transports)
        # Per-shard replica-group epoch stamped onto outgoing requests
        # (None for unreplicated shards: no stamp, no server-side check).
        self._epochs: list[int | None] = [None] * len(self._transports)

    # ------------------------------------------------------------- transport

    def send(self, message: Message) -> Message:
        """Deliver ``message`` to the fleet and synthesise the one reply."""
        self.metrics.inc("gateway.requests")
        if self.tracer is None or message.trace is None:
            return self._send_routed(message, None)
        # The routing decision gets its own span; the message is
        # re-stamped with that span's context so every shard leg below
        # (and the shard servers' dispatch spans beyond them) hangs off
        # this hop in the trace tree.
        with self.tracer.span(
            "gateway.route",
            parent=message.trace,
            endpoint=message.recipient,
            message_id=message.message_id,
        ) as span:
            return self._send_routed(replace(message, trace=span.context), span)

    def _send_routed(
        self, message: Message, span: ActiveSpan | None
    ) -> Message:
        try:
            plan = self._route(message)
        except PartitionError as exc:
            if span is not None:
                span.set_outcome("partition-fault")
            return self._partition_fault(message, exc)
        if len(plan) == 1 and not self._needs_rewrite(message, plan):
            shard = next(iter(plan))
            self.metrics.inc("gateway.forwarded")
            if span is not None:
                span.annotate(mode="forward", shard=shard)
            reply = self._shard_send(shard, message)
            self._note_homes(message, reply, shard)
            return reply
        self.metrics.inc("gateway.scattered")
        if span is not None:
            span.annotate(
                mode="scatter",
                shards=",".join(str(shard) for shard in sorted(plan)),
            )
        expires_at = (
            time.monotonic() + message.deadline
            if message.deadline is not None
            else None
        )
        return self._scatter(message, plan, expires_at)

    def remap(
        self,
        shard: int,
        transport: MessageTransport,
        epoch: int | None = None,
    ) -> MessageTransport:
        """Point ``shard`` at a new primary (replica failover).

        Swaps the transport, bumps the shard's generation so any reply
        still in flight from the *old* primary is discarded at arrival
        (a deposed primary's late ack must not be surfaced as success),
        records the new fencing ``epoch`` for request stamping, and
        force-half-opens the shard's breaker so the promoted replica is
        probed immediately instead of waiting out the open window.
        Returns the displaced transport so the caller can close it.
        """
        if not 0 <= shard < len(self._transports):
            raise PartitionError(f"no shard {shard} to remap")
        old = self._transports[shard]
        self._transports[shard] = transport
        self._generations[shard] += 1
        if epoch is not None:
            self._epochs[shard] = epoch
        self.metrics.inc("gateway.remaps")
        self.reset_breaker(shard)
        return old

    def set_epoch(self, shard: int, epoch: int | None) -> None:
        """Set the fencing epoch stamped on requests to ``shard``."""
        if not 0 <= shard < len(self._transports):
            raise PartitionError(f"no shard {shard}")
        self._epochs[shard] = epoch

    def transport(self, shard: int) -> MessageTransport:
        """The transport currently routing to ``shard``.

        Callers that wrap or fault-inject transports (the chaos nemesis)
        must read through this accessor rather than hold the list they
        passed to the constructor — :meth:`remap` swaps entries in
        place, and a held reference goes stale at the first failover.
        """
        if not 0 <= shard < len(self._transports):
            raise PartitionError(f"no shard {shard}")
        return self._transports[shard]

    def reset_breaker(self, shard: int) -> bool:
        """Force the shard's breaker half-open (shard restarted/promoted).

        A fleet restart and a replica failover both bring a healthy
        server back for a shard the breaker has already written off; without this nudge the gateway keeps fast-failing
        it until the open window lapses.  Half-open (not closed): the
        next request is a probe, so a wrong hint costs one request.
        """
        if self.breakers is None:
            return False
        if self.breakers[shard].force_half_open():
            self.metrics.inc("gateway.breaker_resets")
            return True
        return False

    def close(self) -> None:
        """Close every shard transport that knows how to close."""
        for transport in self._transports:
            closer = getattr(transport, "close", None)
            if closer is not None:
                closer()

    def __enter__(self) -> "ClusterGateway":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------------- routing

    def _route(self, message: Message) -> dict[int, list[tuple[PromiseRequest, list]]]:
        """Which shards the message involves, with per-shard predicates.

        Returns ``{shard: [(original_request, predicates_for_shard), ...]}``;
        environment-only and action-only messages yield entries with empty
        request lists for the shards they touch.
        """
        plan: dict[int, list[tuple[PromiseRequest, list]]] = {}
        for request in message.promise_requests:
            split = self.ring.split_predicates(request.predicates)
            for shard, predicates in split.items():
                plan.setdefault(shard, []).append((request, predicates))
            for release_id in request.releases:
                for shard in self._shards_of_promise(release_id):
                    plan.setdefault(shard, [])
        if message.environment is not None:
            for promise_id in message.environment.promise_ids:
                for shard in self._shards_of_promise(promise_id):
                    plan.setdefault(shard, [])
        if message.action is not None:
            plan.setdefault(self._action_shard(message), [])
        if not plan:
            plan[0] = []
        return plan

    def _shards_of_promise(self, promise_id: str) -> list[int]:
        members = self._composites.get(promise_id)
        if members is not None:
            return sorted(members)
        home = self._homes.get(promise_id)
        if home is not None:
            return [home]
        # A promise this gateway never saw granted (another gateway, or a
        # restart).  Involve every shard; the rewrite step falls back to
        # broadcasting, and shards that do not know the id report
        # ``unknown-promise`` which the merge tolerates for releases.
        return list(range(self.ring.shards))

    def _action_shard(self, message: Message) -> int:
        assert message.action is not None
        for key in ACTION_RESOURCE_PARAMS:
            value = message.action.params.get(key)
            if isinstance(value, str):
                return self.ring.shard_of(value)
        if message.environment is not None:
            for promise_id in message.environment.promise_ids:
                shards = self._shards_of_promise(promise_id)
                if len(shards) == 1:
                    return shards[0]
                members = self._composites.get(promise_id)
                if members:
                    return min(members)
        return 0

    def _needs_rewrite(self, message: Message, plan: Mapping[int, object]) -> bool:
        """Would forwarding verbatim ship a composite id to a shard?"""
        ids: list[str] = []
        if message.environment is not None:
            ids.extend(message.environment.promise_ids)
        for request in message.promise_requests:
            ids.extend(request.releases)
        return any(promise_id in self._composites for promise_id in ids)

    # -------------------------------------------------------------- scatter

    def _scatter(
        self, message: Message, plan: dict, expires_at: float | None = None
    ) -> Message:
        """Cross-shard execution: grants first, then the action, then
        deferred releases — each phase deterministic and idempotent.

        ``expires_at`` is the absolute form of the client's deadline;
        each phase re-stamps the *remaining* budget onto its
        sub-messages, so a shard reached late in a slow scatter sees an
        honest (smaller, possibly spent) allowance.  Compensations are
        deliberately sent without a deadline — they must run even when
        nobody is waiting for the original request any more.
        """
        faults: list[str] = []

        grant_shards = {shard for shard, parts in plan.items() if parts}
        grant_replies = self._broadcast(
            message,
            {
                shard: self._sub_grant_message(
                    message, shard, plan[shard], expires_at
                )
                for shard in sorted(grant_shards)
            },
            faults,
        )
        responses, all_granted = self._merge_grants(
            message, plan, grant_shards, grant_replies, faults
        )

        outcome: ActionOutcomePayload | None = None
        if message.action is not None:
            if all_granted:
                outcome = self._run_action(message, faults, expires_at)
            else:
                faults.append("action-skipped: promise request rejected")
        elif message.environment is not None and all_granted:
            self._scatter_release(message, faults, expires_at)

        return message.reply(
            message_id=f"{message.message_id}/reply",
            promise_responses=tuple(responses),
            action_outcome=outcome,
            faults=tuple(dict.fromkeys(faults)),
        )

    def _broadcast(
        self,
        message: Message,
        sub_messages: Mapping[int, Message],
        faults: list[str],
    ) -> dict[int, Message]:
        """Send sub-messages concurrently; record per-shard failures."""
        if not sub_messages:
            return {}
        replies: dict[int, Message] = {}

        def one(shard: int) -> tuple[int, Message | None, str | None]:
            try:
                return shard, self._shard_send(shard, sub_messages[shard]), None
            except (TransportFailure, RequestTimeout, ProtocolError) as exc:
                return shard, None, f"shard-{shard}: {type(exc).__name__}: {exc}"

        shards = sorted(sub_messages)
        if len(shards) == 1:
            results = [one(shards[0])]
        else:
            with ThreadPoolExecutor(max_workers=len(shards)) as pool:
                results = list(pool.map(one, shards))
        for shard, reply, error in sorted(results):
            if reply is not None:
                replies[shard] = reply
            else:
                self.metrics.inc("gateway.shard_errors")
                faults.append(f"cluster-shard-unreachable: {error}")
        return replies

    def _sub_grant_message(
        self,
        message: Message,
        shard: int,
        parts: list[tuple[PromiseRequest, list]],
        expires_at: float | None = None,
    ) -> Message:
        """The promise-request message shard ``shard`` receives.

        Ids are derived (``mid/s3``, ``rid/s3``) so a redelivery of the
        client's message regenerates byte-identical sub-messages and the
        shard's reply cache answers for them.
        """
        sub_requests = []
        for request, predicates in parts:
            sub_requests.append(
                PromiseRequest(
                    request_id=f"{request.request_id}/s{shard}",
                    client_id=request.client_id,
                    predicates=tuple(predicates),
                    duration=request.duration,
                    releases=self._releases_on_shard(request.releases, shard),
                )
            )
        return Message(
            message_id=f"{message.message_id}/s{shard}",
            sender=message.sender,
            recipient=message.recipient,
            promise_requests=tuple(sub_requests),
            deadline=self._restamp(expires_at),
            trace=message.trace,
        )

    def _releases_on_shard(
        self, releases: Sequence[str], shard: int
    ) -> tuple[str, ...]:
        """Map requested atomic releases onto this shard's sub-promises."""
        mapped: list[str] = []
        for promise_id in releases:
            members = self._composites.get(promise_id)
            if members is not None:
                if shard in members:
                    mapped.append(members[shard])
            elif self._homes.get(promise_id) == shard:
                # Unknown-home ids are deliberately NOT attached: a shard
                # that never granted the promise would reject the whole
                # sub-request over it.  They release post-grant instead.
                mapped.append(promise_id)
        return tuple(mapped)

    def _merge_grants(
        self,
        message: Message,
        plan: dict,
        grant_shards: set[int],
        replies: dict[int, Message],
        faults: list[str],
    ) -> tuple[list[PromiseResponse], bool]:
        """Combine sub-responses per original request; compensate on
        partial success."""
        responses: list[PromiseResponse] = []
        all_granted = True
        for request in message.promise_requests:
            shards = sorted(
                shard
                for shard in grant_shards
                if any(original is request for original, __ in plan[shard])
            )
            subs: dict[int, PromiseResponse] = {}
            rejection: PromiseResponse | None = None
            unreachable = False
            for shard in shards:
                reply = replies.get(shard)
                if reply is None:
                    unreachable = True
                    continue
                faults.extend(
                    fault for fault in reply.faults if fault not in faults
                )
                sub = self._find_response(reply, f"{request.request_id}/s{shard}")
                if sub is None:
                    unreachable = True
                elif sub.accepted:
                    subs[shard] = sub
                elif rejection is None:
                    rejection = sub
            if rejection is None and not unreachable and len(subs) == len(shards):
                responses.append(
                    self._mint_composite(message, request, subs, faults)
                )
                continue
            all_granted = False
            self.metrics.inc("gateway.composite_rejections")
            self._compensate(message, request, subs, shards, faults)
            reason = (
                rejection.reason
                if rejection is not None
                else "cluster: shard unreachable during scatter-gather"
            )
            responses.append(
                PromiseResponse.rejected(
                    request.request_id,
                    f"cluster: {reason}"
                    if not reason.startswith("cluster")
                    else reason,
                    counter=rejection.counter if rejection is not None else None,
                )
            )
        return responses, all_granted

    def _mint_composite(
        self,
        message: Message,
        request: PromiseRequest,
        subs: dict[int, PromiseResponse],
        faults: list[str],
    ) -> PromiseResponse:
        composite_id = f"{self.name}/{request.request_id}"
        members = {
            shard: sub.promise_id
            for shard, sub in subs.items()
            if sub.promise_id is not None
        }
        self._composites[composite_id] = members
        self.metrics.inc("gateway.composite_grants")
        # Swap releases living on the granting shards went out atomically
        # inside the sub-requests; the rest happen only now that the new
        # promise holds, honouring §6: "if these new promises cannot be
        # granted, the existing promises must continue to hold".
        granted_shards = set(members)
        for promise_id in request.releases:
            old = self._composites.get(promise_id)
            if promise_id == composite_id:
                continue
            if old is not None:
                for shard, sub_id in old.items():
                    if shard not in granted_shards:
                        self._release_sub(message, shard, sub_id, faults)
                self._composites.pop(promise_id, None)
                continue
            home = self._homes.get(promise_id)
            if home is None:
                self._release_everywhere(message, promise_id, faults)
            elif home not in granted_shards:
                self._release_sub(message, home, promise_id, faults)
                self._homes.pop(promise_id, None)
            else:
                self._homes.pop(promise_id, None)
        return PromiseResponse(
            promise_id=composite_id,
            result=PromiseResult.ACCEPTED,
            duration=min(sub.duration for sub in subs.values()),
            correlation=request.request_id,
        )

    def _compensate(
        self,
        message: Message,
        request: PromiseRequest,
        granted: dict[int, PromiseResponse],
        shards: list[int],
        faults: list[str],
    ) -> None:
        """Undo a partially granted cross-shard request.

        Reached shards that granted get a release; unreached shards get
        the identical sub-message redelivered (a cache read when it did
        execute) and a release for whatever that uncovers.
        """
        for shard, sub in granted.items():
            if sub.promise_id is not None:
                self._release_sub(message, shard, sub.promise_id, faults)
        for shard in shards:
            if shard in granted:
                continue
            self._redeliver_and_release(message, request, shard, faults)

    def _redeliver_and_release(
        self,
        message: Message,
        request: PromiseRequest,
        shard: int,
        faults: list[str],
    ) -> None:
        sub_message = Message(
            message_id=f"{message.message_id}/s{shard}",
            sender=message.sender,
            recipient=message.recipient,
            promise_requests=(
                PromiseRequest(
                    request_id=f"{request.request_id}/s{shard}",
                    client_id=request.client_id,
                    predicates=request.predicates,
                    duration=request.duration,
                ),
            ),
            trace=message.trace,
        )
        try:
            reply = self._shard_send(shard, sub_message)
        except (TransportFailure, RequestTimeout, ProtocolError):
            self._queue_pending(shard, message.recipient, sub_message)
            faults.append(
                f"cluster-compensation-pending: shard-{shard} unreachable"
            )
            return
        sub = self._find_response(reply, f"{request.request_id}/s{shard}")
        if sub is not None and sub.accepted and sub.promise_id is not None:
            self._release_sub(message, shard, sub.promise_id, faults)

    def _release_sub(
        self, message: Message, shard: int, sub_promise_id: str, faults: list[str]
    ) -> None:
        release = Message(
            message_id=f"{message.message_id}/rel-{shard}-{sub_promise_id}",
            sender=message.sender,
            recipient=message.recipient,
            environment=Environment.of(sub_promise_id, release=[sub_promise_id]),
            trace=message.trace,
        )
        try:
            self._shard_send(shard, release)
            self.metrics.inc("gateway.compensations")
        except (TransportFailure, RequestTimeout, ProtocolError):
            self._queue_pending(shard, message.recipient, release)
            faults.append(
                f"cluster-compensation-pending: shard-{shard} unreachable"
            )

    # ------------------------------------------------------ actions/releases

    def _run_action(
        self, message: Message, faults: list[str], expires_at: float | None = None
    ) -> ActionOutcomePayload | None:
        """Phase two of a combined message: the action, on its shard,
        under a rewritten environment."""
        assert message.action is not None
        shard = self._action_shard(message)
        environment, companions = self._environment_for(
            message.environment, shard
        )
        action_message = Message(
            message_id=f"{message.message_id}/act",
            sender=message.sender,
            recipient=message.recipient,
            environment=environment,
            action=message.action,
            deadline=self._restamp(expires_at),
            trace=message.trace,
        )
        self.metrics.inc("gateway.actions_routed")
        try:
            reply = self._shard_send(shard, action_message)
        except (TransportFailure, RequestTimeout, ProtocolError) as exc:
            self.metrics.inc("gateway.shard_errors")
            faults.append(
                f"cluster-shard-unreachable: shard-{shard}: "
                f"{type(exc).__name__}: {exc}"
            )
            return None
        faults.extend(fault for fault in reply.faults if fault not in faults)
        outcome = reply.action_outcome
        if outcome is None:
            return None
        released = self._rewrite_released(outcome.released, companions)
        if outcome.success:
            # Release-on-success fans out to the released composites'
            # sub-promises on the *other* shards (the action's shard
            # already released its member atomically with the action).
            for composite_id, sub_ids in companions.items():
                for other_shard, sub_id in sub_ids.items():
                    self._release_sub(message, other_shard, sub_id, faults)
                self._composites.pop(composite_id, None)
        return ActionOutcomePayload(
            success=outcome.success,
            value=outcome.value,
            reason=outcome.reason,
            released=released,
            violations=outcome.violations,
        )

    def _environment_for(
        self, environment: Environment | None, shard: int
    ) -> tuple[Environment | None, dict[str, dict[int, str]]]:
        """Rewrite an environment for the action's shard.

        Returns the shard-local environment plus, for each composite with
        release-on-success, the member sub-promises on *other* shards
        that must be released once the action succeeds.
        """
        if environment is None:
            return None, {}
        ids: list[str] = []
        release: list[str] = []
        companions: dict[str, dict[int, str]] = {}
        for promise_id in environment.promise_ids:
            released = bool(environment.release_after.get(promise_id))
            members = self._composites.get(promise_id)
            if members is None:
                ids.append(promise_id)
                if released:
                    release.append(promise_id)
                continue
            local = members.get(shard)
            if local is not None:
                ids.append(local)
                if released:
                    release.append(local)
            if released:
                companions[promise_id] = {
                    other: sub
                    for other, sub in members.items()
                    if other != shard
                }
        if not ids:
            return None, companions
        return Environment.of(*ids, release=release), companions

    def _rewrite_released(
        self,
        released: tuple[str, ...],
        companions: dict[str, dict[int, str]],
    ) -> tuple[str, ...]:
        """Report composite ids (not internal sub ids) back to the client."""
        sub_to_composite = {}
        for composite_id, members in self._composites.items():
            for sub_id in members.values():
                sub_to_composite[sub_id] = composite_id
        for composite_id, members in companions.items():
            for sub_id in members.values():
                sub_to_composite[sub_id] = composite_id
        rewritten = tuple(
            dict.fromkeys(sub_to_composite.get(sub_id, sub_id) for sub_id in released)
        )
        return rewritten

    def _scatter_release(
        self, message: Message, faults: list[str], expires_at: float | None = None
    ) -> None:
        """An environment-only (pure release) message, fanned out."""
        assert message.environment is not None
        per_shard: dict[int, tuple[list[str], list[str]]] = {}
        dropped_composites: list[str] = []
        for promise_id in message.environment.promise_ids:
            released = bool(message.environment.release_after.get(promise_id))
            members = self._composites.get(promise_id)
            if members is not None:
                for shard, sub_id in members.items():
                    ids, rel = per_shard.setdefault(shard, ([], []))
                    ids.append(sub_id)
                    if released:
                        rel.append(sub_id)
                if released:
                    dropped_composites.append(promise_id)
            else:
                for shard in self._shards_of_promise(promise_id):
                    ids, rel = per_shard.setdefault(shard, ([], []))
                    ids.append(promise_id)
                    if released:
                        rel.append(promise_id)
        sub_messages = {
            shard: Message(
                message_id=f"{message.message_id}/s{shard}",
                sender=message.sender,
                recipient=message.recipient,
                environment=Environment.of(*ids, release=rel),
                deadline=self._restamp(expires_at),
                trace=message.trace,
            )
            for shard, (ids, rel) in per_shard.items()
        }
        broadcast = len(per_shard) > 1 and any(
            self._homes.get(pid) is None and pid not in self._composites
            for pid in message.environment.promise_ids
        )
        replies = self._broadcast(message, sub_messages, faults)
        self.metrics.inc("gateway.releases_routed")
        for shard, sub_message in sub_messages.items():
            # A sub-release that never reached its shard must not be
            # forgotten — queue it (deadline stripped: it has to run
            # even though nobody is waiting) for flush_pending to apply
            # once the shard is back.
            __, rel = per_shard[shard]
            if shard not in replies and rel:
                self._queue_pending(
                    shard,
                    message.recipient,
                    replace(sub_message, deadline=None),
                )
        for reply in replies.values():
            for fault in reply.faults:
                # A broadcast probes shards that never saw the promise;
                # their unknown-promise faults are expected noise.
                if broadcast and fault.startswith("unknown-promise"):
                    continue
                if fault not in faults:
                    faults.append(fault)
        for composite_id in dropped_composites:
            self._composites.pop(composite_id, None)

    def _release_everywhere(
        self, message: Message, promise_id: str, faults: list[str]
    ) -> None:
        """Release a plain promise whose home shard is unknown."""
        shards = self._shards_of_promise(promise_id)
        for shard in shards:
            release = Message(
                message_id=f"{message.message_id}/rel-{shard}-{promise_id}",
                sender=message.sender,
                recipient=message.recipient,
                environment=Environment.of(promise_id, release=[promise_id]),
                trace=message.trace,
            )
            try:
                self._shard_send(shard, release)
            except (TransportFailure, RequestTimeout, ProtocolError):
                self._queue_pending(shard, message.recipient, release)

    # ------------------------------------------------------------- pending

    @property
    def pending_compensations(self) -> int:
        """Sub-promise compensations waiting for a shard to come back."""
        return len(self._pending)

    def flush_pending(self) -> int:
        """Retry queued compensations; returns how many cleared.

        Each queued entry is either a release (re-sent as-is — the
        shard's reply journal makes the release idempotent) or a grant
        redelivery whose revealed sub-promise then gets released.
        Entries past ``pending_max_age`` are pruned first.
        """
        self._prune_pending()
        cleared = 0
        remaining: list[_PendingCompensation] = []
        for entry in self._pending:
            try:
                reply = self._shard_send(entry.shard, entry.sub_message)
            except (TransportFailure, RequestTimeout, ProtocolError):
                remaining.append(entry)
                continue
            if entry.sub_message.promise_requests:
                # Grant redelivery: release whatever it reveals.
                done = True
                for response in reply.promise_responses:
                    if response.accepted and response.promise_id is not None:
                        release = Message(
                            message_id=(
                                f"{entry.sub_message.message_id}"
                                f"/rel-{response.promise_id}"
                            ),
                            sender=entry.sub_message.sender,
                            recipient=entry.recipient,
                            environment=Environment.of(
                                response.promise_id,
                                release=[response.promise_id],
                            ),
                        )
                        try:
                            self._shard_send(entry.shard, release)
                            self.metrics.inc("gateway.compensations")
                        except (
                            TransportFailure,
                            RequestTimeout,
                            ProtocolError,
                        ):
                            done = False
                            remaining.append(
                                _PendingCompensation(
                                    entry.shard,
                                    entry.recipient,
                                    release,
                                    queued_at=self._clock(),
                                )
                            )
                if done:
                    cleared += 1
            else:
                self.metrics.inc("gateway.compensations")
                cleared += 1
        self._pending = remaining
        return cleared

    def _queue_pending(
        self, shard: int, recipient: str, sub_message: Message
    ) -> None:
        self.metrics.inc("gateway.pending_compensations")
        self._pending.append(
            _PendingCompensation(
                shard, recipient, sub_message, queued_at=self._clock()
            )
        )
        self._prune_pending()

    def _prune_pending(self) -> None:
        """Enforce the age and depth bounds on the dead-shard queue."""
        if self.pending_max_age is not None:
            cutoff = self._clock() - self.pending_max_age
            kept = [e for e in self._pending if e.queued_at >= cutoff]
            self.metrics.inc(
                "gateway.pending_dropped", len(self._pending) - len(kept)
            )
            self._pending = kept
        if (
            self.pending_limit is not None
            and len(self._pending) > self.pending_limit
        ):
            excess = len(self._pending) - self.pending_limit
            # Oldest first: they are the closest to their promise-duration
            # backstop expiring on the shard anyway.
            self.metrics.inc("gateway.pending_dropped", excess)
            self._pending = self._pending[excess:]

    # ------------------------------------------------------- introspection

    def metrics_snapshot(self) -> dict[str, object]:
        """Live fleet introspection: own registry plus per-shard scrapes.

        Sends a ``_metrics`` probe straight down each shard transport —
        deliberately bypassing the circuit breakers, because the whole
        point of a scrape is to see into a shard the breaker has written
        off.  A shard that is unreachable (or predates the endpoint)
        appears as ``None`` rather than failing the snapshot.
        """
        return {
            "gateway": self.metrics.snapshot(),
            "shards": [
                self._scrape(shard, METRICS_ENDPOINT)
                for shard in range(len(self._transports))
            ],
        }

    def spans_snapshot(self, trace_id: str | None = None) -> list[dict]:
        """Collect span dicts fleet-wide: local recorder + shard scrapes.

        The union of the gateway's own spans (client attempts route
        through here too when the recorder is shared) and each shard's
        ``_spans`` ring.  Duplicate span ids across sources are expected
        and left to the renderer to fold.
        """
        collected: list[dict] = []
        if self.tracer is not None:
            collected.extend(
                span.to_dict() for span in self.tracer.spans(trace_id)
            )
        params: dict[str, object] = (
            {"trace_id": trace_id} if trace_id is not None else {}
        )
        for shard in range(len(self._transports)):
            value = self._scrape(shard, SPANS_ENDPOINT, params)
            if isinstance(value, list):
                collected.extend(
                    span for span in value if isinstance(span, dict)
                )
        return collected

    def _scrape(
        self,
        shard: int,
        endpoint: str,
        params: Mapping[str, object] | None = None,
    ) -> object | None:
        """One observability probe to one shard; ``None`` on any failure."""
        self._scrape_counter += 1
        probe = Message(
            message_id=f"{self.name}:scrape:{self._scrape_counter}",
            sender=self.name,
            recipient=endpoint,
            action=ActionPayload(
                service="_obs", operation="scrape", params=dict(params or {})
            ),
        )
        try:
            reply = self._transports[shard].send(probe)
        except Exception:  # noqa: BLE001 - a scrape must never raise
            return None
        outcome = reply.action_outcome
        if outcome is None or not outcome.success:
            return None
        return outcome.value

    # ------------------------------------------------------------ internals

    def _shard_send(self, shard: int, message: Message) -> Message:
        """Send to one shard through its circuit breaker (if any).

        Captures the shard's transport generation before sending: if a
        failover remapped the shard while this request was in flight,
        the reply came from the deposed primary and is discarded (and
        its outcome is not recorded against the *new* primary's
        breaker).  Requests to replicated shards are stamped with the
        group's current epoch so a deposed server rejects them itself.

        Traced messages get one ``gateway.shard_send`` span per leg —
        the unit the trace tree shows a scatter-gather fanning out into
        — and the wire message carries the leg span's context, so the
        shard server's dispatch span becomes its child.
        """
        generation = self._generations[shard]
        epoch = self._epochs[shard]
        if epoch is not None and message.epoch is None:
            message = replace(message, epoch=epoch)
        if self.tracer is None or message.trace is None:
            return self._guarded_send(shard, generation, message)
        with self.tracer.span(
            "gateway.shard_send",
            parent=message.trace,
            shard=shard,
            epoch=epoch,
            deadline_remaining=message.deadline,
        ) as span:
            reply = self._guarded_send(
                shard, generation, replace(message, trace=span.context)
            )
            if reply.faults:
                span.set_outcome("fault")
            return reply

    def _guarded_send(
        self, shard: int, generation: int, message: Message
    ) -> Message:
        breaker = self.breakers[shard] if self.breakers else None
        if breaker is None:
            return self._fence_reply(
                shard, generation, self._transports[shard].send(message)
            )
        if not breaker.allow():
            self.metrics.inc("gateway.breaker_fast_failures")
            raise CircuitOpen(breaker.endpoint)
        try:
            reply = self._transports[shard].send(message)
        except TransportFailure:
            if self._generations[shard] == generation:
                breaker.record_failure()
            raise
        if self._generations[shard] == generation:
            breaker.record_success()
        return self._fence_reply(shard, generation, reply)

    def _fence_reply(
        self, shard: int, generation: int, reply: Message
    ) -> Message:
        if self._generations[shard] != generation:
            self.metrics.inc("gateway.stale_acks_discarded")
            raise TransportFailure(
                f"shard-{shard}: reply from deposed primary discarded "
                "(transport generation fence)"
            )
        return reply

    @staticmethod
    def _restamp(expires_at: float | None) -> float | None:
        """The remaining wire budget for a sub-message sent right now."""
        return None if expires_at is None else expires_at - time.monotonic()

    def _note_homes(self, message: Message, reply: Message, shard: int) -> None:
        """Track which shard granted each plain promise id (fast path)."""
        for response in reply.promise_responses:
            if response.accepted and response.promise_id is not None:
                self._homes[response.promise_id] = shard
        if reply.action_outcome is not None:
            for promise_id in reply.action_outcome.released:
                self._homes.pop(promise_id, None)
        if message.environment is not None and message.action is None:
            for promise_id in message.environment.releases():
                self._homes.pop(promise_id, None)

    @staticmethod
    def _find_response(
        reply: Message, correlation: str
    ) -> PromiseResponse | None:
        for response in reply.promise_responses:
            if response.correlation == correlation:
                return response
        return None

    def _partition_fault(self, message: Message, exc: PartitionError) -> Message:
        responses = tuple(
            PromiseResponse.rejected(request.request_id, str(exc))
            for request in message.promise_requests
        )
        return message.reply(
            message_id=f"{message.message_id}/reply",
            promise_responses=responses,
            faults=(f"cluster-partition: {exc}",),
        )
