"""In-process message transport.

Stands in for the SOAP/HTTP stack under the paper's prototype (Figure 2).
Endpoints register a handler; :meth:`InProcessTransport.send` routes a
request message to its recipient and returns the reply.  To keep the
substrate honest, every message is round-tripped through the
:class:`~repro.protocol.soap.SoapCodec` — services only ever
see what actually survives serialisation.

The transport also supports deterministic fault injection (drop the
request or the reply on chosen deliveries) so tests can exercise the
failure paths that motivate promises in the first place, and implements
§6's at-most-once delivery: replies are cached by message id, so a
redelivered request (same message id) returns the original reply
byte-for-byte instead of re-executing the handler.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from ..obs.metrics import MetricsRegistry
from .correlation import ReplyCache
from .errors import TransportFailure, UnknownEndpoint
from .messages import Message
from .soap import SoapCodec

Handler = Callable[[Message], Message]

#: Default bound on the wire log; long simulations would otherwise grow it
#: without limit (one XML string per message that crosses the wire).
DEFAULT_LOG_LIMIT = 1024

#: Default capacity of the at-most-once reply cache.
DEFAULT_DEDUP_CAPACITY = 1024


@dataclass
class _FaultPlan:
    """Deterministic drop schedule: deliveries (1-based) to fail."""

    drop_requests: set[int] = field(default_factory=set)
    drop_replies: set[int] = field(default_factory=set)


class InProcessTransport:
    """Synchronous request/reply routing between named endpoints.

    ``log_limit`` caps the wire log (a ring buffer of the most recent
    entries); pass ``None`` to opt out and keep every envelope.
    ``dedup_capacity`` sizes the §6 reply cache; pass ``None`` to
    disable duplicate suppression entirely.
    """

    def __init__(
        self,
        codec: SoapCodec | None = None,
        log_limit: int | None = DEFAULT_LOG_LIMIT,
        dedup_capacity: int | None = DEFAULT_DEDUP_CAPACITY,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._handlers: dict[str, Handler] = {}
        self._codec = codec or SoapCodec()
        self._faults = _FaultPlan()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._log: deque[str] = deque(maxlen=log_limit)
        self._replies: ReplyCache[str] | None = (
            ReplyCache(dedup_capacity) if dedup_capacity else None
        )

    def register(self, endpoint: str, handler: Handler) -> None:
        """Expose ``handler`` under the endpoint name ``endpoint``."""
        self._handlers[endpoint] = handler

    def endpoints(self) -> list[str]:
        """Names of all registered endpoints."""
        return sorted(self._handlers)

    def plan_request_drop(self, delivery_number: int) -> None:
        """Drop the Nth (1-based) request before it reaches the endpoint."""
        self._faults.drop_requests.add(delivery_number)

    def plan_reply_drop(self, delivery_number: int) -> None:
        """Drop the Nth (1-based) reply on its way back."""
        self._faults.drop_replies.add(delivery_number)

    def send(self, message: Message) -> Message:
        """Deliver ``message`` and return the endpoint's reply.

        Raises :class:`UnknownEndpoint` for unroutable recipients and
        :class:`TransportFailure` when a fault plan drops the request or
        the reply.  A message id seen before is served from the reply
        cache without re-invoking the handler (§6 atomic processing) —
        that is what makes redelivery after a lost reply safe.
        """
        delivery = self.metrics.inc("transport.sent")
        handler = self._handlers.get(message.recipient)
        if handler is None:
            raise UnknownEndpoint(message.recipient)

        if delivery in self._faults.drop_requests:
            self.metrics.inc("transport.dropped_requests")
            raise TransportFailure(
                f"request {message.message_id} lost in transit"
            )

        inbound = self._round_trip(message)

        cached = (
            self._replies.get(inbound.message_id)
            if self._replies is not None
            else None
        )
        if cached is not None:
            self.metrics.inc("transport.duplicates_served")
            self.metrics.inc("transport.delivered")
            return self._replay(cached)

        reply = handler(inbound)

        # Encode (and cache) the reply *before* the drop decision: the
        # encode work happened either way, so ``bytes_on_wire`` counts
        # it, and the cached reply is what makes the client's redelivery
        # return the identical envelope without re-executing.
        encoded = self._codec.encode(reply)
        self.metrics.inc("transport.bytes_on_wire", len(encoded))
        self._log.append(encoded)
        if self._replies is not None:
            self._replies.put(inbound.message_id, encoded)

        if delivery in self._faults.drop_replies:
            self.metrics.inc("transport.dropped_replies")
            raise TransportFailure(
                f"reply to {message.message_id} lost in transit"
            )

        outbound = self._codec.decode(encoded)
        self.metrics.inc("transport.delivered")
        return outbound

    def begin(self, message: Message) -> Callable[[], Message]:
        """:meth:`send` in the two-step shape of
        :meth:`NetworkTransport.begin <repro.net.transport.NetworkTransport.begin>`.
        In process there is no wire to wait on: the delivery happens
        when the returned thunk is called."""
        return partial(self.send, message)

    @property
    def wire_log(self) -> list[str]:
        """XML of recent messages that crossed the wire (newest last)."""
        return list(self._log)

    def _round_trip(self, message: Message) -> Message:
        encoded = self._codec.encode(message)
        self.metrics.inc("transport.bytes_on_wire", len(encoded))
        self._log.append(encoded)
        return self._codec.decode(encoded)

    def _replay(self, cached: str) -> Message:
        """Re-deliver a cached reply (it crosses the wire again)."""
        self.metrics.inc("transport.bytes_on_wire", len(cached))
        self._log.append(cached)
        return self._codec.decode(cached)
