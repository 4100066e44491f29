"""Networked message transport with the in-process transport's surface.

:class:`NetworkTransport` exposes exactly the contract of
:class:`~repro.protocol.transport.InProcessTransport` — ``send(Message)
-> Message``, ``register()``, ``metrics`` (the ``transport.*``
counters), ``wire_log`` and the deterministic fault plans — so every
existing service wiring, baseline and benchmark can run over real
sockets unchanged: hand a ``Deployment`` a ``NetworkTransport`` bound
to a local :class:`~repro.net.server.PromiseServer` and the Figure-2
pipeline spans an actual TCP hop.  Each send takes its delivery number
from the ``transport.sent`` increment itself, so threads sharing one
transport never share a number and a planned drop fires exactly once.

The fault plans are reimplemented at the socket layer: a *request drop*
never writes to the socket, a *reply drop* writes the request on a
throw-away connection and closes it unread — the server executes the
action but the reply is lost, the classic partial failure §6's
redelivery semantics exist to survive.  Everything else goes through
the one :class:`~repro.net.pipeline.PipelinedClient` this transport
holds; ``send`` has no other path.
"""

from __future__ import annotations

import time
from collections import deque
from types import SimpleNamespace
from typing import Callable

from ..protocol.errors import (
    Overloaded,
    RequestTimeout,
    TransportFailure,
    UnknownEndpoint,
)
from ..protocol.messages import Message
from ..protocol.retry import RetryPolicy
from ..protocol.soap import SoapCodec
from ..protocol.transport import DEFAULT_LOG_LIMIT, Handler, _FaultPlan
from ..resilience.breaker import CircuitBreaker
from .framing import DEFAULT_MAX_FRAME_SIZE
from .pipeline import PipelinedClient
from .server import TRANSPORT_FAULT_PREFIX, PromiseServer


class NetworkTransport:
    """Request/reply routing to promise endpoints over TCP.

    Construct with either a started local ``server`` (then
    :meth:`register` forwards to it, letting ``Deployment`` wire itself
    the same way it does in-process) or a bare ``address`` of a remote
    server (then :meth:`register` raises — handlers live in the server
    process).
    """

    def __init__(
        self,
        address: tuple[str, int] | None = None,
        server: PromiseServer | None = None,
        codec: SoapCodec | None = None,
        timeout: float = 5.0,
        retry: RetryPolicy | None = None,
        max_frame_size: int = DEFAULT_MAX_FRAME_SIZE,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if address is None:
            if server is None:
                raise ValueError("need an address or a local server")
            address = server.address
        self._server = server
        self._codec = codec or SoapCodec()
        #: The server address this transport talks to.
        self.address = address
        #: The byte-level client: one connection shared by every sending
        #: thread; retry, deadline and breaker all live in it.
        self.client = PipelinedClient(
            address,
            timeout=timeout,
            max_frame_size=max_frame_size,
            retry=retry or RetryPolicy.network(),
            breaker=breaker,
        )
        self._faults = _FaultPlan()
        self._log: deque[str] = deque(maxlen=DEFAULT_LOG_LIMIT)
        # ``transport.*`` counts on the client's registry, beside its
        # ``client.*`` / ``pipeline.*`` — one scrape sees the whole leg.
        self.metrics = self.client.metrics

    @property
    def stats(self) -> SimpleNamespace:
        """Read-only ``.sent``: this transport's ``transport.sent`` count.

        Kept for one reader, ``benchmarks/perf/layers.py``, which sums it
        over the shard transports for ``cluster.gateway.legs_per_pair``;
        every other caller reads ``metrics.value("transport.<name>")``.
        ROADMAP item 0(c) re-hooks that reader and deletes this property.
        """
        return SimpleNamespace(sent=int(self.metrics.value("transport.sent")))

    # ------------------------------------------------------------- surface

    def rebound(self, address: tuple[str, int]) -> "NetworkTransport":
        """A fresh transport with this one's settings, aimed at ``address``
        — what a failover installs in place of the leg to a deposed
        primary.  The breaker is carried: it guards the shard, whichever
        node currently serves it."""
        return NetworkTransport(
            address,
            codec=self._codec,
            timeout=self.client.timeout,
            retry=self.client.retry,
            max_frame_size=self.client.max_frame_size,
            breaker=self.client.breaker,
        )

    def register(self, endpoint: str, handler: Handler) -> None:
        """Register on the co-hosted local server (if there is one)."""
        if self._server is None:
            raise TransportFailure(
                "cannot register a handler through a remote-only transport; "
                "register on the PromiseServer in the serving process"
            )
        self._server.register(endpoint, handler)

    def endpoints(self) -> list[str]:
        """Endpoint names of the co-hosted local server."""
        if self._server is None:
            return []
        return self._server.endpoints()

    def plan_request_drop(self, delivery_number: int) -> None:
        """Drop the Nth (1-based) request before it touches the socket."""
        self._faults.drop_requests.add(delivery_number)

    def plan_reply_drop(self, delivery_number: int) -> None:
        """Send the Nth request, then sever the connection unread."""
        self._faults.drop_replies.add(delivery_number)

    def send(self, message: Message) -> Message:
        """Deliver ``message`` over TCP and return the decoded reply.

        Exception vocabulary matches the in-process transport:
        :class:`UnknownEndpoint` for unroutable recipients (mapped back
        from the server's ``transport:`` fault) and
        :class:`TransportFailure` for drops, resets and timeouts.
        """
        payload = self._outbound(message)
        # The message's deadline stamp is the budget remaining *now*;
        # hand the byte client the matching absolute deadline so its
        # retry loop (attempt timeouts and backoff sleeps alike) stays
        # inside it.
        deadline = (
            time.monotonic() + message.deadline
            if message.deadline is not None
            else None
        )
        return self._inbound(
            message, self.client.request(payload, deadline=deadline)
        )

    def begin(self, message: Message) -> Callable[[], Message]:
        """Put ``message`` on the wire now; the returned thunk waits for
        the reply and decodes it, raising what :meth:`send` would.

        :meth:`send` cut in two, so a caller with several servers to
        tell (a replication flush) has every request on its wire before
        it waits for any answer.  Built on the client's raw windowed
        layer: one attempt, no retry, no deadline, no breaker.
        """
        future = self.client.submit(self._outbound(message))
        return lambda: self._inbound(message, self.client.wait(future))

    def close(self) -> None:
        """Close the connection."""
        self.client.close()

    def __enter__(self) -> "NetworkTransport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def wire_log(self) -> list[str]:
        """XML of recent envelopes sent/received (newest last)."""
        return list(self._log)

    # ----------------------------------------------------------- internals

    def _outbound(self, message: Message) -> bytes:
        """The sending half: encode, count, log, apply the fault plan."""
        delivery = self.metrics.inc("transport.sent")

        encoded = self._codec.encode(message)
        payload = encoded.encode("utf-8")
        self.metrics.inc("transport.bytes_on_wire", len(payload))
        self._log.append(encoded)

        if delivery in self._faults.drop_requests:
            self.metrics.inc("transport.dropped_requests")
            raise TransportFailure(
                f"request {message.message_id} lost in transit"
            )

        if delivery in self._faults.drop_replies:
            self.client.send_and_abandon(payload)
            self.metrics.inc("transport.dropped_replies")
            raise TransportFailure(
                f"reply to {message.message_id} lost in transit"
            )
        return payload

    def _inbound(self, message: Message, reply_bytes: bytes) -> Message:
        """The receiving half: count, log, decode, raise transport faults."""
        reply_text = reply_bytes.decode("utf-8")
        self.metrics.inc("transport.bytes_on_wire", len(reply_bytes))
        self._log.append(reply_text)
        reply = self._codec.decode(reply_text)
        self._raise_transport_faults(message, reply)
        self.metrics.inc("transport.delivered")
        return reply

    def _raise_transport_faults(self, message: Message, reply: Message) -> None:
        for fault in reply.faults:
            if not fault.startswith(TRANSPORT_FAULT_PREFIX):
                continue
            detail = fault[len(TRANSPORT_FAULT_PREFIX):]
            if detail.startswith("unknown-endpoint"):
                raise UnknownEndpoint(message.recipient)
            if detail.startswith("overloaded"):
                raise Overloaded(detail)
            if detail.startswith("deadline-expired"):
                raise RequestTimeout(detail)
            raise TransportFailure(detail)
