"""Promise message protocol (paper, Section 6).

SOAP-envelope messages whose headers carry ``<promise-request>``,
``<promise-response>`` and ``<environment>`` elements and whose bodies
carry application actions; plus an in-process transport, a service-side
endpoint implementing the Figure-2 message split, a client stub with
retry/redelivery support, and (via :mod:`repro.net`) a real asyncio TCP
transport so client, promise manager and resource manager can live in
separate processes.
"""

from .client import MessageTransport, PromiseClient
from .correlation import CorrelationTracker, MatchedExchange, ReplyCache
from .endpoint import ActionResolver, PromiseEndpoint
from .errors import (
    CorrelationError,
    MalformedMessage,
    Overloaded,
    ProtocolError,
    RequestTimeout,
    TransportFailure,
    UnknownEndpoint,
)
from .messages import ActionOutcomePayload, ActionPayload, Message
from .retry import RetryPolicy
from .soap import PROMISE_NS, SOAP_NS, SoapCodec
from .transport import InProcessTransport, TransportStats

# Networked counterparts, re-exported lazily: repro.net imports this
# package's submodules, so an eager import here would be circular.
_NET_EXPORTS = {
    "NetworkTransport",
    "PromiseServer",
    "ThreadedServer",
}

__all__ = [
    "ActionOutcomePayload",
    "ActionPayload",
    "ActionResolver",
    "CorrelationError",
    "CorrelationTracker",
    "InProcessTransport",
    "MalformedMessage",
    "MatchedExchange",
    "Message",
    "MessageTransport",
    "NetworkTransport",
    "Overloaded",
    "PROMISE_NS",
    "PromiseClient",
    "PromiseEndpoint",
    "PromiseServer",
    "ProtocolError",
    "ReplyCache",
    "RequestTimeout",
    "RetryPolicy",
    "SOAP_NS",
    "SoapCodec",
    "ThreadedServer",
    "TransportFailure",
    "TransportStats",
    "UnknownEndpoint",
]


def __getattr__(name: str):
    if name in _NET_EXPORTS:
        from .. import net

        return getattr(net, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
