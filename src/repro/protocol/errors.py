"""Errors raised by the promise message protocol layer."""

from __future__ import annotations


class ProtocolError(Exception):
    """Base class for protocol-layer failures."""


class MalformedMessage(ProtocolError):
    """A message (or its XML encoding) violates the protocol structure."""


class UnknownEndpoint(ProtocolError):
    """A message was addressed to a service the transport doesn't know."""

    def __init__(self, endpoint: str) -> None:
        super().__init__(f"unknown endpoint {endpoint!r}")
        self.endpoint = endpoint


class TransportFailure(ProtocolError):
    """The (simulated) transport dropped or failed to deliver a message."""


class RequestTimeout(TransportFailure):
    """A request's deadline elapsed before the reply arrived.

    Subclasses :class:`TransportFailure` because a timeout is
    indistinguishable from a lost message to the caller — and, like a
    lost message, it is safe to retry under §6's at-most-once header
    processing."""


class Overloaded(TransportFailure):
    """The server shed this request under admission control.

    The 503 of the promise protocol.  Subclasses
    :class:`TransportFailure` because overload is transient by nature:
    the correct client reaction is exactly a retry with backoff, and
    redelivery is safe — the server sheds *before* executing or caching
    anything, so the retried message id is brand new to it."""
