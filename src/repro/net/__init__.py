"""Networked promise managers: the protocol of §6 over real sockets.

The paper's prototype (Figure 2, §8) ran the promise manager behind a
SOAP/Web-Services stack; this package supplies the equivalent substrate
so client, promise manager and resource manager can live in separate
processes:

* :mod:`repro.net.framing` — length-prefixed wire frames for SOAP
  envelopes, with max-frame-size and truncation errors;
* :mod:`repro.net.server` — an asyncio TCP server hosting any
  registered ``Handler``, with per-connection read loops, graceful
  shutdown and §6 duplicate suppression (redelivered requests return
  the cached reply instead of re-executing);
* :mod:`repro.net.pipeline` — :class:`PipelinedClient`, the one wire
  client: a single connection, many outstanding requests with
  id-correlated replies, and one ``request`` path carrying deadline,
  circuit breaker and :class:`~repro.protocol.retry.RetryPolicy`;
* :mod:`repro.net.executor` — :class:`KeyedExecutor`, the per-key FIFO
  executor every server request is dispatched through (inline with no
  workers, a pool otherwise);
* :mod:`repro.net.transport` — :class:`NetworkTransport`, a drop-in
  replacement for the in-process transport, fault plans included.
"""

from .executor import DEFAULT_WORKERS, KeyedExecutor
from .pipeline import PipelinedClient
from .framing import (
    DEFAULT_MAX_FRAME_SIZE,
    FrameError,
    FrameTooLarge,
    TruncatedFrame,
    encode_frame,
    read_frame,
    read_frame_async,
)
from .server import (
    TRANSPORT_FAULT_PREFIX,
    PromiseServer,
    ThreadedServer,
)
from .transport import NetworkTransport

__all__ = [
    "DEFAULT_MAX_FRAME_SIZE",
    "DEFAULT_WORKERS",
    "KeyedExecutor",
    "PipelinedClient",
    "FrameError",
    "FrameTooLarge",
    "NetworkTransport",
    "PromiseServer",
    "TRANSPORT_FAULT_PREFIX",
    "ThreadedServer",
    "TruncatedFrame",
    "encode_frame",
    "read_frame",
    "read_frame_async",
]
