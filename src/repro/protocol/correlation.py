"""Correlation tracking for promise requests and responses.

Section 6: "A request identifier ... is used to correlate promise-requests
and promise-responses", and a reply may carry "a piggybacked response
reporting on the outcome of a previous request".  The tracker keeps the
set of outstanding request ids and matches responses as they arrive — in
any order, possibly piggybacked on unrelated messages.

This module also houses :class:`ReplyCache`, the server-side half of
§6's atomic message processing: replies are remembered by message id so
a redelivered request (a client retrying after a lost reply) gets the
original reply back instead of being executed a second time.  Both the
in-process transport and the networked server use it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Generic, TypeVar

from ..core.promise import PromiseRequest, PromiseResponse
from .errors import CorrelationError

ReplyT = TypeVar("ReplyT")


@dataclass(frozen=True)
class MatchedExchange:
    """A request paired with its response."""

    request: PromiseRequest
    response: PromiseResponse


class CorrelationTracker:
    """Matches promise responses to their outstanding requests."""

    def __init__(self) -> None:
        self._pending: dict[str, PromiseRequest] = {}
        self._matched: list[MatchedExchange] = []

    def sent(self, request: PromiseRequest) -> None:
        """Record an outgoing request as awaiting its response."""
        if request.request_id in self._pending:
            raise CorrelationError(
                f"request id {request.request_id!r} already outstanding"
            )
        self._pending[request.request_id] = request

    def received(self, response: PromiseResponse) -> MatchedExchange:
        """Match an incoming response; raises when nothing is waiting."""
        request = self._pending.pop(response.correlation, None)
        if request is None:
            raise CorrelationError(
                f"response correlates to unknown request "
                f"{response.correlation!r}"
            )
        exchange = MatchedExchange(request=request, response=response)
        self._matched.append(exchange)
        return exchange

    def outstanding(self) -> list[str]:
        """Request ids still awaiting responses."""
        return sorted(self._pending)

    def history(self) -> list[MatchedExchange]:
        """All matched exchanges, oldest first."""
        return list(self._matched)

    def abandon(self, request_id: str) -> PromiseRequest:
        """Give up on an outstanding request (e.g. transport failure)."""
        request = self._pending.pop(request_id, None)
        if request is None:
            raise CorrelationError(f"no outstanding request {request_id!r}")
        return request


class ReplyCache(Generic[ReplyT]):
    """Bounded LRU cache of replies keyed by request message id.

    Implements the duplicate-suppression side of §6's "atomic
    processing": when a message id is seen again (a redelivery), the
    cached reply is returned verbatim — byte-identical when the cached
    value is the encoded envelope — and the handler is *not* re-run.

    The cache is capacity-bounded (least-recently-used eviction) so a
    long-lived server does not grow without limit; a retry storm only
    needs the last few thousand replies to stay idempotent.  An optional
    ``max_bytes`` bound additionally caps the total size of sized
    replies (``bytes``/``str`` envelopes — unsized values count as
    zero), because a thousand 10 MB replies is a very different cache
    from a thousand 200-byte ones.  The most recent entry is always
    kept, even when it alone exceeds ``max_bytes``: evicting the reply
    just written would guarantee re-execution on the very next retry.

    Evicting an entry is *safe* but not free: a redelivery of an
    evicted message id re-executes the handler.  The promise manager's
    own idempotence (a request id already granted is re-granted, not
    double-granted) is what keeps that harmless — the cache is an
    optimization over it, not the only line of defence.

    **Pinning** closes the one hole byte-bound eviction opens under
    pipelined load: a server that has *executed* a request but not yet
    finished releasing its reply (ack gate, durability wait, waking
    duplicate waiters) must be able to guarantee the entry outlives
    those steps no matter how much byte pressure concurrent requests
    apply.  A pinned entry is skipped by both eviction sweeps;
    :meth:`unpin` re-admits it to the LRU order.  All operations take an
    internal lock — worker threads put while the event loop gets.
    """

    def __init__(
        self, capacity: int = 1024, max_bytes: int | None = None
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be at least 1")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self._lock = threading.RLock()
        self._replies: OrderedDict[str, ReplyT] = OrderedDict()
        self._sizes: dict[str, int] = {}
        self._pinned: set[str] = set()
        self.bytes_used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def _size_of(reply: ReplyT) -> int:
        if isinstance(reply, (bytes, bytearray, str)):
            return len(reply)
        return 0

    def get(self, message_id: str) -> ReplyT | None:
        """The cached reply for ``message_id``, or None if unseen."""
        with self._lock:
            reply = self._replies.get(message_id)
            if reply is None:
                self.misses += 1
                return None
            self._replies.move_to_end(message_id)
            self.hits += 1
            return reply

    def put(
        self, message_id: str, reply: ReplyT, *, pinned: bool = False
    ) -> None:
        """Remember the reply sent for ``message_id``.

        ``pinned=True`` shields the entry from eviction until
        :meth:`unpin` — used while the originating request is still in
        flight through the server's release pipeline.
        """
        with self._lock:
            if message_id in self._replies:
                self.bytes_used -= self._sizes[message_id]
            self._replies[message_id] = reply
            self._replies.move_to_end(message_id)
            self._sizes[message_id] = self._size_of(reply)
            self.bytes_used += self._sizes[message_id]
            if pinned:
                self._pinned.add(message_id)
            self._enforce_bounds()

    def pin(self, message_id: str) -> None:
        """Shield an existing entry from eviction (no-op when absent)."""
        with self._lock:
            if message_id in self._replies:
                self._pinned.add(message_id)

    def unpin(self, message_id: str) -> None:
        """Lift a pin and re-apply the byte bound (idempotent)."""
        with self._lock:
            self._pinned.discard(message_id)
            self._enforce_bounds()

    def pinned(self, message_id: str) -> bool:
        """Is this entry currently shielded from eviction?"""
        with self._lock:
            return message_id in self._pinned

    def _enforce_bounds(self) -> None:
        while len(self._replies) > self.capacity:
            if not self._evict_oldest():
                break
        if self.max_bytes is not None:
            while self.bytes_used > self.max_bytes and len(self._replies) > 1:
                if not self._evict_oldest():
                    break

    def _evict_oldest(self) -> bool:
        """Evict the LRU unpinned entry; False when every entry is pinned."""
        for message_id in self._replies:
            if message_id not in self._pinned:
                break
        else:
            return False
        del self._replies[message_id]
        self.bytes_used -= self._sizes.pop(message_id)
        self.evictions += 1
        return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._replies)

    def __contains__(self, message_id: str) -> bool:
        with self._lock:
            return message_id in self._replies
