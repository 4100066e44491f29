"""Server-side admission control: bounded queue, token bucket, shedding.

A promise manager at saturation has exactly one good move: say "not
now" *cheaply*, before the expensive isolation check runs, to the
requests whose loss hurts least.  This module implements that policy as
an :class:`AdmissionController` the networked server consults on every
inbound message:

* a **token bucket** (``rate`` tokens/second, ``burst`` capacity) caps
  sustained throughput, absorbing short bursts without letting a retry
  storm starve the fleet;
* a **bounded queue** (``max_queue`` admitted-but-unfinished requests)
  keeps latency from growing without limit when the bucket alone is not
  enough;
* **shed priority** orders the pain: promise *checks* (new
  promise-requests) are shed first, application *actions* next, and
  *releases* last — a shed check merely delays a reservation, but a
  shed release strands one, so graceful degradation must never orphan
  what it already granted.  Releases bypass the token bucket entirely
  and are refused only at a hard queue bound twice the soft one.

Checks shed before actions by reserving the bucket's floor: a check
needs the bucket to stay above ``reserve`` tokens after paying, an
action may drain it to zero.  The shed decision surfaces to clients as
a ``503``-style ``overloaded`` protocol fault, which the retry policy
treats as retryable-with-backoff.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

from ..obs.metrics import MetricsRegistry

#: Request kinds, in shed order (first shed first).
KIND_CHECK = "check"
KIND_ACTION = "action"
KIND_RELEASE = "release"


def classify(message: object) -> str:
    """Which admission class a protocol message belongs to.

    Duck-typed against :class:`~repro.protocol.messages.Message` so this
    module needs no protocol import: a message carrying new
    promise-requests is a *check* (shed first), a message carrying an
    action is an *action*, and an environment-only message is a
    *release* (shed last).  A combined check+action message counts as a
    check — its action cannot run if the check is shed anyway.
    """
    if getattr(message, "promise_requests", ()):
        return KIND_CHECK
    if getattr(message, "action", None) is not None:
        return KIND_ACTION
    return KIND_RELEASE


class AdmissionController:
    """Token-bucket rate limiting plus a bounded admission queue.

    ``rate`` is tokens per second (``None`` disables rate limiting),
    ``burst`` the bucket capacity (default: one second's worth of rate,
    at least 1).  ``reserve`` is the floor checks may not drain the
    bucket below, defaulting to a quarter of the burst — the band in
    which checks are already shed but actions still pass.  ``clock`` is
    injectable for deterministic tests.
    """

    def __init__(
        self,
        max_queue: int = 64,
        rate: float | None = None,
        burst: float | None = None,
        reserve: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive (or None to disable)")
        self.max_queue = max_queue
        self.rate = rate
        self.burst = burst if burst is not None else max(1.0, rate or 0.0)
        self.reserve = (
            reserve if reserve is not None else self.burst / 4.0
        )
        self._clock = clock
        self._tokens = self.burst
        self._refilled_at = clock()
        self._in_flight = 0
        #: Where the ``admission.*`` counters go; a server the
        #: controller is attached to rebinds it to its own registry.
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # ------------------------------------------------------------ decisions

    def admit(self, kind: str) -> bool:
        """Admit or shed one request of class ``kind``.

        Admitted requests must be bracketed with :meth:`slot` so the
        queue depth stays honest.
        """
        if kind == KIND_RELEASE:
            # Releases return capacity; shedding one orphans a granted
            # reservation until its duration expires.  Only the hard
            # bound (a server drowning outright) refuses them, and they
            # never pay tokens.
            if self._in_flight >= 2 * self.max_queue:
                self.metrics.inc("admission.shed_releases")
                return False
            self.metrics.inc("admission.admitted")
            return True
        if self._in_flight >= self.max_queue:
            self._shed(kind)
            return False
        floor = self.reserve if kind == KIND_CHECK else 0.0
        if not self._take_token(floor):
            self._shed(kind)
            return False
        self.metrics.inc("admission.admitted")
        return True

    @contextmanager
    def slot(self) -> Iterator[None]:
        """Occupy one queue slot for the duration of the execution."""
        self._in_flight += 1
        try:
            yield
        finally:
            self._in_flight -= 1

    @property
    def in_flight(self) -> int:
        """Requests admitted and not yet finished."""
        return self._in_flight

    def tokens(self) -> float:
        """Current bucket level (after refill) — for tests and stats."""
        self._refill()
        return self._tokens

    # ------------------------------------------------------------ internals

    def _shed(self, kind: str) -> None:
        if kind == KIND_CHECK:
            self.metrics.inc("admission.shed_checks")
        else:
            self.metrics.inc("admission.shed_actions")

    def _take_token(self, floor: float) -> bool:
        if self.rate is None:
            return True
        self._refill()
        if self._tokens - 1.0 >= floor - 1e-9:
            self._tokens -= 1.0
            return True
        return False

    def _refill(self) -> None:
        assert self.rate is not None
        now = self._clock()
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._refilled_at = now
