"""Retry policy for promise-protocol requests.

Section 6's at-most-once header semantics exist precisely so that a
client may *redeliver* a request whose reply was lost: the receiving
promise manager recognises the repeated message id and returns the
original reply instead of re-executing.  This module supplies the
client half of that contract — a configurable retry loop with
exponential backoff and *deterministic* jitter drawn from
:class:`repro.sim.random.RandomStream`, so simulations and benchmarks
that inject faults stay reproducible run to run.

The policy only retries failures that redelivery can actually cure:
:class:`~repro.protocol.errors.TransportFailure` (which includes
:class:`~repro.protocol.errors.RequestTimeout`).  Protocol errors,
malformed messages and application faults propagate immediately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from ..resilience.deadline import remaining_budget
from ..sim.random import RandomStream
from .errors import TransportFailure

T = TypeVar("T")


@dataclass
class RetryPolicy:
    """Exponential-backoff retry schedule for idempotent requests.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one
    send plus at most two redeliveries.  Delay before the Nth retry is
    ``base_delay * multiplier**(N-1)`` capped at ``max_delay``; when a
    ``jitter`` stream is supplied the delay is scaled by a factor drawn
    uniformly from [0.5, 1.0) — deterministic for a given seed, so two
    runs with the same workload seed back off identically.
    """

    max_attempts: int = 3
    base_delay: float = 0.0
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: RandomStream | None = None
    retry_on: tuple[type[Exception], ...] = (TransportFailure,)
    sleep: Callable[[float], None] = time.sleep
    retries: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    # ------------------------------------------------------------ schedule

    def delay(self, failure_number: int) -> float:
        """Seconds to wait after the Nth (1-based) failed attempt."""
        raw = self.base_delay * self.multiplier ** (failure_number - 1)
        capped = min(self.max_delay, raw)
        if self.jitter is not None and capped > 0:
            capped *= 0.5 + self.jitter.random() / 2
        return capped

    # ----------------------------------------------------------- execution

    def run(self, attempt: Callable[[], T], deadline: object | None = None) -> T:
        """Call ``attempt`` until it succeeds or attempts are exhausted.

        Only exceptions matching ``retry_on`` are retried; the last one
        is re-raised when the budget runs out.  ``attempt`` must be safe
        to redeliver — in this protocol it is, because the server side
        suppresses duplicates by message id (§6).

        ``deadline`` (``None``, a :class:`repro.resilience.Deadline`, or
        an absolute monotonic timestamp) bounds the *whole* loop: a
        backoff sleep is clamped to the remaining budget, and once the
        budget is spent the last failure is re-raised instead of
        sleeping past the point anyone is still waiting.
        """
        failures = 0
        while True:
            try:
                return attempt()
            except self.retry_on:
                failures += 1
                if failures >= self.max_attempts:
                    raise
                remaining = remaining_budget(deadline)
                if remaining is not None and remaining <= 0:
                    raise
                self.retries += 1
                pause = self.delay(failures)
                if remaining is not None:
                    pause = min(pause, remaining)
                if pause > 0:
                    self.sleep(pause)

    # --------------------------------------------------------- constructors

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A policy that never retries (single attempt)."""
        return cls(max_attempts=1)

    @classmethod
    def fast(cls, max_attempts: int = 3) -> "RetryPolicy":
        """Immediate redelivery, no backoff — right for in-process use."""
        return cls(max_attempts=max_attempts, base_delay=0.0)

    @classmethod
    def network(
        cls,
        seed: int = 2007,
        max_attempts: int = 4,
        base_delay: float = 0.05,
        max_delay: float = 1.0,
    ) -> "RetryPolicy":
        """Backoff suitable for a real socket, jittered deterministically."""
        return cls(
            max_attempts=max_attempts,
            base_delay=base_delay,
            max_delay=max_delay,
            jitter=RandomStream(seed, "retry-jitter"),
        )
