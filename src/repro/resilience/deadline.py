"""End-to-end request deadlines.

A service-based application's partial failures are bounded in *time*
before they are bounded in anything else: the paper's promises carry
durations precisely so that no reservation outlives its usefulness, and
the same discipline applies to the requests that establish them.  A
:class:`Deadline` is the client-side half of that contract — an absolute
point on the monotonic clock by which the whole request (every retry,
every scatter-gather hop) must have completed.

Deadlines travel on the wire as a *remaining budget* in seconds (the
``<deadline>`` element of the SOAP header, mirroring gRPC's relative
``grpc-timeout``): absolute clocks do not transfer between machines, but
"you have 1.3 seconds left" does.  Each hop re-stamps the remaining
budget before forwarding, and a server that receives a non-positive
budget rejects the request cheaply instead of doing work nobody is
waiting for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Deadline:
    """An absolute monotonic-clock deadline for one logical request.

    ``clock`` is injectable so tests can drive time by hand; production
    code uses :func:`time.monotonic`.
    """

    expires_at: float
    clock: Callable[[], float] = field(default=time.monotonic, compare=False)

    @classmethod
    def after(
        cls, budget: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """The deadline ``budget`` seconds from now."""
        return cls(expires_at=clock() + budget, clock=clock)

    def remaining(self) -> float:
        """Seconds left before expiry; negative once past it."""
        return self.expires_at - self.clock()

    @property
    def expired(self) -> bool:
        """True once the deadline has passed."""
        return self.remaining() <= 0

    def budget(self) -> float:
        """The remaining budget clamped at zero (wire-stamp form)."""
        return max(0.0, self.remaining())

    def clamp(self, seconds: float) -> float:
        """``seconds`` shortened so it never runs past the deadline."""
        return min(seconds, self.budget())


def remaining_budget(deadline: object | None) -> float | None:
    """Seconds left on ``deadline``, whatever shape the caller handed us.

    Accepts ``None`` (no deadline), a :class:`Deadline`, anything else
    with a callable ``remaining()``, or a bare float taken as an absolute
    :func:`time.monotonic` timestamp.  This is the one reader of those
    shapes: the retry loop and the pipelined client both call it.
    """
    if deadline is None:
        return None
    remaining = getattr(deadline, "remaining", None)
    if callable(remaining):
        return remaining()
    return float(deadline) - time.monotonic()  # type: ignore[arg-type]
