"""Partial-failure and overload protection for the promise fleet.

The paper's promise managers let autonomous services make safe progress
without holding locks across partners (§5–6); this package defends that
progress against the failure modes that dominate at scale: overload,
slow or dead shards, and cascading retries.  Three mechanisms compose:

* :mod:`~repro.resilience.deadline` — end-to-end deadlines carried in
  the SOAP header as a remaining budget, so servers can cheaply reject
  work nobody is waiting for and retries never sleep past it;
* :mod:`~repro.resilience.admission` — server-side admission control
  (bounded queue + token bucket) that sheds promise *checks* before
  *releases*, so degradation never orphans a reservation;
* :mod:`~repro.resilience.breaker` — per-endpoint circuit breakers so
  one dead shard stops consuming the fleet's retry budget.
"""

from .admission import (
    KIND_ACTION,
    KIND_CHECK,
    KIND_RELEASE,
    AdmissionController,
    classify,
)
from .breaker import BreakerState, CircuitBreaker, CircuitOpen
from .deadline import Deadline, remaining_budget

__all__ = [
    "AdmissionController",
    "BreakerState",
    "CircuitBreaker",
    "CircuitOpen",
    "Deadline",
    "KIND_ACTION",
    "KIND_CHECK",
    "KIND_RELEASE",
    "classify",
    "remaining_budget",
]
