"""Promise, promise-request and promise-response model.

"A Promise is an agreement between a client application (a 'promise
client') and a service (a 'promise maker').  By accepting a promise
request, a service guarantees that some set of conditions ('predicates')
will be maintained over a set of resources for a specified period of
time." (paper, §2)

The shapes here mirror the protocol elements of §6 one-to-one: a
:class:`PromiseRequest` carries a request identifier, predicates, the
resources they cover, a requested duration, and optionally the identifiers
of existing promises to hand back atomically; a :class:`PromiseResponse`
carries the promise identifier, the accept/reject result, the granted
duration, and the correlation back to the request.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import PredicateError
from .predicates import Predicate


class PromiseStatus(enum.Enum):
    """Lifecycle of a granted promise."""

    ACTIVE = "active"
    RELEASED = "released"
    EXPIRED = "expired"

    @property
    def is_live(self) -> bool:
        """True while the promise still binds the promise maker."""
        return self is PromiseStatus.ACTIVE


class PromiseResult(enum.Enum):
    """Outcome of a promise request (§6: accepted or rejected).

    The paper notes that richer results ('pending', conditional accepts)
    "have still to be investigated"; this reproduction implements the two
    the protocol defines.
    """

    ACCEPTED = "accepted"
    REJECTED = "rejected"


@dataclass(frozen=True)
class PromiseRequest:
    """A ``<promise-request>`` header element (§6).

    ``releases`` names existing promises to hand back *atomically* with
    this grant: "if these new promises cannot be granted, the existing
    promises must continue to hold" (§6) — the third atomicity requirement
    of §4.
    """

    request_id: str
    predicates: tuple[Predicate, ...]
    duration: int
    client_id: str = "anonymous"
    releases: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.predicates:
            raise PredicateError("a promise request needs at least one predicate")
        if self.duration <= 0:
            raise PredicateError("promise duration must be positive")

    @property
    def resources(self) -> frozenset[str]:
        """The set of resources the request's predicates cover (§6)."""
        gathered: frozenset[str] = frozenset()
        for predicate in self.predicates:
            gathered |= predicate.resources()
        return gathered

    def to_dict(self) -> dict[str, object]:
        """Serialise for the protocol layer."""
        return {
            "request_id": self.request_id,
            "client_id": self.client_id,
            "predicates": [predicate.to_dict() for predicate in self.predicates],
            "duration": self.duration,
            "releases": list(self.releases),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "PromiseRequest":
        """Inverse of :meth:`to_dict`."""
        raw_predicates = payload.get("predicates")
        if not isinstance(raw_predicates, list):
            raise PredicateError("promise request predicates must be a list")
        return cls(
            request_id=str(payload["request_id"]),
            client_id=str(payload.get("client_id", "anonymous")),
            predicates=tuple(
                Predicate.from_dict(entry) for entry in raw_predicates
            ),
            duration=int(payload["duration"]),  # type: ignore[arg-type]
            releases=tuple(str(p) for p in payload.get("releases", ())),  # type: ignore[union-attr]
        )


@dataclass(frozen=True)
class PromiseResponse:
    """A ``<promise-response>`` header element (§6).

    ``counter`` carries a counter-offer on rejection — the 'accepted with
    the condition XX' style of response §6 flags as uninvestigated: the
    weakest strengthening of "we cannot promise that" into "but we *can*
    promise this".  Clients accept by re-requesting the counter predicate.
    """

    promise_id: str | None
    result: PromiseResult
    duration: int
    correlation: str
    reason: str = ""
    counter: Predicate | None = None

    @property
    def accepted(self) -> bool:
        """True when the request was granted."""
        return self.result is PromiseResult.ACCEPTED

    def to_dict(self) -> dict[str, object]:
        """Serialise for the protocol layer."""
        payload: dict[str, object] = {
            "promise_id": self.promise_id,
            "result": self.result.value,
            "duration": self.duration,
            "correlation": self.correlation,
            "reason": self.reason,
        }
        if self.counter is not None:
            payload["counter"] = self.counter.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "PromiseResponse":
        """Inverse of :meth:`to_dict`."""
        promise_id = payload.get("promise_id")
        raw_counter = payload.get("counter")
        counter = None
        if isinstance(raw_counter, Mapping):
            counter = Predicate.from_dict(raw_counter)
        return cls(
            promise_id=None if promise_id is None else str(promise_id),
            result=PromiseResult(str(payload["result"])),
            duration=int(payload.get("duration", 0)),  # type: ignore[arg-type]
            correlation=str(payload.get("correlation", "")),
            reason=str(payload.get("reason", "")),
            counter=counter,
        )

    @classmethod
    def rejected(
        cls,
        correlation: str,
        reason: str,
        counter: Predicate | None = None,
    ) -> "PromiseResponse":
        """Build a rejection response, optionally with a counter-offer."""
        return cls(
            promise_id=None,
            result=PromiseResult.REJECTED,
            duration=0,
            correlation=correlation,
            reason=reason,
            counter=counter,
        )


@dataclass(frozen=True)
class Promise:
    """A granted promise as the promise manager records it (§8's
    'promise table' row).

    ``meta`` holds strategy bookkeeping — escrowed amounts, tagged or
    tentatively assigned instance ids, upstream promise ids for delegation
    — keyed by strategy name so different strategies never collide.

    A value: a changed promise is a new one (``dataclasses.replace``).
    Decoded from a stored row, ``meta`` is that row's read-only mapping.
    """

    promise_id: str
    client_id: str
    predicates: tuple[Predicate, ...]
    granted_at: int
    expires_at: int
    status: PromiseStatus = PromiseStatus.ACTIVE
    meta: Mapping[str, object] = field(default_factory=dict)

    @property
    def is_active(self) -> bool:
        """True while the promise binds the promise maker."""
        return self.status is PromiseStatus.ACTIVE

    def is_expired_at(self, now: int) -> bool:
        """Would this promise be expired at tick ``now``?"""
        return now >= self.expires_at

    @property
    def resources(self) -> frozenset[str]:
        """Resources covered by the promise's predicates."""
        gathered: frozenset[str] = frozenset()
        for predicate in self.predicates:
            gathered |= predicate.resources()
        return gathered

    def to_dict(self) -> dict[str, object]:
        """Serialise for the promise table."""
        return {
            "promise_id": self.promise_id,
            "client_id": self.client_id,
            "predicates": [predicate.to_dict() for predicate in self.predicates],
            "granted_at": self.granted_at,
            "expires_at": self.expires_at,
            "status": self.status.value,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Promise":
        """Inverse of :meth:`to_dict`."""
        raw_predicates = payload.get("predicates")
        if not isinstance(raw_predicates, list):
            raise PredicateError("promise predicates must be a list")
        meta = payload.get("meta", {})
        if not isinstance(meta, Mapping):
            raise PredicateError("promise meta must be a mapping")
        return cls(
            promise_id=str(payload["promise_id"]),
            client_id=str(payload.get("client_id", "anonymous")),
            predicates=tuple(
                Predicate.from_dict(entry) for entry in raw_predicates
            ),
            granted_at=int(payload["granted_at"]),  # type: ignore[arg-type]
            expires_at=int(payload["expires_at"]),  # type: ignore[arg-type]
            status=PromiseStatus(str(payload.get("status", "active"))),
            meta=meta,
        )


class IdGenerator:
    """Deterministic id source for requests and promises.

    Sequential ids keep simulations reproducible and logs readable; a
    deployment would swap in UUIDs without touching anything else.
    """

    def __init__(self, prefix: str) -> None:
        self._prefix = prefix
        self._issued = 0

    def next_id(self) -> str:
        """Produce the next id, e.g. ``prm-42``."""
        self._issued += 1
        return f"{self._prefix}-{self._issued}"

    def ensure_past(self, used_id: str) -> None:
        """Advance the counter past a previously issued id.

        Recovery feeds every id found on disk through this so a
        restarted manager never re-issues one; ids with a foreign prefix
        (client-generated dedup keys, say) are ignored.
        """
        prefix = f"{self._prefix}-"
        if not used_id.startswith(prefix):
            return
        suffix = used_id[len(prefix):]
        if suffix.isdigit():
            self._issued = max(self._issued, int(suffix))

    def take(self, count: int) -> list[str]:
        """Produce ``count`` consecutive ids."""
        return [self.next_id() for __ in range(count)]


def total_quantity_demand(
    promises: Iterable[Promise], pool_id: str
) -> int:
    """Sum every live promise's quantity demand on ``pool_id``.

    Used by the anonymous-view invariant of §3.1: the sum of all promised
    quantities must never exceed what is actually on hand.  Only pure
    conjunctions contribute; Or-promises are resolved by the checker.
    """
    total = 0
    for promise in promises:
        if not promise.is_active:
            continue
        for predicate in promise.predicates:
            for branch in predicate.dnf()[:1]:
                for atom in branch:
                    pool = getattr(atom, "pool_id", None)
                    if pool == pool_id:
                        total += atom.amount  # type: ignore[attr-defined]
    return total
