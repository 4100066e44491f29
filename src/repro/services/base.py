"""Application-service framework.

"Applications are constructed by gluing together opaque and autonomous
services" (paper, §1).  An :class:`ApplicationService` is one such service:
it owns business tables in the store and exposes named operations.  The
promise manager passes actions to services (Figure 2, "Application"); the
service "uses a resource manager to keep the global system state" (§8).

Operations are ordinary methods named ``op_<operation>``; they receive the
:class:`~repro.core.manager.ActionContext` (transaction, resource manager,
promise environment) plus the decoded message parameters, and return a
value or an :class:`~repro.core.manager.ActionResult`.
"""

from __future__ import annotations

import functools
import inspect
from abc import ABC
from typing import Callable

from ..core.manager import Action, ActionContext, ActionResult
from ..protocol.messages import ActionPayload
from ..storage.store import Store

_OPERATION_PREFIX = "op_"


class ServiceError(LookupError):
    """An operation was invoked incorrectly (unknown op, bad params).

    Subclasses :class:`LookupError` so the protocol endpoint can translate
    resolver failures into faults without depending on this module.
    """


class ApplicationService(ABC):
    """Base class for services; subclasses define ``op_*`` methods."""

    name: str = "service"

    def setup(self, store: Store) -> None:
        """Create this service's business tables (idempotent)."""

    def operations(self) -> dict[str, Callable[..., object]]:
        """All operations this service exposes, by name."""
        return {
            operation: function.__get__(self)
            for operation, function in _operations_of(type(self)).items()
        }

    def action_for(self, operation: str, params: dict[str, object]) -> Action:
        """Bind one operation + params into an action callable."""
        function = _operations_of(type(self)).get(operation)
        if function is None:
            raise ServiceError(
                f"service {self.name!r} has no operation {operation!r}"
            )
        accepted = _accepted_parameters(function)
        if accepted is not None and not accepted.issuperset(params):
            raise ServiceError(
                f"operation {self.name}.{operation} does not accept "
                f"parameters {sorted(set(params) - accepted)}"
            )

        def action(ctx: ActionContext) -> object:
            return function(self, ctx, **params)

        return action

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


@functools.cache
def _operations_of(service_class: type) -> dict[str, Callable[..., object]]:
    """Operation name → the ``op_*`` function of ``service_class``.

    Read off the class once: nothing on an instance (a property, say)
    is evaluated to find or to call an operation."""
    return {
        attribute[len(_OPERATION_PREFIX):]: function
        for attribute, function in inspect.getmembers(
            service_class, inspect.isfunction
        )
        if attribute.startswith(_OPERATION_PREFIX)
    }


@functools.cache
def _accepted_parameters(function: Callable[..., object]) -> frozenset[str] | None:
    """The message parameters an operation accepts — every parameter
    after ``self`` but ``ctx`` — or ``None`` when it takes ``**kwargs``."""
    parameters = list(inspect.signature(function).parameters.values())[1:]
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters):
        return None
    return frozenset(p.name for p in parameters) - {"ctx"}


class ServiceRegistry:
    """Routes body actions to the service implementing them."""

    def __init__(self) -> None:
        self._services: dict[str, ApplicationService] = {}

    def register(self, service: ApplicationService) -> ApplicationService:
        """Add a service (returns it, for chaining)."""
        if service.name in self._services:
            raise ServiceError(f"service {service.name!r} already registered")
        self._services[service.name] = service
        return service

    def service(self, name: str) -> ApplicationService:
        """Look a service up by name."""
        try:
            return self._services[name]
        except KeyError:
            raise ServiceError(f"unknown service {name!r}") from None

    def names(self) -> list[str]:
        """Names of all registered services."""
        return sorted(self._services)

    def resolver(self) -> Callable[[ActionPayload], Action]:
        """The :class:`~repro.protocol.endpoint.ActionResolver` for the
        protocol endpoint."""

        def resolve(payload: ActionPayload) -> Action:
            service = self.service(payload.service)
            return service.action_for(payload.operation, dict(payload.params))

        return resolve


def require(condition: bool, reason: str) -> None:
    """Fail the current action unless ``condition`` holds.

    Sugar for the common guard pattern in operations; the failure rolls
    back the whole request (the promise manager aborts the transaction).
    """
    if not condition:
        raise _guard_failure(reason)


def _guard_failure(reason: str):
    from ..core.errors import ActionFailed

    return ActionFailed("guard", reason)


def ok(value: object = None) -> ActionResult:
    """Shorthand for a successful action result."""
    return ActionResult.ok(value)


def failed(reason: str) -> ActionResult:
    """Shorthand for a failed action result."""
    return ActionResult.failed(reason)
