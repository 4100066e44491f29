"""Tests for the service framework and Deployment wiring."""

from __future__ import annotations

import pytest

from repro.core.manager import ActionContext, ActionResult
from repro.protocol.messages import ActionPayload
from repro.services.base import (
    ApplicationService,
    ServiceError,
    ServiceRegistry,
    failed,
    ok,
    require,
)
from repro.services.deployment import Deployment


class EchoService(ApplicationService):
    name = "echo"

    def op_say(self, ctx: ActionContext, text: str) -> ActionResult:
        """Echo the text back."""
        return ok(text)

    def op_guarded(self, ctx: ActionContext, value: int) -> ActionResult:
        require(value > 0, "value must be positive")
        return ok(value)

    def op_kwargs(self, ctx: ActionContext, **params) -> ActionResult:
        return ok(sorted(params))

    def _not_an_operation(self, ctx):  # pragma: no cover
        raise AssertionError("must never be discovered")


class TestOperationDiscovery:
    def test_operations_found_by_prefix(self):
        service = EchoService()
        assert set(service.operations()) == {"say", "guarded", "kwargs"}

    def test_action_binding(self):
        service = EchoService()
        action = service.action_for("say", {"text": "hi"})
        result = action(None)  # ctx unused by op_say
        assert result.value == "hi"

    def test_unknown_operation_rejected(self):
        with pytest.raises(ServiceError):
            EchoService().action_for("teleport", {})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ServiceError):
            EchoService().action_for("say", {"text": "hi", "volume": 11})

    def test_var_keyword_operations_accept_anything(self):
        action = EchoService().action_for("kwargs", {"a": 1, "b": 2})
        assert action(None).value == ["a", "b"]

    def test_require_guard(self):
        from repro.core.errors import ActionFailed

        action = EchoService().action_for("guarded", {"value": -1})
        with pytest.raises(ActionFailed):
            action(None)

    def test_ok_and_failed_helpers(self):
        assert ok(5).success and ok(5).value == 5
        assert not failed("why").success and failed("why").reason == "why"


class TestServiceRegistry:
    def test_register_and_resolve(self):
        registry = ServiceRegistry()
        registry.register(EchoService())
        resolve = registry.resolver()
        action = resolve(ActionPayload("echo", "say", {"text": "yo"}))
        assert action(None).value == "yo"

    def test_duplicate_registration_rejected(self):
        registry = ServiceRegistry()
        registry.register(EchoService())
        with pytest.raises(ServiceError):
            registry.register(EchoService())

    def test_unknown_service(self):
        with pytest.raises(ServiceError):
            ServiceRegistry().service("ghost")

    def test_names(self):
        registry = ServiceRegistry()
        registry.register(EchoService())
        assert registry.names() == ["echo"]


class CountingService(EchoService):
    """An echo service with a property that counts its reads."""

    name = "counting"
    property_reads = 0

    @property
    def expensive(self) -> int:
        type(self).property_reads += 1
        return 0


class TestDispatchEvaluatesNoProperty:
    def test_resolving_and_running_actions_reads_no_property(self):
        registry = ServiceRegistry()
        registry.register(CountingService())
        resolve = registry.resolver()
        for n in range(5):
            action = resolve(ActionPayload("counting", "say", {"text": str(n)}))
            assert action(None).value == str(n)
        assert CountingService.property_reads == 0

    def test_unknown_parameters_are_still_refused(self):
        registry = ServiceRegistry()
        registry.register(CountingService())
        with pytest.raises(ServiceError, match="volume"):
            registry.resolver()(
                ActionPayload("counting", "say", {"text": "hi", "volume": 11})
            )

    def test_var_keyword_operations_still_accept_them(self):
        registry = ServiceRegistry()
        registry.register(CountingService())
        action = registry.resolver()(
            ActionPayload("counting", "kwargs", {"volume": 11, "text": "hi"})
        )
        assert action(None).value == ["text", "volume"]
        assert CountingService.property_reads == 0


class TestDeployment:
    def test_full_wiring(self):
        deployment = Deployment(name="dep")
        deployment.add_service(EchoService())
        client = deployment.client("tester")
        outcome = client.call("dep", "echo", "say", {"text": "ping"})
        assert outcome.success and outcome.value == "ping"

    def test_strategy_helpers_route(self):
        deployment = Deployment(name="dep")
        deployment.use_pool_strategy("a", "b")
        deployment.use_tags_strategy("c")
        deployment.use_tentative_strategy("d")
        assignments = deployment.registry.assignments()
        assert assignments == {
            "a": "resource_pool",
            "b": "resource_pool",
            "c": "allocated_tags",
            "d": "tentative",
        }

    def test_pool_strategy_reused_across_calls(self):
        deployment = Deployment(name="dep")
        first = deployment.use_pool_strategy("a")
        second = deployment.use_pool_strategy("b")
        assert first is second

    def test_shared_transport_hosts_multiple_deployments(self):
        first = Deployment(name="one")
        first.add_service(EchoService())
        second = Deployment(name="two", transport=first.transport)

        class OtherService(EchoService):
            name = "other"

        second.add_service(OtherService())
        client = first.client("c")
        assert client.call("one", "echo", "say", {"text": "1"}).value == "1"
        assert client.call("two", "other", "say", {"text": "2"}).value == "2"

    def test_wire_format_disabled(self):
        deployment = Deployment(name="dep", wire_format=False)
        deployment.add_service(EchoService())
        client = deployment.client("tester")
        client.call("dep", "echo", "say", {"text": "x"})
        assert deployment.transport.metrics.value("transport.bytes_on_wire") == 0

    def test_max_duration_propagates(self):
        from repro.core.parser import P

        deployment = Deployment(name="dep", max_duration=7)
        deployment.add_service(EchoService())
        with deployment.seed() as txn:
            deployment.resources.create_pool(txn, "w", 5)
        response = deployment.client("c").request_promise(
            "dep", [P("quantity('w') >= 1")], 500
        )
        assert response.duration == 7
