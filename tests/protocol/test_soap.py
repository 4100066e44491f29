"""Unit tests for the SOAP-envelope codec (§6)."""

from __future__ import annotations

import socket
import time

import pytest

from repro.core.environment import Environment
from repro.core.parser import P
from repro.core.promise import PromiseRequest, PromiseResponse, PromiseResult
from repro.net.framing import encode_frame
from repro.net.server import PromiseServer, ThreadedServer
from repro.protocol.errors import MalformedMessage
from repro.protocol.messages import ActionOutcomePayload, ActionPayload, Message
from repro.protocol.soap import SoapCodec


@pytest.fixture
def codec():
    return SoapCodec()


def roundtrip(codec, message):
    return codec.decode(codec.encode(message))


class TestRouting:
    def test_routing_attributes(self, codec):
        message = Message(
            message_id="m1", sender="alice", recipient="shop", correlation="m0"
        )
        decoded = roundtrip(codec, message)
        assert decoded.message_id == "m1"
        assert decoded.sender == "alice"
        assert decoded.recipient == "shop"
        assert decoded.correlation == "m0"


class TestPromiseRequestElement:
    def test_full_request_roundtrip(self, codec):
        request = PromiseRequest(
            request_id="req-1",
            client_id="alice",
            predicates=(
                P("quantity('widgets') >= 5"),
                P("match('rooms', floor == 5 and view == true, count=2)"),
            ),
            duration=30,
            releases=("prm-old",),
        )
        message = Message("m1", "alice", "shop", promise_requests=(request,))
        decoded = roundtrip(codec, message)
        assert decoded.promise_requests == (request,)

    def test_or_predicate_survives_wire(self, codec):
        request = PromiseRequest(
            request_id="req-1",
            predicates=(P("available('a') or available('b')"),),
            duration=5,
        )
        message = Message("m1", "c", "s", promise_requests=(request,))
        decoded = roundtrip(codec, message)
        assert decoded.promise_requests[0].predicates == request.predicates

    def test_resources_listed_in_xml(self, codec):
        request = PromiseRequest(
            request_id="req-1",
            predicates=(P("quantity('widgets') >= 5"),),
            duration=5,
        )
        xml = codec.encode(Message("m1", "c", "s", promise_requests=(request,)))
        assert '<resource id="widgets"' in xml

    def test_multiple_requests_in_one_message(self, codec):
        requests = tuple(
            PromiseRequest(f"req-{i}", (P("quantity('w') >= 1"),), 5)
            for i in range(3)
        )
        decoded = roundtrip(
            codec, Message("m1", "c", "s", promise_requests=requests)
        )
        assert len(decoded.promise_requests) == 3


class TestPromiseResponseElement:
    def test_accepted_roundtrip(self, codec):
        response = PromiseResponse("prm-1", PromiseResult.ACCEPTED, 30, "req-1")
        decoded = roundtrip(
            codec, Message("m1", "s", "c", promise_responses=(response,))
        )
        assert decoded.promise_responses == (response,)

    def test_rejected_roundtrip(self, codec):
        response = PromiseResponse.rejected("req-1", "insufficient stock")
        decoded = roundtrip(
            codec, Message("m1", "s", "c", promise_responses=(response,))
        )
        assert decoded.promise_responses[0].promise_id is None
        assert decoded.promise_responses[0].reason == "insufficient stock"


class TestEnvironmentElement:
    def test_roundtrip_with_release_options(self, codec):
        environment = Environment.of("p1", "p2", release=["p2"])
        decoded = roundtrip(
            codec, Message("m1", "c", "s", environment=environment)
        )
        assert decoded.environment is not None
        assert decoded.environment.promise_ids == ("p1", "p2")
        assert decoded.environment.releases() == ["p2"]

    def test_absent_environment_is_none(self, codec):
        decoded = roundtrip(codec, Message("m1", "c", "s"))
        assert decoded.environment is None


class TestBody:
    def test_action_with_nested_params(self, codec):
        action = ActionPayload(
            service="merchant",
            operation="place_order",
            params={
                "customer": "alice",
                "quantity": 5,
                "rush": True,
                "notes": None,
                "lines": [{"sku": "w1", "n": 2}, {"sku": "w2", "n": 3}],
                "rate": 9.75,
            },
        )
        decoded = roundtrip(codec, Message("m1", "c", "s", action=action))
        assert decoded.action == action

    def test_outcome_roundtrip(self, codec):
        outcome = ActionOutcomePayload(
            success=True,
            value={"order": "ord-1"},
            released=("p1",),
            violations=("p2",),
        )
        decoded = roundtrip(codec, Message("m1", "s", "c", action_outcome=outcome))
        assert decoded.action_outcome == outcome

    def test_failed_outcome(self, codec):
        outcome = ActionOutcomePayload(success=False, reason="no stock")
        decoded = roundtrip(codec, Message("m1", "s", "c", action_outcome=outcome))
        assert not decoded.action_outcome.success
        assert decoded.action_outcome.reason == "no stock"


class TestFaults:
    def test_faults_roundtrip(self, codec):
        message = Message(
            "m1", "s", "c", faults=("promise-expired: p1", "unknown-promise: p9")
        )
        decoded = roundtrip(codec, message)
        assert decoded.faults == message.faults


class TestCarriageReturn:
    """XML 1.0 §2.11 has the parser turn a raw ``\\r`` (or ``\\r\\n``) in
    element text into ``\\n``; the codec writes it as ``&#13;``."""

    def test_carriage_return_in_text_survives_the_wire(self, codec):
        message = Message(
            "m1",
            "a",
            "b",
            faults=("x\r\ny\rz",),
            action=ActionPayload("s", "op", {"note": "line\r\nnext\r"}),
        )
        encoded = codec.encode(message)
        assert "\r" not in encoded
        assert "x&#13;\ny&#13;z" in encoded
        assert roundtrip(codec, message) == message


class TestDeadlineElement:
    def test_deadline_roundtrip(self, codec):
        message = Message("m1", "alice", "shop", deadline=1.25)
        encoded = codec.encode(message)
        assert "deadline" in encoded
        assert roundtrip(codec, message).deadline == pytest.approx(1.25)

    def test_absent_deadline_is_none(self, codec):
        message = Message("m1", "alice", "shop")
        encoded = codec.encode(message)
        assert "deadline" not in encoded
        assert roundtrip(codec, message).deadline is None

    def test_full_float_precision_survives(self, codec):
        message = Message("m1", "alice", "shop", deadline=0.123456789012345)
        assert roundtrip(codec, message).deadline == message.deadline

    def test_garbage_deadline_rejected(self, codec):
        encoded = codec.encode(Message("m1", "a", "b", deadline=1.0))
        with pytest.raises(MalformedMessage):
            codec.decode(encoded.replace('remaining="1.0"', 'remaining="soon"'))


class TestCombinedMessages:
    def test_promise_plus_action_plus_environment(self, codec):
        """§6: any subset of promise elements may share one envelope."""
        message = Message(
            message_id="m1",
            sender="alice",
            recipient="shop",
            promise_requests=(
                PromiseRequest("req-1", (P("quantity('w') >= 5"),), 10),
            ),
            promise_responses=(
                PromiseResponse("prm-0", PromiseResult.ACCEPTED, 10, "req-0"),
            ),
            environment=Environment.of("prm-0"),
            action=ActionPayload("merchant", "pay", {"order_id": "ord-1"}),
        )
        decoded = roundtrip(codec, message)
        assert decoded.has_promise_part and decoded.has_action_part
        assert len(decoded.promise_requests) == 1
        assert len(decoded.promise_responses) == 1


def envelope(header: str = "", body: str = "", routing: bool = True) -> str:
    """A hand-written envelope around raw header and body XML."""
    route = (
        '<routing message-id="m1" sender="a" recipient="echo" correlation="" />'
        if routing
        else ""
    )
    return (
        '<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">'
        f"<Header>{route}{header}</Header><Body>{body}</Body></Envelope>"
    )


def action(params: str) -> str:
    return f'<action service="s" operation="op"><params>{params}</params></action>'


GRANT = "<predicate>quantity('w') &gt;= 1</predicate>"

#: Every path on which ``decode`` refuses an envelope with MalformedMessage.
MALFORMED = {
    "invalid-xml": "this is not xml <at all",
    "missing-header": (
        '<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">'
        "<Body/></Envelope>"
    ),
    "missing-body": (
        '<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">'
        '<Header><routing message-id="m1" /></Header></Envelope>'
    ),
    "missing-routing": envelope(routing=False),
    "bad-deadline": envelope('<deadline remaining="soon" />'),
    "bad-epoch": envelope('<epoch value="next" />'),
    "trace-without-span-id": envelope('<trace trace-id="t1" />'),
    "param-without-value": envelope(body=action('<param name="k" />')),
    "dict-item-without-value": envelope(
        body=action('<param name="k"><value type="dict"><item key="x" /></value></param>')
    ),
    "unknown-value-type": envelope(
        body=action('<param name="k"><value type="complex">1j</value></param>')
    ),
    "non-integer-request-duration": envelope(
        f'<promise-request id="r1" client="c" duration="soon">{GRANT}</promise-request>'
    ),
    "unknown-response-result": envelope(
        '<promise-response result="maybe" duration="0" correlation="r1" reason="" />'
    ),
}


class TestMalformedInput:
    def test_invalid_xml(self, codec):
        with pytest.raises(MalformedMessage):
            codec.decode("this is not xml <at all")

    def test_missing_header(self, codec):
        with pytest.raises(MalformedMessage):
            codec.decode(
                '<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">'
                "<Body/></Envelope>"
            )

    def test_missing_routing(self, codec):
        with pytest.raises(MalformedMessage):
            codec.decode(
                '<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">'
                "<Header/><Body/></Envelope>"
            )

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_decode_refuses(self, codec, case):
        with pytest.raises(MalformedMessage):
            codec.decode(MALFORMED[case])

    def test_the_well_formed_twin_decodes(self, codec):
        """The table's cases fail for the reason named, not another."""
        message = codec.decode(envelope(
            '<deadline remaining="1.5" /><epoch value="2" />'
            '<trace trace-id="t1" span-id="s1" />'
            f'<promise-request id="r1" client="c" duration="5">{GRANT}</promise-request>'
            '<promise-response result="rejected" duration="0" correlation="r1" reason="" />',
            action('<param name="k"><value type="dict"><item key="x">'
                   '<value type="int">1</value></item></value></param>'),
        ))
        assert (message.deadline, message.epoch) == (1.5, 2)
        assert message.trace.span_id == "s1"
        assert message.promise_requests[0].duration == 5
        assert message.action.params == {"k": {"x": 1}}

    def test_first_element_wins_where_one_is_expected(self, codec):
        message = codec.decode(envelope(
            '<routing message-id="m2" /><epoch value="1" /><epoch value="2" />'
            '<environment><promise id="p1" release="true" /></environment>'
            "<environment />",
            action('<param name="k"><value type="int">1</value>'
                   '<value type="int">2</value></param>')
            + '<action service="t" operation="other"><params /></action>',
        ))
        assert message.message_id == "m1"
        assert message.epoch == 1
        assert message.environment.promise_ids == ("p1",)
        assert message.action.service == "s"
        assert message.action.params == {"k": 1}

    def test_server_drops_a_malformed_frame(self):
        """An undecodable envelope counts ``server.malformed`` and closes
        the connection with no reply — there is no id to correlate one."""
        server = PromiseServer()
        server.register("echo", lambda m: m.reply(message_id=f"re:{m.message_id}"))
        with ThreadedServer(server) as address:
            for number, case in enumerate(sorted(MALFORMED), start=1):
                with socket.create_connection(address, timeout=5.0) as sock:
                    sock.sendall(encode_frame(MALFORMED[case].encode("utf-8")))
                    try:
                        data = sock.recv(1)
                    except OSError:
                        data = b""
                    assert data == b"", case
                deadline = time.monotonic() + 5.0
                while server.metrics.value("server.malformed") < number:
                    assert time.monotonic() < deadline, case
                    time.sleep(0.01)
            assert server.metrics.value("server.replies") == 0

    def test_unencodable_param_rejected(self, codec):
        action = ActionPayload("s", "op", {"bad": object()})
        with pytest.raises(MalformedMessage):
            codec.encode(Message("m1", "c", "s", action=action))
