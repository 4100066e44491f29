"""The codec's wire bytes, pinned (§6).

``golden_envelopes.json`` holds one envelope of each kind the system
puts on the wire — a ``serial_pairs`` grant / granted / release /
released, a ``standing_orders`` sell and its outcome, a gateway leg
carrying ``<deadline>``, ``<epoch>`` and ``<trace>``, a replication ship
and its ack, a pong and a transport fault — rendered by the ElementTree
serializer the codec used to call.  ``encode`` must reproduce each one
byte for byte: the client correlates replies (``net/pipeline.py``) and
the benchmark cuts promise ids out of raw bytes with regular
expressions, so a reordered attribute or a changed escape breaks them
without failing a round trip.

The property test renders any message with a small ElementTree
reference kept here, and only here.  The one intended difference is a
``\\r`` in element text: ElementTree writes it raw, so the parser
normalises it to ``\\n`` (XML 1.0 §2.11), while the codec writes
``&#13;``.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Mapping

import pytest
from hypothesis import given, settings

from repro.core.environment import Environment
from repro.core.parser import P, render_predicate
from repro.core.promise import PromiseRequest, PromiseResponse, PromiseResult
from repro.obs.trace import TraceContext
from repro.protocol.messages import ActionOutcomePayload, ActionPayload, Message
from repro.protocol.soap import SOAP_NS, SoapCodec

from ..properties.test_prop_protocol import messages

GOLDEN_PATH = Path(__file__).with_name("golden_envelopes.json")

SHIP_RECORDS = (
    '{"key": null, "lsn": 1343, "table": null, "txn": 210, "type": "begin", '
    '"value": null}\n'
    '{"key": "product-3", "lsn": 1344, "table": "pools", "txn": 210, '
    '"type": "put", "value": {"available": 97, "note": "a < b & c > d"}}\n'
    '{"key": null, "lsn": 1345, "table": null, "txn": 210, "type": "commit", '
    '"value": null}'
)

GOLDEN: dict[str, Message] = {
    "serial_pairs.grant": Message(
        message_id="bench:c1:msg-1",
        sender="bench",
        recipient="shop",
        promise_requests=(
            PromiseRequest(
                "bench:req-1",
                (P("quantity('product-3') >= 1"),),
                3600,
                client_id="bench",
            ),
        ),
    ),
    "serial_pairs.granted": Message(
        message_id="shop:re:bench:c1:msg-1",
        sender="shop",
        recipient="bench",
        correlation="bench:c1:msg-1",
        promise_responses=(
            PromiseResponse(
                "shop:prm-1", PromiseResult.ACCEPTED, 3600, "bench:req-1"
            ),
        ),
    ),
    "serial_pairs.release": Message(
        message_id="bench:c1:msg-2",
        sender="bench",
        recipient="shop",
        environment=Environment.of("shop:prm-1", release=["shop:prm-1"]),
    ),
    "serial_pairs.released": Message(
        message_id="shop:re:bench:c1:msg-2",
        sender="shop",
        recipient="bench",
        correlation="bench:c1:msg-2",
    ),
    "standing_orders.sell": Message(
        message_id="bench:c1:msg-2",
        sender="bench",
        recipient="shop",
        environment=Environment.of("shop:prm-130", release=["shop:prm-130"]),
        action=ActionPayload(
            "merchant", "sell", {"product": "product-3", "quantity": 2}
        ),
    ),
    "standing_orders.sold": Message(
        message_id="shop:re:bench:c1:msg-2",
        sender="shop",
        recipient="bench",
        correlation="bench:c1:msg-2",
        action_outcome=ActionOutcomePayload(
            success=True, value=2, released=("shop:prm-130",)
        ),
    ),
    "standing_orders.rejected": Message(
        message_id="shop:re:bench:c15:msg-17",
        sender="shop",
        recipient="bench",
        correlation="bench:c15:msg-17",
        promise_responses=(
            PromiseResponse(
                None,
                PromiseResult.REJECTED,
                0,
                "bench:req-9",
                reason="pool 'scarce' has 3 units, promise needs 5",
                counter=P("quantity('scarce') >= 3"),
            ),
        ),
    ),
    "gateway.leg": Message(
        message_id="bench:c1:msg-3/s1",
        sender="bench",
        recipient="shop",
        promise_requests=(
            PromiseRequest(
                "bench:req-3/s1",
                (
                    P("quantity('product-1') >= 3"),
                    P("match('rooms', floor == 5 and view == true, count=2)"),
                ),
                3600,
                client_id="bench",
                releases=("shop-s1:prm-7",),
            ),
        ),
        deadline=4.873912,
        epoch=3,
        trace=TraceContext(
            trace_id="4bf92f3577b34da6a3ce929d0e0e4736",
            span_id="00f067aa0ba902b7",
            parent_span_id="b7ad6b7169203331",
        ),
    ),
    "replication.ship": Message(
        message_id="repl:shop-g0:0:006f4449:419",
        sender="shop-s0",
        recipient="_repl",
        action=ActionPayload(
            "replication",
            "ship",
            {"group": "shop-g0", "epoch": 0, "records": SHIP_RECORDS},
        ),
    ),
    "replication.ack": Message(
        message_id="repl-ack:shop-g0:419",
        sender="_repl",
        recipient="shop-s0",
        correlation="repl:shop-g0:0:006f4449:419",
        epoch=0,
        action_outcome=ActionOutcomePayload(
            success=True,
            value={
                "group": "shop-g0",
                "epoch": 0,
                "applied_lsn": 1345,
                "promoted": False,
            },
        ),
    ),
    "server.pong": Message(
        message_id="net-server:pong-12",
        sender="_ping",
        recipient="heartbeat-detector",
        correlation="hb:12",
        epoch=1,
        action_outcome=ActionOutcomePayload(
            success=True,
            value={
                "role": "primary",
                "group": "shop-g0",
                "epoch": 1,
                "applied_lsn": 1345,
                "durable": True,
            },
        ),
    ),
    "server.transport_fault": Message(
        message_id="net-server:fault-3",
        sender="nowhere",
        recipient="bench",
        correlation="bench:c1:msg-9",
        faults=("transport:unknown-endpoint: nowhere",),
    ),
}


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_file_covers_every_message():
    assert sorted(load_golden()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_encode_reproduces_golden_bytes(name):
    assert SoapCodec().encode(GOLDEN[name]) == load_golden()[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_decode_of_golden_bytes_is_the_message(name):
    assert SoapCodec().decode(load_golden()[name]) == GOLDEN[name]


# ------------------------------------------------------------ reference


def reference_encode(message: Message) -> str:
    """The envelope as an ElementTree build + ``ET.tostring`` renders it."""
    envelope = ET.Element("Envelope", {"xmlns": SOAP_NS})
    header = ET.SubElement(envelope, "Header")
    ET.SubElement(header, "routing", {
        "message-id": message.message_id,
        "sender": message.sender,
        "recipient": message.recipient,
        "correlation": message.correlation,
    })
    for request in message.promise_requests:
        element = ET.SubElement(header, "promise-request", {
            "id": request.request_id,
            "client": request.client_id,
            "duration": str(request.duration),
        })
        for predicate in request.predicates:
            ET.SubElement(element, "predicate").text = render_predicate(predicate)
        for resource in sorted(request.resources):
            ET.SubElement(element, "resource", {"id": resource})
        for promise_id in request.releases:
            ET.SubElement(element, "release", {"promise": promise_id})
    for response in message.promise_responses:
        attributes = {
            "result": response.result.value,
            "duration": str(response.duration),
            "correlation": response.correlation,
            "reason": response.reason,
        }
        if response.promise_id is not None:
            attributes["promise"] = response.promise_id
        element = ET.SubElement(header, "promise-response", attributes)
        if response.counter is not None:
            ET.SubElement(element, "counter").text = render_predicate(
                response.counter
            )
    if message.environment is not None:
        element = ET.SubElement(header, "environment")
        for promise_id in message.environment.promise_ids:
            release = message.environment.release_after.get(promise_id)
            ET.SubElement(element, "promise", {
                "id": promise_id, "release": "true" if release else "false"
            })
    for fault in message.faults:
        ET.SubElement(header, "fault").text = fault
    if message.deadline is not None:
        ET.SubElement(header, "deadline", {"remaining": repr(float(message.deadline))})
    if message.epoch is not None:
        ET.SubElement(header, "epoch", {"value": str(int(message.epoch))})
    if message.trace is not None:
        attributes = {
            "trace-id": message.trace.trace_id, "span-id": message.trace.span_id
        }
        if message.trace.parent_span_id is not None:
            attributes["parent-span-id"] = message.trace.parent_span_id
        ET.SubElement(header, "trace", attributes)
    body = ET.SubElement(envelope, "Body")
    if message.action is not None:
        action = message.action
        element = ET.SubElement(body, "action", {
            "service": action.service, "operation": action.operation
        })
        params = ET.SubElement(element, "params")
        for key in sorted(action.params):
            _reference_value(
                ET.SubElement(params, "param", {"name": key}), action.params[key]
            )
    if message.action_outcome is not None:
        outcome = message.action_outcome
        element = ET.SubElement(body, "action-outcome", {
            "success": "true" if outcome.success else "false",
            "reason": outcome.reason,
        })
        _reference_value(element, outcome.value)
        for promise_id in outcome.released:
            ET.SubElement(element, "released", {"promise": promise_id})
        for promise_id in outcome.violations:
            ET.SubElement(element, "violation", {"promise": promise_id})
    return ET.tostring(envelope, encoding="unicode")


def _reference_value(parent: ET.Element, value: object) -> None:
    if value is None:
        ET.SubElement(parent, "value", {"type": "null"})
    elif isinstance(value, bool):
        ET.SubElement(parent, "value", {"type": "bool"}).text = (
            "true" if value else "false"
        )
    elif isinstance(value, int):
        ET.SubElement(parent, "value", {"type": "int"}).text = str(value)
    elif isinstance(value, float):
        ET.SubElement(parent, "value", {"type": "float"}).text = repr(value)
    elif isinstance(value, str):
        ET.SubElement(parent, "value", {"type": "str"}).text = value
    elif isinstance(value, (list, tuple)):
        element = ET.SubElement(parent, "value", {"type": "list"})
        for entry in value:
            _reference_value(element, entry)
    else:
        assert isinstance(value, Mapping)
        element = ET.SubElement(parent, "value", {"type": "dict"})
        for key in sorted(value):
            _reference_value(
                ET.SubElement(element, "item", {"key": str(key)}), value[key]
            )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes_are_what_elementtree_renders(name):
    """Ties the committed file to this interpreter's ElementTree: a
    Python release that changes its escaping fails here."""
    assert reference_encode(GOLDEN[name]) == load_golden()[name]


@given(messages())
@settings(max_examples=300, deadline=None)
def test_encode_matches_the_elementtree_reference(message):
    """Byte-identical to ElementTree, except that a raw ``\\r`` — which
    ElementTree leaves only in element text, attributes already escape
    it — is written as ``&#13;``."""
    expected = reference_encode(message).replace("\r", "&#13;")
    assert SoapCodec().encode(message) == expected
