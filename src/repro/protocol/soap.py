"""SOAP-envelope XML codec for promise messages (paper, §2, §6).

"Our proposed Promise protocol fits very naturally into the SOAP protocol
and the Web Services model.  All of our promise protocol messages can be
transferred as elements in SOAP message headers and the associated actions
can be carried within the body of the same SOAP messages."

The codec renders each :class:`~repro.protocol.messages.Message` as an
``<Envelope>`` whose ``<Header>`` holds the ``<promise-request>``,
``<promise-response>`` and ``<environment>`` elements exactly as §6
defines them, and whose ``<Body>`` holds the action or its outcome.
Predicates travel as text in the expression language of
:mod:`repro.core.parser` — the "agreed standard syntax" of §3 — so a
general-purpose promise manager can parse them with no application
knowledge.

Envelopes are rendered as strings, fragment by fragment, in the bytes
ElementTree's serializer would write: attributes in insertion order,
``<tag ... />`` for an empty element, element text escaped for
``& < >`` and attributes for ``& < > " \\r \\n \\t``.  The one addition is
``\\r`` in element text, written as ``&#13;`` so that the parser does not
normalise it to ``\\n`` (XML 1.0 §2.11).  Decoding keeps expat
(``ET.fromstring``) as the judge of well-formedness and takes the first
element wherever an element is expected once.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from functools import lru_cache
from typing import Mapping

from ..core.environment import Environment
from ..core.parser import parse_predicate, render_predicate
from ..core.promise import PromiseRequest, PromiseResponse, PromiseResult
from ..obs.trace import TraceContext
from .errors import MalformedMessage
from .messages import ActionOutcomePayload, ActionPayload, Message

SOAP_NS = "http://schemas.xmlsoap.org/soap/envelope/"
PROMISE_NS = "urn:promises:2007"

#: Distinct predicate texts whose parse is remembered.  Predicates are
#: frozen values, so every message carrying the same text can share one;
#: past the bound the least recently seen text is parsed again.
_PREDICATE_MEMO_SIZE = 1024

_parse_predicate = lru_cache(maxsize=_PREDICATE_MEMO_SIZE)(parse_predicate)


def _q(tag: str) -> str:
    """Qualify a tag with the default (SOAP) namespace."""
    return f"{{{SOAP_NS}}}{tag}"


_HEADER = _q("Header")
_BODY = _q("Body")
_ROUTING = _q("routing")
_PROMISE_REQUEST = _q("promise-request")
_PROMISE_RESPONSE = _q("promise-response")
_ENVIRONMENT = _q("environment")
_FAULT = _q("fault")
_DEADLINE = _q("deadline")
_EPOCH = _q("epoch")
_TRACE = _q("trace")
_PREDICATE = _q("predicate")
_RELEASE = _q("release")
_COUNTER = _q("counter")
_PROMISE = _q("promise")
_ACTION = _q("action")
_ACTION_OUTCOME = _q("action-outcome")
_PARAMS = _q("params")
_PARAM = _q("param")
_VALUE = _q("value")
_ITEM = _q("item")
_RELEASED = _q("released")
_VIOLATION = _q("violation")

_ENVELOPE_OPEN = f'<Envelope xmlns="{SOAP_NS}"><Header><routing message-id="'


class SoapCodec:
    """Encode/decode messages to and from SOAP-envelope XML text."""

    def encode(self, message: Message) -> str:
        """Render ``message`` as an XML string."""
        out = [
            _ENVELOPE_OPEN, _attr(message.message_id),
            '" sender="', _attr(message.sender),
            '" recipient="', _attr(message.recipient),
            '" correlation="', _attr(message.correlation), '" />',
        ]
        for request in message.promise_requests:
            _encode_request(out, request)
        for response in message.promise_responses:
            _encode_response(out, response)
        if message.environment is not None:
            _encode_environment(out, message.environment)
        for fault in message.faults:
            _text_element(out, "<fault", "</fault>", fault)
        if message.deadline is not None:
            out.append(f'<deadline remaining="{float(message.deadline)!r}" />')
        if message.epoch is not None:
            out.append(f'<epoch value="{int(message.epoch)}" />')
        trace = message.trace
        if trace is not None:
            out += (
                '<trace trace-id="', _attr(trace.trace_id),
                '" span-id="', _attr(trace.span_id),
            )
            if trace.parent_span_id is not None:
                out += ('" parent-span-id="', _attr(trace.parent_span_id))
            out.append('" />')
        out.append("</Header>")

        if message.action is None and message.action_outcome is None:
            out.append("<Body /></Envelope>")
        else:
            out.append("<Body>")
            if message.action is not None:
                _encode_action(out, message.action)
            if message.action_outcome is not None:
                _encode_outcome(out, message.action_outcome)
            out.append("</Body></Envelope>")
        return "".join(out)

    def decode(self, text: str) -> Message:
        """Parse XML text produced by :meth:`encode`."""
        try:
            envelope = ET.fromstring(text)
        except ET.ParseError as exc:
            raise MalformedMessage(f"invalid XML: {exc}") from exc
        header = envelope.find(_HEADER)
        body = envelope.find(_BODY)
        if header is None or body is None:
            raise MalformedMessage("envelope missing Header or Body")
        request_els, response_els, faults = [], [], []
        first: dict[str, ET.Element] = {}
        for child in header:
            tag = child.tag
            if tag == _PROMISE_REQUEST:
                request_els.append(child)
            elif tag == _PROMISE_RESPONSE:
                response_els.append(child)
            elif tag == _FAULT:
                faults.append(child.text or "")
            else:
                first.setdefault(tag, child)
        routing = first.get(_ROUTING)
        if routing is None:
            raise MalformedMessage("header missing routing element")

        requests = tuple(_decode_request(element) for element in request_els)
        responses = tuple(_decode_response(element) for element in response_els)
        environment_el = first.get(_ENVIRONMENT)
        environment = (
            _decode_environment(environment_el)
            if environment_el is not None
            else None
        )
        deadline_el = first.get(_DEADLINE)
        if deadline_el is not None:
            try:
                deadline = float(deadline_el.get("remaining", ""))
            except ValueError as exc:
                raise MalformedMessage(f"bad deadline: {exc}") from exc
        else:
            deadline = None
        epoch_el = first.get(_EPOCH)
        if epoch_el is not None:
            try:
                epoch = int(epoch_el.get("value", ""))
            except ValueError as exc:
                raise MalformedMessage(f"bad epoch: {exc}") from exc
        else:
            epoch = None
        trace_el = first.get(_TRACE)
        if trace_el is not None:
            trace_id = trace_el.get("trace-id", "")
            span_id = trace_el.get("span-id", "")
            if not trace_id or not span_id:
                raise MalformedMessage("trace element needs trace-id and span-id")
            trace = TraceContext(
                trace_id=trace_id,
                span_id=span_id,
                parent_span_id=trace_el.get("parent-span-id"),
            )
        else:
            trace = None

        parts: dict[str, ET.Element] = {}
        for child in body:
            parts.setdefault(child.tag, child)
        action_el = parts.get(_ACTION)
        outcome_el = parts.get(_ACTION_OUTCOME)
        return Message(
            message_id=routing.get("message-id", ""),
            sender=routing.get("sender", ""),
            recipient=routing.get("recipient", ""),
            correlation=routing.get("correlation", ""),
            promise_requests=requests,
            promise_responses=responses,
            environment=environment,
            faults=tuple(faults),
            deadline=deadline,
            epoch=epoch,
            trace=trace,
            action=_decode_action(action_el) if action_el is not None else None,
            action_outcome=(
                _decode_outcome(outcome_el) if outcome_el is not None else None
            ),
        )


# --------------------------------------------------------------- escaping


def _text(text: str) -> str:
    """Escape element text: ElementTree's ``& < >``, plus ``\\r``."""
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    return text


def _attr(text: str) -> str:
    """Escape an attribute value exactly as ElementTree does."""
    text = _text(text)
    if '"' in text:
        text = text.replace('"', "&quot;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


def _text_element(out: list[str], start: str, end: str, text: str) -> None:
    """``start`` is the open tag without its ``>``; empty text self-closes."""
    if text:
        out += (start, ">", _text(text), end)
    else:
        out += (start, " />")


# ----------------------------------------------------------- header parts


def _encode_request(out: list[str], request: PromiseRequest) -> None:
    # A request always holds a predicate, so the element is never empty.
    out += (
        '<promise-request id="', _attr(request.request_id),
        '" client="', _attr(request.client_id),
        '" duration="', _attr(str(request.duration)), '">',
    )
    for predicate in request.predicates:
        _text_element(
            out, "<predicate", "</predicate>", render_predicate(predicate)
        )
    for resource in sorted(request.resources):
        out += ('<resource id="', _attr(resource), '" />')
    for promise_id in request.releases:
        out += ('<release promise="', _attr(promise_id), '" />')
    out.append("</promise-request>")


def _decode_request(element: ET.Element) -> PromiseRequest:
    predicates = []
    releases = []
    for child in element:
        if child.tag == _PREDICATE:
            predicates.append(_parse_predicate(child.text or ""))
        elif child.tag == _RELEASE:
            releases.append(child.get("promise", ""))
    try:
        return PromiseRequest(
            request_id=element.get("id", ""),
            client_id=element.get("client", "anonymous"),
            predicates=tuple(predicates),
            duration=int(element.get("duration", "0")),
            releases=tuple(releases),
        )
    except Exception as exc:
        raise MalformedMessage(f"bad promise-request: {exc}") from exc


def _encode_response(out: list[str], response: PromiseResponse) -> None:
    out += (
        '<promise-response result="', response.result.value,
        '" duration="', _attr(str(response.duration)),
        '" correlation="', _attr(response.correlation),
        '" reason="', _attr(response.reason),
    )
    if response.promise_id is not None:
        out += ('" promise="', _attr(response.promise_id))
    if response.counter is None:
        out.append('" />')
    else:
        out.append('">')
        _text_element(
            out, "<counter", "</counter>", render_predicate(response.counter)
        )
        out.append("</promise-response>")


def _decode_response(element: ET.Element) -> PromiseResponse:
    counter_el = element.find(_COUNTER)
    counter = (
        _parse_predicate(counter_el.text or "")
        if counter_el is not None
        else None
    )
    try:
        return PromiseResponse(
            promise_id=element.get("promise"),
            result=PromiseResult(element.get("result", "rejected")),
            duration=int(element.get("duration", "0")),
            correlation=element.get("correlation", ""),
            reason=element.get("reason", ""),
            counter=counter,
        )
    except ValueError as exc:
        raise MalformedMessage(f"bad promise-response: {exc}") from exc


def _encode_environment(out: list[str], environment: Environment) -> None:
    if not environment.promise_ids:
        out.append("<environment />")
        return
    out.append("<environment>")
    for promise_id in environment.promise_ids:
        release = environment.release_after.get(promise_id)
        out += (
            '<promise id="', _attr(promise_id),
            '" release="true" />' if release else '" release="false" />',
        )
    out.append("</environment>")


def _decode_environment(element: ET.Element) -> Environment:
    promise_ids = []
    release_after = {}
    for child in element.findall(_PROMISE):
        promise_id = child.get("id", "")
        promise_ids.append(promise_id)
        release_after[promise_id] = child.get("release") == "true"
    return Environment(
        promise_ids=tuple(promise_ids), release_after=release_after
    )


# ------------------------------------------------------------- body parts


def _encode_action(out: list[str], action: ActionPayload) -> None:
    out += (
        '<action service="', _attr(action.service),
        '" operation="', _attr(action.operation), '">',
    )
    if action.params:
        out.append("<params>")
        for key in sorted(action.params):
            out += ('<param name="', _attr(key), '">')
            _encode_value(out, action.params[key])
            out.append("</param>")
        out.append("</params></action>")
    else:
        out.append("<params /></action>")


def _decode_action(element: ET.Element) -> ActionPayload:
    params: dict[str, object] = {}
    params_el = element.find(_PARAMS)
    if params_el is not None:
        for item in params_el.findall(_PARAM):
            value_el = item.find(_VALUE)
            if value_el is None:
                raise MalformedMessage("param missing value")
            params[item.get("name", "")] = _decode_value(value_el)
    return ActionPayload(
        service=element.get("service", ""),
        operation=element.get("operation", ""),
        params=params,
    )


def _encode_outcome(out: list[str], outcome: ActionOutcomePayload) -> None:
    # The outcome always holds its <value>, so it is never empty.
    out += (
        '<action-outcome success="', "true" if outcome.success else "false",
        '" reason="', _attr(outcome.reason), '">',
    )
    _encode_value(out, outcome.value)
    for promise_id in outcome.released:
        out += ('<released promise="', _attr(promise_id), '" />')
    for promise_id in outcome.violations:
        out += ('<violation promise="', _attr(promise_id), '" />')
    out.append("</action-outcome>")


def _decode_outcome(element: ET.Element) -> ActionOutcomePayload:
    value_el = element.find(_VALUE)
    value = _decode_value(value_el) if value_el is not None else None
    return ActionOutcomePayload(
        success=element.get("success") == "true",
        reason=element.get("reason", ""),
        value=value,
        released=tuple(
            child.get("promise", "") for child in element.findall(_RELEASED)
        ),
        violations=tuple(
            child.get("promise", "") for child in element.findall(_VIOLATION)
        ),
    )


def _encode_value(out: list[str], value: object) -> None:
    """Encode one Python value as a typed ``<value>`` element."""
    if value is None:
        out.append('<value type="null" />')
    elif isinstance(value, bool):
        out.append(
            '<value type="bool">true</value>'
            if value
            else '<value type="bool">false</value>'
        )
    elif isinstance(value, int):
        out += ('<value type="int">', _text(str(value)), "</value>")
    elif isinstance(value, float):
        out += ('<value type="float">', _text(repr(value)), "</value>")
    elif isinstance(value, str):
        _text_element(out, '<value type="str"', "</value>", value)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append('<value type="list" />')
            return
        out.append('<value type="list">')
        for entry in value:
            _encode_value(out, entry)
        out.append("</value>")
    elif isinstance(value, Mapping):
        if not value:
            out.append('<value type="dict" />')
            return
        out.append('<value type="dict">')
        for key in sorted(value):
            out += ('<item key="', _attr(str(key)), '">')
            _encode_value(out, value[key])
            out.append("</item>")
        out.append("</value>")
    else:
        raise MalformedMessage(
            f"cannot encode value of type {type(value).__name__}"
        )


def _decode_value(element: ET.Element) -> object:
    """Inverse of :func:`_encode_value`."""
    value_type = element.get("type", "null")
    text = element.text or ""
    if value_type == "null":
        return None
    if value_type == "bool":
        return text == "true"
    if value_type == "int":
        return int(text)
    if value_type == "float":
        return float(text)
    if value_type == "str":
        return text
    if value_type == "list":
        return [_decode_value(child) for child in element.findall(_VALUE)]
    if value_type == "dict":
        decoded: dict[str, object] = {}
        for item in element.findall(_ITEM):
            child = item.find(_VALUE)
            if child is None:
                raise MalformedMessage("dict item missing value")
            decoded[item.get("key", "")] = _decode_value(child)
        return decoded
    raise MalformedMessage(f"unknown value type {value_type!r}")
