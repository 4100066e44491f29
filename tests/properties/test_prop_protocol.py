"""Property-based tests for the SOAP codec: random messages round-trip."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.environment import Environment
from repro.core.promise import PromiseRequest, PromiseResponse, PromiseResult
from repro.obs.trace import TraceContext
from repro.protocol.messages import ActionOutcomePayload, ActionPayload, Message
from repro.protocol.soap import SoapCodec

from .test_prop_predicates import predicates

# XML 1.0 forbids most control characters, but not the three whitespace
# ones: texts mix printable ASCII with those and every character the
# codec escapes, drawn often enough that each shows up.
safe_text = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=0x20, max_codepoint=0x7E),
        st.sampled_from("\t\n\r&<>\"'"),
    ),
    max_size=20,
)
names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12)


@st.composite
def traces(draw):
    return TraceContext(
        trace_id=draw(names),
        span_id=draw(names),
        parent_span_id=draw(st.none() | safe_text),
    )


def json_values(depth=2):
    base = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-10**6, max_value=10**6),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        safe_text,
    )
    if depth == 0:
        return base
    sub = json_values(depth - 1)
    return st.one_of(
        base,
        st.lists(sub, max_size=3),
        st.dictionaries(names, sub, max_size=3),
    )


@st.composite
def promise_requests(draw):
    return PromiseRequest(
        request_id=draw(names),
        client_id=draw(names),
        predicates=tuple(
            draw(st.lists(predicates(depth=1), min_size=1, max_size=3))
        ),
        duration=draw(st.integers(min_value=1, max_value=10_000)),
        releases=tuple(draw(st.lists(names, max_size=2))),
    )


@st.composite
def promise_responses(draw):
    accepted = draw(st.booleans())
    return PromiseResponse(
        promise_id=draw(names) if accepted else None,
        result=PromiseResult.ACCEPTED if accepted else PromiseResult.REJECTED,
        duration=draw(st.integers(min_value=0, max_value=10_000)),
        correlation=draw(names),
        reason=draw(safe_text),
        counter=draw(st.none() | predicates(depth=0)) if not accepted else None,
    )


@st.composite
def environments(draw):
    ids = draw(st.lists(names, min_size=0, max_size=3, unique=True))
    releases = [pid for pid in ids if draw(st.booleans())]
    return Environment.of(*ids, release=releases)


@st.composite
def messages(draw):
    has_action = draw(st.booleans())
    has_outcome = draw(st.booleans())
    return Message(
        message_id=draw(names),
        sender=draw(names),
        recipient=draw(names),
        correlation=draw(safe_text),
        promise_requests=tuple(draw(st.lists(promise_requests(), max_size=2))),
        promise_responses=tuple(draw(st.lists(promise_responses(), max_size=2))),
        environment=draw(st.none() | environments()),
        faults=tuple(draw(st.lists(safe_text, max_size=2))),
        deadline=draw(
            st.none() | st.floats(allow_nan=False, allow_infinity=False)
        ),
        epoch=draw(st.none() | st.integers(min_value=-1, max_value=2**40)),
        trace=draw(st.none() | traces()),
        action=(
            ActionPayload(
                service=draw(names),
                operation=draw(names),
                params=draw(st.dictionaries(names, json_values(), max_size=3)),
            )
            if has_action
            else None
        ),
        action_outcome=(
            ActionOutcomePayload(
                success=draw(st.booleans()),
                value=draw(json_values()),
                reason=draw(safe_text),
                released=tuple(draw(st.lists(names, max_size=2))),
                violations=tuple(draw(st.lists(names, max_size=2))),
            )
            if has_outcome
            else None
        ),
    )


@given(messages())
@settings(max_examples=150, deadline=None)
def test_soap_roundtrip_any_message(message):
    """Every §6 message shape survives the XML wire format losslessly.

    Caveats encoded here on purpose: XML cannot distinguish an absent
    text node from an empty one, so empty faults/reasons normalise to "".
    Texts carry ``\\t \\n \\r`` and every escaped character, in element
    text and in attributes, so every escape of the codec is exercised.
    """
    codec = SoapCodec()
    decoded = codec.decode(codec.encode(message))
    assert decoded.message_id == message.message_id
    assert decoded.sender == message.sender
    assert decoded.recipient == message.recipient
    assert decoded.correlation == message.correlation
    assert decoded.promise_requests == message.promise_requests
    assert decoded.promise_responses == message.promise_responses
    if message.environment is None:
        assert decoded.environment is None
    else:
        assert decoded.environment.promise_ids == message.environment.promise_ids
        assert decoded.environment.releases() == message.environment.releases()
    assert list(decoded.faults) == list(message.faults)
    assert decoded.deadline == message.deadline
    assert decoded.epoch == message.epoch
    assert decoded.trace == message.trace
    assert decoded.action == message.action
    assert decoded.action_outcome == message.action_outcome
