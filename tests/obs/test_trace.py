"""Trace plumbing: contexts, the span recorder, wire format, rendering —
and the nemesis's trace-history auditor."""

from __future__ import annotations

import pytest

from repro.faults.crashpoints import SimulatedCrash
from repro.faults.nemesis import audit_spans
from repro.obs.trace import (
    Span,
    SpanRecorder,
    TraceContext,
    render_trace,
    spans_from_jsonl,
)
from repro.protocol.messages import Message
from repro.protocol.soap import SoapCodec

pytestmark = pytest.mark.obs


def test_context_root_and_child():
    root = TraceContext.root()
    child = root.child()
    grandchild = child.child()
    assert child.trace_id == root.trace_id == grandchild.trace_id
    assert child.parent_span_id == root.span_id
    assert grandchild.parent_span_id == child.span_id
    assert len({root.span_id, child.span_id, grandchild.span_id}) == 3


def test_trace_header_survives_the_wire():
    codec = SoapCodec()
    context = TraceContext.root().child()
    message = Message(
        message_id="m1", sender="alice", recipient="shop", trace=context
    )
    decoded = codec.decode(codec.encode(message))
    assert decoded.trace == context
    # And an untraced envelope stays untraced.
    bare = Message(message_id="m2", sender="alice", recipient="shop")
    assert codec.decode(codec.encode(bare)).trace is None


def test_recorder_builds_parent_child_spans():
    recorder = SpanRecorder()
    with recorder.span("outer", shard=0) as outer:
        with recorder.span("inner", parent=outer.context) as inner:
            inner.annotate(epoch=1, skipped=None)
    spans = {s.name: s for s in recorder.spans()}
    assert spans["inner"].parent_span_id == spans["outer"].span_id
    assert spans["inner"].trace_id == spans["outer"].trace_id
    assert spans["inner"].attributes["epoch"] == 1
    assert "skipped" not in spans["inner"].attributes  # None filtered
    assert spans["outer"].attributes["shard"] == 0
    assert all(s.outcome == "ok" for s in recorder.spans())


def test_recorder_ring_is_bounded():
    recorder = SpanRecorder(capacity=8)
    for index in range(20):
        with recorder.span(f"s{index}"):
            pass
    spans = recorder.spans()
    assert len(spans) == 8
    assert spans[0].name == "s12"  # oldest 12 evicted


def test_recorder_outcomes_for_errors_and_crashes():
    recorder = SpanRecorder()
    with pytest.raises(ValueError):
        with recorder.span("boom"):
            raise ValueError("no")
    with pytest.raises(SimulatedCrash):
        with recorder.span("crash"):
            raise SimulatedCrash("endpoint.before-reply")
    by_name = {s.name: s for s in recorder.spans()}
    assert by_name["boom"].outcome == "error:ValueError"
    assert by_name["crash"].outcome == "crash"
    assert (
        by_name["crash"].attributes["crash_point"]
        == "endpoint.before-reply"
    )


def test_jsonl_roundtrip_and_filtering(tmp_path):
    recorder = SpanRecorder()
    with recorder.span("a"):
        pass
    with recorder.span("b"):
        pass
    trace_ids = recorder.trace_ids()
    assert len(trace_ids) == 2
    path = tmp_path / "spans.jsonl"
    written = recorder.export_jsonl(path, trace_id=trace_ids[0])
    assert written == 1
    restored = spans_from_jsonl(path.read_text())
    assert [s.to_dict() for s in restored] == [
        s.to_dict() for s in recorder.spans(trace_ids[0])
    ]
    everything = spans_from_jsonl(recorder.dump_jsonl())
    assert {s.name for s in everything} == {"a", "b"}


def test_render_trace_tree_and_orphans():
    root = TraceContext.root()
    child = root.child()
    spans = [
        Span("client.request", root.trace_id, root.span_id),
        Span("server.dispatch", root.trace_id, child.span_id,
             parent_span_id=root.span_id,
             attributes={"shard": 1, "epoch": 0}),
        # An orphan (its parent was never scraped) must still render.
        Span("server.txn", root.trace_id, "orphan-span",
             parent_span_id="missing-parent"),
        # The same span twice (local export + server scrape): deduped.
        Span("server.dispatch", root.trace_id, child.span_id,
             parent_span_id=root.span_id),
    ]
    text = render_trace(spans, root.trace_id)
    lines = text.splitlines()
    assert lines[0] == f"trace {root.trace_id}"
    assert text.count("server.dispatch") == 1
    assert "shard=1" in text and "epoch=0" in text
    assert "server.txn" in text
    assert render_trace([], "nope") == "(no spans)"


# ------------------------------------------------- trace-history audit


def _dispatch_span(span_id, message_id, epoch, outcome="ok", executed=True):
    return {
        "name": "server.dispatch",
        "trace_id": "t",
        "span_id": span_id,
        "outcome": outcome,
        "attributes": {
            "message_id": message_id,
            "kind": "check",
            "epoch": epoch,
            "executed": executed or None,
        },
    }


def test_audit_spans_flags_cross_epoch_double_execution():
    violations = audit_spans(
        [
            _dispatch_span("s1", "m-double", 0),
            _dispatch_span("s2", "m-double", 1),
        ]
    )
    assert len(violations) == 1
    assert "m-double" in violations[0]
    assert "across epochs 0/1" in violations[0]


def test_audit_spans_accepts_legitimate_histories():
    assert (
        audit_spans(
            [
                # One clean execution.
                _dispatch_span("s1", "m-clean", 0),
                # Executed but never acknowledged (fenced on the deposed
                # primary), then re-executed on the survivor: protocol
                # working as designed.
                _dispatch_span("s2", "m-fenced", 0, outcome="fenced"),
                _dispatch_span("s3", "m-fenced", 1),
                # A §6 redelivery served from the journal.
                _dispatch_span("s4", "m-redelivered", 0),
                _dispatch_span(
                    "s5", "m-redelivered", 1,
                    outcome="duplicate", executed=False,
                ),
                # The same span collected via two scrape paths.
                _dispatch_span("s4", "m-redelivered", 0),
            ]
        )
        == []
    )


def test_span_audit_self_test_is_not_vacuous():
    """A forged double grant trips the auditor; its decoys do not.

    The forged history shows one check-kind message executed and
    acknowledged at epoch 0 and again at epoch 1, beside a fenced
    execution and a duplicate replay that must *not* trip it.
    """
    clean = [
        _dispatch_span("s1", "m-clean", 0),
        _dispatch_span("s2", "m-fenced", 0, outcome="fenced"),
        _dispatch_span("s3", "m-fenced", 1),
        _dispatch_span("s4", "m-replayed", 0),
        _dispatch_span("s5", "m-replayed", 1, outcome="duplicate", executed=False),
        _dispatch_span("s4", "m-replayed", 0),  # same span scraped twice
    ]
    assert audit_spans(clean) == []
    forged = clean + [
        _dispatch_span("s6", "m-double", 0),
        _dispatch_span("s7", "m-double", 1),
    ]
    assert any(
        "m-double" in violation and "across epochs 0/1" in violation
        for violation in audit_spans(forged)
    )
