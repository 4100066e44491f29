"""Span bookkeeping and the summary rules, on hand-built inputs.

Run with ``pytest benchmarks/perf`` (not part of the tier-1 suite).
"""

from __future__ import annotations

import threading

import pytest

from benchmarks.perf.spans import (
    Span,
    Tracer,
    covered,
    self_seconds,
)
from benchmarks.perf.stats import (
    histogram_quantile,
    median_rate,
    percentile,
    percentile_supported,
    slice_rates,
    spread_share,
)


# ------------------------------------------------------------- self time


def test_self_time_of_nested_spans():
    outer = Span("outer", "a", 0.0, 10.0)
    middle = Span("middle", "b", 2.0, 8.0, parent=outer)
    inner = Span("inner", "c", 3.0, 4.0, parent=middle)
    assert self_seconds([outer, middle, inner]) == [4.0, 5.0, 1.0]
    # Self times of a strictly nested tree add up to the root.
    assert sum(self_seconds([outer, middle, inner])) == outer.duration


def test_overlapping_children_are_covered_once():
    # Two scatter legs in flight at once: 2..6 and 4..9 cover 2..9.
    parent = Span("gateway.send", "gateway", 0.0, 10.0)
    left = Span("leg", "transport", 2.0, 6.0, parent=parent)
    right = Span("leg", "transport", 4.0, 9.0, parent=parent)
    assert self_seconds([parent, left, right]) == [3.0, 4.0, 5.0]


def test_child_outside_its_parent_is_clipped():
    # A remote child can outlive the span that waited for it by a
    # scheduling quantum; only the shared part is the parent's child time.
    parent = Span("send", "transport", 1.0, 5.0)
    early = Span("decode", "soap", 0.0, 2.0, parent=parent)
    late = Span("encode", "soap", 4.5, 7.0, parent=parent)
    apart = Span("other", "soap", 8.0, 9.0, parent=parent)
    assert self_seconds([parent, early, late, apart])[0] == pytest.approx(2.5)


def test_covered_merges_touching_and_contained_intervals():
    assert covered([(1, 3), (3, 4), (1.5, 2)], 0, 10) == 3
    assert covered([], 0, 10) == 0
    assert covered([(0, 10)], 2, 4) == 2


# ---------------------------------------------------------------- tracer


def test_wrapper_records_nothing_while_disabled():
    tracer = Tracer()
    double = tracer.wrap("layer", "double", lambda value: 2 * value)
    assert double(4) == 8
    assert tracer.spans == []


def test_same_thread_nesting_sets_parents():
    tracer = Tracer()
    inner = tracer.wrap("low", "inner", lambda: "done")
    outer = tracer.wrap("high", "outer", lambda: inner())
    tracer.enabled = True
    tracer.pair = 7
    assert outer() == "done"
    recorded = {span.name: span for span in tracer.spans}
    assert recorded["inner"].parent is recorded["outer"]
    assert recorded["outer"].parent is None
    assert recorded["inner"].pair == 7
    assert recorded["outer"].start <= recorded["inner"].start
    assert recorded["inner"].end <= recorded["outer"].end


def test_remote_spans_link_through_the_message_id():
    tracer = Tracer()
    served_by: list[threading.Thread] = []

    def handle(message_id):
        return message_id

    def journal():
        return None

    handler = tracer.wrap(
        "endpoint", "handle", handle,
        serves=lambda args, kwargs, result: args[0],
    )
    follow_up = tracer.wrap("wal", "append", journal)

    def send(message_id):
        def serve():
            handler(message_id)
            follow_up()  # no id of its own: inherits the handler's parent

        thread = threading.Thread(target=serve)
        served_by.append(thread)
        thread.start()
        thread.join()

    sender = tracer.wrap(
        "transport", "send", send, waits_on=lambda args, kwargs: args[0]
    )
    tracer.enabled = True
    sender("m-1")
    recorded = {span.name: span for span in tracer.spans}
    assert recorded["handle"].parent is recorded["send"]
    assert recorded["append"].parent is recorded["send"]
    assert recorded["handle"].thread != recorded["send"].thread


def test_span_is_recorded_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    wrapped = tracer.wrap("layer", "boom", boom)
    tracer.enabled = True
    with pytest.raises(ValueError):
        wrapped()
    assert [span.name for span in tracer.spans] == ["boom"]
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_patch_and_restore_on_instance_and_class():
    class Codec:
        def encode(self, value):
            return f"<{value}>"

    tracer = Tracer()
    instance = Codec()
    tracer.patch(instance, "encode", "soap")
    tracer.patch(Codec, "encode", "soap", name="class-level")
    tracer.enabled = True
    assert Codec().encode("x") == "<x>"
    assert instance.encode("y") == "<y>"
    assert [span.name for span in tracer.spans] == ["class-level", "soap.encode"]
    tracer.restore()
    assert "encode" not in vars(instance)
    tracer.spans.clear()
    assert Codec().encode("z") == "<z>"
    assert tracer.spans == []


def test_spans_are_written_as_json_lines(tmp_path):
    import json

    tracer = Tracer()
    inner = tracer.wrap("low", "inner", lambda: None)
    outer = tracer.wrap("high", "outer", inner)
    tracer.enabled = True
    outer()
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    by_name = {row["name"]: row for row in rows}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] is None
    assert set(rows[0]) == {
        "id", "name", "layer", "start", "end", "parent", "pair", "thread",
    }


# ----------------------------------------------------------------- rules


def test_throughput_is_the_median_of_the_slice_rates():
    counts = [100, 100, 10, 100, 120]
    seconds = [1.0, 1.0, 1.0, 1.0, 1.0]
    assert slice_rates(counts, seconds) == [100, 100, 10, 100, 120]
    # One stalled slice moves the mean (86/s) but not the median.
    assert median_rate(counts, seconds) == 100
    # Slices are as long as they were measured to be.
    assert median_rate([50, 100, 300], [0.5, 1.0, 2.0]) == 100


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.95) == 95
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.95) == 7.0
    assert percentile([3, 1, 2], 0.5) == 2  # input need not be sorted
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_p95_needs_ten_samples_beyond_it():
    assert not percentile_supported(199, 0.95)
    assert percentile_supported(200, 0.95)
    assert percentile_supported(20, 0.50)
    assert not percentile_supported(19, 0.50)


def test_spread_is_interquartile_range_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles(n=4): Q1 = 11.75, Q3 = 17.25, median 14.5
    assert spread_share(values) == pytest.approx(5.5 / 14.5)
    assert spread_share([5.0]) == 0.0


def test_histogram_quantile_interpolates_inside_the_bucket():
    buckets = {"0.001": 10, "0.002": 30, "0.004": 10}
    # Rank 25 of 50 falls 15 samples into the 30 of (0.001, 0.002].
    assert histogram_quantile(buckets, 0, 0.5) == pytest.approx(0.0015)
    assert histogram_quantile(buckets, 0, 0.1) == pytest.approx(0.0005)
    assert histogram_quantile({}, 0, 0.5) == 0.0
    # A rank in the overflow bucket reports the last bound.
    assert histogram_quantile({"0.001": 1}, 9, 0.9) == 0.001
