"""repro.obs — unified observability: metrics, tracing, introspection.

The paper defines the Promises protocol purely by message flows
(Figures 1 and 2); this package makes those flows *observable* at
production scale: a thread-safe :class:`MetricsRegistry` every
subsystem's counters live in, envelope-propagated trace contexts that
stitch one client request across retries, scatter-gather legs, shard
transactions and the replication ack gate, and the export surfaces
(``_metrics`` / ``_spans`` endpoints, ``repro top``, ``repro trace``)
that let an operator watch a fleet live.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    merge_counters,
    snapshot_delta,
    wal_observer,
)
from .trace import (
    Span,
    SpanRecorder,
    TraceContext,
    new_span_id,
    new_trace_id,
    render_trace,
    spans_from_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "merge_counters",
    "snapshot_delta",
    "wal_observer",
    "Span",
    "SpanRecorder",
    "TraceContext",
    "new_trace_id",
    "new_span_id",
    "render_trace",
    "spans_from_jsonl",
]
