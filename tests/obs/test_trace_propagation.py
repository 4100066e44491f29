"""One trace id must survive what the protocol survives.

The whole value of envelope-propagated tracing is that the *failure*
paths stitch: a §6 retry after a dropped reply, a scatter-gather grant
fanned out across shards, and a redelivery that lands on the other side
of a primary failover must each produce a single trace whose spans tell
the story — including the epoch bump.
"""

from __future__ import annotations

import pytest

from repro.cluster import provision_products
from repro.core.parser import P
from repro.net import NetworkTransport, PromiseServer, ThreadedServer
from repro.obs.trace import SpanRecorder, render_trace
from repro.protocol.client import PromiseClient
from repro.protocol.retry import RetryPolicy
from repro.replication import ReplicatedFleet
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService

pytestmark = pytest.mark.obs

STOCK = 40


class Tap:
    """Remember the last wire message, for redelivery-based probes."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.last = None

    def send(self, message):
        self.last = message
        return self.inner.send(message)


def test_retry_after_reply_drop_stays_one_trace():
    deployment = Deployment(name="shop")
    deployment.add_service(MerchantService())
    deployment.use_pool_strategy("widgets")
    with deployment.seed() as txn:
        deployment.resources.create_pool(txn, "widgets", STOCK)
    server = PromiseServer(port=0)
    server.register("shop", deployment.endpoint.handle)
    recorder = SpanRecorder()
    try:
        with ThreadedServer(server) as address:
            with NetworkTransport(address) as transport:
                client = PromiseClient(
                    "alice", transport, tracer=recorder,
                    retry=RetryPolicy(max_attempts=3, base_delay=0.01),
                )
                transport.plan_reply_drop(transport.metrics.value("transport.sent") + 1)
                response = client.request_promise(
                    "shop", [P("quantity('widgets') >= 1")], 30
                )
                assert response.accepted
    finally:
        deployment.close()

    trace_id = client.last_trace_id
    local = recorder.spans(trace_id)
    remote = server.tracer.spans(trace_id)
    # Every span of the episode shares the single trace id.
    assert recorder.trace_ids() == [trace_id]
    assert {s.trace_id for s in remote} == {trace_id}
    attempts = [s for s in local if s.name == "client.attempt"]
    assert len(attempts) == 2  # the dropped attempt and the retry
    assert [s.attributes["attempt"] for s in attempts] == [1, 2]
    dispatches = [s for s in remote if s.name == "server.dispatch"]
    assert [s.outcome for s in dispatches] == ["ok", "duplicate"]
    # The executed dispatch hangs off attempt 1, the duplicate replay
    # off attempt 2 — the tree shows which attempt did the work.
    by_attempt = {s.span_id: s.attributes["attempt"] for s in attempts}
    assert by_attempt[dispatches[0].parent_span_id] == 1
    assert by_attempt[dispatches[1].parent_span_id] == 2


def test_cross_shard_scatter_gather_stays_one_trace(tmp_path):
    recorder = SpanRecorder()
    fleet = ReplicatedFleet(
        2,
        replicas=0,
        provision=provision_products(6, STOCK),
        wal_dir=str(tmp_path),
    )
    with fleet:
        near = "product-0"
        far = next(
            f"product-{n}"
            for n in range(1, 6)
            if fleet.ring.shard_of(f"product-{n}")
            != fleet.ring.shard_of(near)
        )
        with fleet.gateway(retry=RetryPolicy.none(), tracer=recorder) as gw:
            client = PromiseClient(
                "alice", gw, retry=RetryPolicy.none(), tracer=recorder
            )
            response = client.request_promise(
                "shop",
                [P(f"quantity('{near}') >= 1"), P(f"quantity('{far}') >= 1")],
                30,
            )
            assert response.accepted
            trace_id = client.last_trace_id
            collected = [
                *[s.to_dict() for s in recorder.spans(trace_id)],
                *gw.spans_snapshot(trace_id),
            ]
    # The recorder and the snapshot overlap on the gateway's own spans;
    # dedup by span id, exactly as render_trace does.
    spans = list(
        {str(span["span_id"]): span for span in collected}.values()
    )
    assert {span["trace_id"] for span in spans} == {trace_id}
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(str(span["name"]), []).append(span)
    route = by_name["gateway.route"]
    assert len(route) == 1
    assert route[0]["attributes"]["mode"] == "scatter"
    legs = by_name["gateway.shard_send"]
    assert {leg["attributes"]["shard"] for leg in legs} == {0, 1}
    # Both shards executed their sub-grant inside the same trace, each
    # under its own gateway leg.
    dispatches = [
        span for span in by_name["server.dispatch"]
        if span["attributes"].get("executed")
    ]
    assert len(dispatches) == 2
    leg_ids = {leg["span_id"] for leg in legs}
    assert {d["parent_span_id"] for d in dispatches} <= leg_ids
    rendered = render_trace(
        [__import__("repro.obs.trace", fromlist=["Span"]).Span.from_dict(s)
         for s in spans],
        trace_id,
    )
    assert rendered.count("gateway.shard_send") == 2


@pytest.mark.failover
def test_failover_redelivery_spans_carry_both_epochs(tmp_path):
    """A grant at epoch 0, redelivered after promotion, is one trace
    whose dispatch spans are annotated with the old *and* new epoch."""
    recorder = SpanRecorder()
    fleet = ReplicatedFleet(
        2,
        replicas=1,
        provision=provision_products(4, STOCK),
        wal_dir=str(tmp_path),
    )
    fleet.start()
    try:
        gw = fleet.gateway(
            timeout=2.0,
            retry=RetryPolicy(max_attempts=3, base_delay=0.05),
            tracer=recorder,
        )
        with gw:
            tap = Tap(gw)
            client = PromiseClient("alice", tap, tracer=recorder)
            product = "product-0"
            victim = fleet.ring.shard_of(product)
            response = client.request_promise(
                "shop", [P(f"quantity('{product}') >= 1")], 60
            )
            assert response.accepted
            trace_id = client.last_trace_id
            wire = tap.last
            assert wire is not None and wire.trace is not None

            old_primary = fleet.shard(victim)
            fleet.kill(victim)
            assert fleet.failover(victim) == 1

            # §6 redelivery: the same envelope — same message id, same
            # trace context — lands on the promoted follower, whose
            # handler finds the grant journalled in the shipped log and
            # renders the original reply instead of granting again.
            replay = gw.send(wire)
            assert [r.promise_id for r in replay.promise_responses] == [
                response.promise_id
            ]
            promoted = fleet.shard(victim)
            assert promoted.server.metrics.value("manager.journal.replays") == 1
            assert fleet.live_promises()[victim] == 1

            spans = [s.to_dict() for s in recorder.spans(trace_id)]
            for source in (old_primary.server, fleet.shard(victim).server):
                spans.extend(
                    s.to_dict() for s in source.tracer.spans(trace_id)
                )
    finally:
        fleet.stop()

    assert {span["trace_id"] for span in spans} == {trace_id}
    dispatches = sorted(
        (span for span in spans if span["name"] == "server.dispatch"),
        key=lambda span: span["start"],
    )
    assert len(dispatches) == 2
    before, after = dispatches
    # One trace, both sides of the epoch bump.
    assert before["attributes"]["epoch"] == 0
    assert after["attributes"]["epoch"] == 1
    # Both went through the handler: the first granted, the second was
    # a cache miss on a new process answered by the manager's journal
    # (asserted on the counter and the live set above).
    assert before["attributes"].get("executed") is True
    assert after["attributes"].get("executed") is True
    assert after["outcome"] == "ok"
    # Each ack — the grant's and the re-rendered reply's — went through
    # the ack gate of the primary that gave it.
    gates = sorted(
        (span for span in spans if span["name"] == "server.ack_gate"),
        key=lambda span: span["start"],
    )
    assert [gate["attributes"]["epoch"] for gate in gates] == [0, 1]
