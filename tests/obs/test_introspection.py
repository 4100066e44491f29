"""Live introspection: ``_metrics``/``_spans`` endpoints, gateway
scrapes, and the recovery report's observability section.

The scrape path must work *especially* when the data path does not:
the endpoints bypass admission control (scraping an overloaded server
is when you need the counters most) and the reply-dedup cache (every
scrape is fresh), and the gateway scrapes straight past its circuit
breakers.
"""

from __future__ import annotations

import pytest

from repro.cluster import provision_products
from repro.core.parser import P
from repro.net import NetworkTransport, PromiseServer, ThreadedServer
from repro.net.server import METRICS_ENDPOINT, SPANS_ENDPOINT
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanRecorder
from repro.protocol.client import PromiseClient
from repro.protocol.errors import ProtocolError
from repro.protocol.messages import ActionPayload, Message
from repro.protocol.retry import RetryPolicy
from repro.replication import ReplicatedFleet
from repro.resilience.admission import AdmissionController
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService

pytestmark = pytest.mark.obs

STOCK = 50


def _scrape(transport, recipient, message_id, params=None):
    probe = Message(
        message_id=message_id,
        sender="scraper",
        recipient=recipient,
        action=ActionPayload(
            service="_obs", operation="scrape", params=dict(params or {})
        ),
    )
    reply = transport.send(probe)
    assert reply.action_outcome is not None and reply.action_outcome.success
    return reply.action_outcome.value


@pytest.fixture()
def served():
    deployment = Deployment(name="shop")
    deployment.add_service(MerchantService())
    deployment.use_pool_strategy("widgets")
    with deployment.seed() as txn:
        deployment.resources.create_pool(txn, "widgets", STOCK)
    server = PromiseServer(port=0)
    server.register("shop", deployment.endpoint.handle)
    with ThreadedServer(server) as address:
        with NetworkTransport(address) as transport:
            yield deployment, server, transport
    deployment.close()


def test_metrics_endpoint_returns_snapshot(served):
    deployment, server, transport = served
    client = PromiseClient("alice", transport)
    response = client.request_promise(
        "shop", [P("quantity('widgets') >= 1")], 30
    )
    assert response.accepted
    snapshot = _scrape(transport, METRICS_ENDPOINT, "scrape-1")
    counters = snapshot["counters"]
    assert counters["server.requests"] >= 1
    assert counters["server.replies"] >= 1
    assert counters["server.scrapes"] == 1
    assert "server.dispatch_seconds" in snapshot["histograms"]
    # Live view and scrape agree.
    assert counters["server.requests"] == server.stats.requests


def test_scrapes_bypass_the_dedup_cache(served):
    __, server, transport = served
    first = _scrape(transport, METRICS_ENDPOINT, "same-id")
    second = _scrape(transport, METRICS_ENDPOINT, "same-id")
    # Same message id, yet both executed: scrape #2 sees scrape #1.
    assert first["counters"]["server.scrapes"] == 1
    assert second["counters"]["server.scrapes"] == 2
    assert server.stats.duplicates_served == 0


def test_spans_endpoint_filters_by_trace_id(served):
    __, server, transport = served
    recorder = SpanRecorder()
    client = PromiseClient("tracer", transport, tracer=recorder)
    client.request_promise("shop", [P("quantity('widgets') >= 1")], 30)
    first_trace = client.last_trace_id
    client.request_promise("shop", [P("quantity('widgets') >= 1")], 30)
    assert first_trace is not None
    everything = _scrape(transport, SPANS_ENDPOINT, "spans-all")
    filtered = _scrape(
        transport, SPANS_ENDPOINT, "spans-one", {"trace_id": first_trace}
    )
    assert {span["trace_id"] for span in everything} >= {
        first_trace, client.last_trace_id
    }
    assert filtered and all(
        span["trace_id"] == first_trace for span in filtered
    )
    assert {span["name"] for span in filtered} == {
        "server.dispatch", "server.txn"
    }


def test_scrapes_bypass_admission_control():
    """An overloaded server sheds requests but still answers scrapes."""
    deployment = Deployment(name="shop")
    deployment.add_service(MerchantService())
    deployment.use_pool_strategy("widgets")
    with deployment.seed() as txn:
        deployment.resources.create_pool(txn, "widgets", STOCK)
    # reserve == burst: no check can ever clear the floor — total shed.
    admission = AdmissionController(
        max_queue=1, rate=0.0001, burst=1.0, reserve=1.0
    )
    server = PromiseServer(port=0, admission=admission,
                           metrics=admission.metrics)
    server.register("shop", deployment.endpoint.handle)
    try:
        with ThreadedServer(server) as address:
            with NetworkTransport(address) as transport:
                client = PromiseClient(
                    "alice", transport, retry=RetryPolicy.none()
                )
                with pytest.raises(ProtocolError):
                    client.request_promise(
                        "shop", [P("quantity('widgets') >= 1")], 30
                    )
                snapshot = _scrape(transport, METRICS_ENDPOINT, "scrape-1")
                counters = snapshot["counters"]
                assert counters["admission.shed_checks"] == 1
                assert counters["server.shed"] == 1
                assert server.stats.shed == 1  # StatsView read-through
    finally:
        deployment.close()


def test_gateway_snapshots_aggregate_the_fleet(tmp_path):
    recorder = SpanRecorder()
    fleet = ReplicatedFleet(
        2,
        replicas=0,
        provision=provision_products(4, STOCK),
        wal_dir=str(tmp_path),
    )
    with fleet:
        with fleet.gateway(retry=RetryPolicy.none(), tracer=recorder) as gw:
            client = PromiseClient(
                "alice", gw, retry=RetryPolicy.none(), tracer=recorder
            )
            response = client.request_promise(
                "shop", [P("quantity('product-0') >= 1")], 30
            )
            assert response.accepted
            snapshot = gw.metrics_snapshot()
            assert snapshot["gateway"]["counters"]["gateway.requests"] == 1
            assert len(snapshot["shards"]) == 2
            assert all(shard is not None for shard in snapshot["shards"])
            # WAL metrics land in the same shard registries.
            totals = {}
            for shard in snapshot["shards"]:
                for name, value in shard["counters"].items():
                    totals[name] = totals.get(name, 0) + value
            assert totals["wal.appends"] > 0
            assert totals["server.scrapes"] == 2

            spans = gw.spans_snapshot(client.last_trace_id)
            names = {span["name"] for span in spans}
            # Client + gateway halves from the shared recorder, server
            # halves from the per-shard scrape.
            assert {
                "client.request", "client.attempt", "gateway.route",
                "gateway.shard_send", "server.dispatch", "server.txn",
            } <= names

            # A dead shard scrapes as None; the rest still answer.
            fleet.kill(1)
            partial = gw.metrics_snapshot()
            assert partial["shards"][0] is not None
            assert partial["shards"][1] is None


def test_recovery_report_carries_metrics_section(tmp_path):
    wal = str(tmp_path / "shop.wal")
    registry = MetricsRegistry()
    deployment = Deployment(name="shop", wal_path=wal, metrics=registry)
    deployment.use_pool_strategy("widgets")
    with deployment.seed() as txn:
        deployment.resources.create_pool(txn, "widgets", STOCK)
    deployment.close()

    revived = Deployment(name="shop", wal_path=wal, metrics=registry)
    revived.use_pool_strategy("widgets")
    try:
        assert revived.recovered
        report = revived.recover()
        assert report.metrics is not None
        assert "[metrics:" in report.summary()
        section = report.metrics_section()
        assert section.startswith("metrics at recovery:")
        assert "doctor.audits = 1" in section
        assert registry.value("recovery.runs") == 1
        assert registry.value("doctor.repairs") == 0
    finally:
        revived.close()

    # Without a registry the report stays exactly as before.
    bare = Deployment(name="shop", wal_path=wal)
    bare.use_pool_strategy("widgets")
    try:
        report = bare.recover()
        assert report.metrics is None
        assert report.metrics_section() == ""
        assert "[metrics:" not in report.summary()
    finally:
        bare.close()
