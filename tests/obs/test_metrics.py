"""Metrics registry: instruments, export — and the race fixes.

The registry replaced every ad-hoc ``stats`` dataclass whose plain
``+=`` increments could lose updates across threads; the hammer test
here is the regression test for that fix (it fails reliably against an
unsynchronized counter on free-threaded interpreters, and under the GIL
the moment the increment spans more than one bytecode).
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    merge_counters,
    snapshot_delta,
    wal_observer,
)

pytestmark = pytest.mark.obs


def test_counters_gauges_histograms_roundtrip():
    registry = MetricsRegistry()
    registry.inc("server.requests")
    registry.inc("server.requests", 4)
    registry.set_gauge("repl.ship_lag_lsn", 7)
    registry.observe("server.dispatch_seconds", 0.003)
    registry.observe("server.dispatch_seconds", 99.0)  # overflow bucket

    assert registry.value("server.requests") == 5
    assert registry.value("repl.ship_lag_lsn") == 7
    assert registry.value("never.touched") == 0

    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"server.requests": 5}
    assert snapshot["gauges"] == {"repl.ship_lag_lsn": 7.0}
    hist = snapshot["histograms"]["server.dispatch_seconds"]
    assert hist["count"] == 2
    assert hist["overflow"] == 1
    assert hist["sum"] == pytest.approx(99.003)
    # The export is exactly what the SOAP value codec can carry.
    assert json.loads(registry.to_json()) == json.loads(
        json.dumps(snapshot)
    )


def test_instruments_are_get_or_create():
    registry = MetricsRegistry()
    assert registry.counter("a.b") is registry.counter("a.b")
    assert registry.gauge("a.c") is registry.gauge("a.c")
    assert registry.histogram("a.d") is registry.histogram("a.d")
    assert registry.histogram("a.d").buckets == tuple(
        sorted(DEFAULT_LATENCY_BUCKETS)
    )


def test_delta_reports_increments_not_totals():
    registry = MetricsRegistry()
    registry.inc("hits", 10)
    registry.set_gauge("depth", 3)
    before = registry.snapshot()
    registry.inc("hits", 2)
    registry.inc("fresh")
    registry.set_gauge("depth", 9)
    delta = registry.delta(before)
    assert delta["counters"]["hits"] == 2
    assert delta["counters"]["fresh"] == 1
    # Gauges are levels: the delta carries the current value.
    assert delta["gauges"]["depth"] == 9.0
    assert snapshot_delta(before, before)["counters"]["hits"] == 0


def test_merge_counters_sums_fleet_scrapes():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.inc("server.requests", 3)
    b.inc("server.requests", 4)
    b.inc("server.shed")
    totals = merge_counters([a.snapshot(), b.snapshot()])
    assert totals == {"server.requests": 7, "server.shed": 1}


def test_null_registry_is_inert():
    assert NULL_REGISTRY.enabled is False
    assert NULL_REGISTRY.inc("anything", 100) == 0
    assert NULL_REGISTRY.counter("anything").inc() == 0
    NULL_REGISTRY.set_gauge("anything", 1.0)
    NULL_REGISTRY.observe("anything", 1.0)
    assert NULL_REGISTRY.value("anything") == 0
    snapshot = NullRegistry().snapshot()
    assert snapshot["counters"] == {}
    assert snapshot["gauges"] == {}


def test_concurrent_increments_never_lose_updates():
    """The satellite regression test: 16 threads x 2000 increments must
    land exactly — the old ``stats.field += 1`` pattern dropped some."""
    registry = MetricsRegistry()
    threads_n, per_thread = 16, 2000

    def hammer():
        for __ in range(per_thread):
            registry.inc("hammer.count")
            registry.gauge("hammer.level").add(1)

    threads = [threading.Thread(target=hammer) for __ in range(threads_n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert registry.value("hammer.count") == threads_n * per_thread
    assert registry.value("hammer.level") == threads_n * per_thread


def test_transport_counters_survive_a_sixteen_thread_hammer():
    """The gateway's scatter threads share one ``NetworkTransport``: its
    ``transport.*`` counts go through the client's registry (never a
    ``stats.field += 1``), so none is lost and a scrape can see them."""
    from repro.net import NetworkTransport, PromiseServer, ThreadedServer
    from repro.protocol.messages import Message

    server = PromiseServer()
    server.register("echo", lambda m: m.reply(f"echo:{m.message_id}"))
    threads_n, per_thread = 16, 50
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # make a lost ``+=`` likely, not lucky
    try:
        with ThreadedServer(server) as address:
            with NetworkTransport(address) as transport:

                def hammer(name: int):
                    for n in range(per_thread):
                        transport.send(
                            Message(f"t{name}:m{n}", "hammer", "echo")
                        )

                threads = [
                    threading.Thread(target=hammer, args=(name,))
                    for name in range(threads_n)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                total = threads_n * per_thread
                counters = transport.client.metrics.snapshot()["counters"]
                assert counters["transport.sent"] == total
                assert counters["transport.delivered"] == total
                assert counters["client.requests"] == total
                assert counters["client.connections_opened"] == 1
    finally:
        sys.setswitchinterval(interval)


def test_increments_return_distinct_numbers_across_threads():
    """Each ``inc`` returns the count it made: N threads incrementing
    one counter at once get exactly ``1..N`` back — what a transport
    numbers its deliveries by."""
    registry = MetricsRegistry()
    threads_n, per_thread = 8, 500
    numbers: list[int] = []
    start = threading.Barrier(threads_n)

    def hammer():
        start.wait(timeout=60)
        numbers.extend(
            [registry.inc("transport.sent") for __ in range(per_thread)]
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer) for __ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    total = threads_n * per_thread
    assert sorted(numbers) == list(range(1, total + 1))
    assert registry.value("transport.sent") == total


def test_a_planned_drop_fires_once_under_concurrent_sends():
    """Threads sharing one transport (the gateway's scatter pool, the
    nemesis) each get their own delivery number, so a planned drop
    fires exactly once — never twice, never skipped."""
    from repro.protocol.errors import TransportFailure
    from repro.protocol.messages import Message
    from repro.protocol.transport import InProcessTransport

    transport = InProcessTransport(dedup_capacity=None)
    transport.register("echo", lambda m: m.reply("ok"))
    threads_n, per_thread = 8, 50
    planned = range(25, threads_n * per_thread + 1, 50)
    for delivery in planned:
        transport.plan_request_drop(delivery)
    failures: list[int] = []

    def hammer(name: int):
        for n in range(per_thread):
            try:
                transport.send(Message(f"t{name}:m{n}", "hammer", "echo"))
            except TransportFailure:
                failures.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=hammer, args=(name,))
            for name in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(failures) == len(planned)
    assert transport.metrics.value("transport.dropped_requests") == len(
        planned
    )
    assert transport.metrics.value("transport.delivered") == (
        threads_n * per_thread - len(planned)
    )


def test_wal_observer_counts_appends(tmp_path):
    from repro.services.deployment import Deployment

    registry = MetricsRegistry()
    deployment = Deployment(
        name="obs", wal_path=str(tmp_path / "obs.wal"), metrics=registry
    )
    deployment.use_pool_strategy("stock")
    with deployment.seed() as txn:
        deployment.resources.create_pool(txn, "stock", 5)
    deployment.close()
    assert registry.value("wal.appends") > 0
    assert registry.value("wal.commits") >= 1


def test_manager_reports_check_width_and_live_promises():
    """``manager.check.promises`` is how many promises one isolation check
    loaded; ``manager.live_promises`` follows grants and releases."""
    from repro.core.predicates import quantity_at_least
    from repro.services.deployment import Deployment

    registry = MetricsRegistry()
    deployment = Deployment(name="obs", metrics=registry)
    deployment.use_pool_strategy("stock", "other")
    with deployment.seed() as txn:
        deployment.resources.create_pool(txn, "stock", 50)
        deployment.resources.create_pool(txn, "other", 50)
    manager = deployment.manager
    for pool in ("stock", "stock", "other"):
        granted = manager.request_promise_for([quantity_at_least(pool, 1)], 10)
    assert registry.value("manager.live_promises") == 3
    # The three checks loaded 0, 1 and 0 promises: only the second grant
    # shared a pool with a standing promise.
    widths = registry.snapshot()["histograms"]["manager.check.promises"]
    assert (widths["count"], widths["sum"]) == (3, 1.0)
    manager.release(granted.promise_id)
    assert registry.value("manager.live_promises") == 2
    deployment.close()
