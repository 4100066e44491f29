"""F2-net — the Figure-2 pipeline over loopback TCP.

Reruns the prototype pipeline of ``bench_f2_pipeline`` with the promise
manager behind a real asyncio TCP server (`repro.net`): client →
XML codec → length-prefixed frame → socket → promise manager split →
application → resource manager → reply.  Reports, next to the
in-process numbers, per-stage latency (codec, wire+dispatch, total) and
throughput for the three §6 message shapes, plus a fault-injection run
(dropped replies) that must complete through the client's retry path
with zero availability failures and no duplicate grants.
"""

from __future__ import annotations

from repro.core.parser import P
from repro.net import NetworkTransport, PromiseServer, ThreadedServer
from repro.protocol.client import PromiseClient
from repro.protocol.retry import RetryPolicy
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService

from .common import print_table, run_once

SHAPES = ("promise-only", "action-only", "combined")


def build(transport=None, stock: int = 10_000_000) -> Deployment:
    deployment = Deployment(name="pm", transport=transport)
    deployment.add_service(MerchantService())
    deployment.use_pool_strategy("stock")
    with deployment.seed() as txn:
        deployment.resources.create_pool(txn, "stock", stock)
    return deployment


def served_deployment():
    """A deployment whose endpoint lives behind a loopback TCP server."""
    server = PromiseServer()
    threaded = ThreadedServer(server)
    threaded.start()
    transport = NetworkTransport(server=server)
    deployment = build(transport=transport)
    return deployment, server, threaded, transport


def drive(client, kind: str, deployment) -> None:
    """One request of the given §6 message shape."""
    if kind == "promise-only":
        response = client.request_promise(
            "pm", [P("quantity('stock') >= 1")], 10
        )
        client.release("pm", response.promise_id)
    elif kind == "action-only":
        client.call(
            "pm", "merchant", "sell", {"product": "stock", "quantity": 1}
        )
    else:
        response, __ = client.call_with_promise(
            "pm", [P("quantity('stock') >= 1")], 10,
            "merchant", "sell", {"product": "stock", "quantity": 1},
        )
        client.release("pm", response.promise_id)
    deployment.manager.vacuum()


def test_bench_network_roundtrip(benchmark):
    """One combined promise+action message across the TCP hop."""
    deployment, __server, threaded, transport = served_deployment()
    try:
        client = deployment.client("client")
        benchmark(drive, client, "combined", deployment)
    finally:
        transport.close()
        threaded.stop()


def test_report_f2_network(benchmark):
    """The F2 tables over loopback TCP, in-process numbers alongside."""
    import time

    count = 200

    def sweep_transport(make):
        rows = {}
        for kind in SHAPES:
            deployment, cleanup = make()
            try:
                client = deployment.client("client")
                start = time.perf_counter()
                for __ in range(count):
                    drive(client, kind, deployment)
                elapsed = time.perf_counter() - start
                metrics = deployment.transport.metrics
                sent = metrics.value("transport.sent")
                rows[kind] = {
                    "msg/s": sent / elapsed,
                    "latency (ms)": elapsed / count * 1e3,
                    "avg bytes/envelope":
                        metrics.value("transport.bytes_on_wire")
                        / max(1, 2 * sent),
                }
            finally:
                cleanup()
        return rows

    def make_inproc():
        return build(), lambda: None

    def make_network():
        deployment, __server, threaded, transport = served_deployment()

        def cleanup():
            transport.close()
            threaded.stop()

        return deployment, cleanup

    def codec_stage_ms():
        """Per-message codec cost (encode+decode), the non-wire stage."""
        from repro.protocol.soap import SoapCodec
        from repro.protocol.messages import ActionPayload, Message

        codec = SoapCodec()
        message = Message(
            message_id="m1", sender="client", recipient="pm",
            action=ActionPayload(
                "merchant", "sell", {"product": "stock", "quantity": 1}
            ),
        )
        start = time.perf_counter()
        for __ in range(count):
            codec.decode(codec.encode(message))
        return (time.perf_counter() - start) / count * 1e3

    def fault_injection_run():
        """Dropped replies every 7th delivery; retries must absorb all."""
        deployment, server, threaded, transport = served_deployment()
        try:
            client = PromiseClient(
                "client", transport,
                retry=RetryPolicy(max_attempts=4, base_delay=0.01),
            )
            requests = 100
            for n in range(7, requests * 2, 7):
                transport.plan_reply_drop(n)
            granted = 0
            for __ in range(requests):
                response, outcome = client.call_with_promise(
                    "pm", [P("quantity('stock') >= 1")], 10,
                    "merchant", "sell", {"product": "stock", "quantity": 1},
                )
                if response.accepted:
                    granted += 1
                    assert outcome is not None and outcome.success
                client.release("pm", response.promise_id)
                deployment.manager.vacuum()
            return {
                "requests": requests,
                "granted": granted,
                "dropped replies": transport.metrics.value(
                    "transport.dropped_replies"
                ),
                "duplicates served": server.metrics.value(
                    "server.duplicates_served"
                ),
                "active promises left": len(
                    deployment.manager.active_promises()
                ),
            }
        finally:
            transport.close()
            threaded.stop()

    def full_report():
        inproc = sweep_transport(make_inproc)
        network = sweep_transport(make_network)
        codec_ms = codec_stage_ms()
        shape_rows = [
            {
                "message kind": kind,
                "in-proc msg/s": inproc[kind]["msg/s"],
                "tcp msg/s": network[kind]["msg/s"],
                "codec (ms)": codec_ms,
                "wire+dispatch (ms)": max(
                    0.0,
                    network[kind]["latency (ms)"]
                    - inproc[kind]["latency (ms)"],
                ),
                "total tcp (ms)": network[kind]["latency (ms)"],
            }
            for kind in SHAPES
        ]
        return shape_rows, fault_injection_run()

    shape_rows, fault_row = run_once(benchmark, full_report)
    print_table(
        "F2-net: pipeline throughput, in-process vs loopback TCP",
        ["message kind", "in-proc msg/s", "tcp msg/s", "codec (ms)",
         "wire+dispatch (ms)", "total tcp (ms)"],
        shape_rows,
    )
    print_table(
        "F2-net: fault injection (dropped replies) through the retry path",
        ["requests", "granted", "dropped replies", "duplicates served",
         "active promises left"],
        [fault_row],
    )
    # Acceptance: every request succeeded over TCP (no availability
    # regressions) and redelivery granted nothing twice.
    assert all(row["tcp msg/s"] > 0 for row in shape_rows)
    assert fault_row["granted"] == fault_row["requests"]
    assert fault_row["dropped replies"] > 0
    assert fault_row["active promises left"] == 0
