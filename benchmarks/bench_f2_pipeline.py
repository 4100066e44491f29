"""F2 — Figure 2: the prototype pipeline.

Regenerates the prototype architecture as a measured pipeline: client →
(XML codec) → transport → promise manager message split → application →
resource manager → post-action promise check → commit/rollback.  Reports
per-message-kind throughput and wire size for the three message shapes of
§6/§8 (promise-only, action-only, combined promise+action), plus the cost
of the post-action consistency check as active promises accumulate.
"""

from __future__ import annotations

from repro.core.parser import P
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService

from .common import print_table, run_once


def build(stock: int = 10_000_000) -> Deployment:
    deployment = Deployment(name="pm")
    deployment.add_service(MerchantService())
    deployment.use_pool_strategy("stock")
    with deployment.seed() as txn:
        deployment.resources.create_pool(txn, "stock", stock)
    return deployment


def test_bench_promise_only_message(benchmark):
    """Grant+release round trip: the pure Promise part of the pipeline."""
    deployment = build()
    client = deployment.client("client")

    def round_trip():
        response = client.request_promise(
            "pm", [P("quantity('stock') >= 1")], 10
        )
        client.release("pm", response.promise_id)
        deployment.manager.vacuum()  # steady state: drop the audit row

    benchmark(round_trip)


def test_bench_action_only_message(benchmark):
    """Unprotected application request through the split + check."""
    deployment = build()
    client = deployment.client("client")
    benchmark(
        client.call, "pm", "merchant", "sell", {"product": "stock", "quantity": 1}
    )


def test_bench_combined_message(benchmark):
    """§8's combined Promise+Action message, the full pipeline."""
    deployment = build()
    client = deployment.client("client")

    def combined():
        response, outcome = client.call_with_promise(
            "pm",
            [P("quantity('stock') >= 1")],
            10,
            "merchant",
            "sell",
            {"product": "stock", "quantity": 1},
        )
        client.release("pm", response.promise_id)
        deployment.manager.vacuum()  # steady state: drop the audit row

    benchmark(combined)


def test_bench_codec_roundtrip(benchmark):
    """XML encode+decode of a combined envelope (the wire stage alone)."""
    from repro.core.promise import PromiseRequest
    from repro.protocol.messages import ActionPayload, Message
    from repro.protocol.soap import SoapCodec

    codec = SoapCodec()
    message = Message(
        message_id="m1",
        sender="client",
        recipient="pm",
        promise_requests=(
            PromiseRequest(
                "req-1",
                (P("quantity('stock') >= 5"),
                 P("match('rooms', floor == 5 and view == true, count=2)")),
                30,
            ),
        ),
        action=ActionPayload("merchant", "sell", {"product": "stock", "quantity": 1}),
    )
    benchmark(lambda: codec.decode(codec.encode(message)))


def test_report_f2(benchmark):
    """Pipeline report: messages/sec and bytes for each §6 message shape,
    and the post-action check cost as the promise table grows."""

    def sweep():
        import time

        rows = []
        for kind in ("promise-only", "action-only", "combined"):
            deployment = build()
            client = deployment.client("client")
            count = 300
            start = time.perf_counter()
            for __ in range(count):
                if kind == "promise-only":
                    response = client.request_promise(
                        "pm", [P("quantity('stock') >= 1")], 10
                    )
                    client.release("pm", response.promise_id)
                elif kind == "action-only":
                    client.call(
                        "pm", "merchant", "sell",
                        {"product": "stock", "quantity": 1},
                    )
                else:
                    response, __outcome = client.call_with_promise(
                        "pm", [P("quantity('stock') >= 1")], 10,
                        "merchant", "sell", {"product": "stock", "quantity": 1},
                    )
                    client.release("pm", response.promise_id)
                deployment.manager.vacuum()
            elapsed = time.perf_counter() - start
            metrics = deployment.transport.metrics
            sent = metrics.value("transport.sent")
            rows.append(
                {
                    "message kind": kind,
                    "requests": count,
                    "msg/s": sent / elapsed,
                    "avg bytes/envelope": metrics.value("transport.bytes_on_wire")
                    / max(1, 2 * sent),
                }
            )
        return rows

    def check_growth():
        import time

        rows = []
        deployment = build()
        client = deployment.client("client")
        for active in (0, 10, 50, 200):
            while len(deployment.manager.active_promises()) < active:
                client.request_promise("pm", [P("quantity('stock') >= 1")], 10_000)
            count = 50
            start = time.perf_counter()
            for __ in range(count):
                client.call(
                    "pm", "merchant", "sell", {"product": "stock", "quantity": 1}
                )
            per_action = (time.perf_counter() - start) / count
            rows.append(
                {
                    "active promises": active,
                    "action latency (ms)": per_action * 1e3,
                }
            )
        return rows

    shape_rows = run_once(benchmark, sweep)
    print_table(
        "F2: pipeline throughput by message shape",
        ["message kind", "requests", "msg/s", "avg bytes/envelope"],
        shape_rows,
    )
    growth_rows = check_growth()
    print_table(
        "F2: post-action check cost vs promise-table size (escrow pools)",
        ["active promises", "action latency (ms)"],
        growth_rows,
    )
    assert all(row["msg/s"] > 0 for row in shape_rows)
