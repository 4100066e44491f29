"""F5 — resilience: goodput under overload, breakers vs a dead shard.

Quantifies the `repro.resilience` tentpole with two sweeps:

* ``test_report_f5_overload`` — a TCP-served promise manager whose
  isolation check is made expensive by a standing background promise
  population, driven by enough closed-loop clients (each with an
  end-to-end deadline) to offer at least 2x its measured capacity.
  With **shedding off** the server grinds through requests whose
  callers have already timed out — classic congestion collapse, goodput
  near zero.  With **shedding on** (token bucket + bounded queue) the
  surplus is refused instantly with a retryable ``overloaded`` fault,
  admitted requests finish well inside their deadlines, and goodput
  holds near the admitted rate.  The acceptance bar: the shedding
  server sustains *higher goodput* than the unprotected one at >= 2x
  saturation.
* ``test_report_f5_breaker`` — a three-shard TCP fleet with one shard
  dead, serving a round-robin single-shard workload through a gateway
  whose transports retry with backoff.  Without breakers every request
  homed on the dead shard burns its full retry schedule (attempts x
  backoff sleeps); with per-shard breakers the first failures trip the
  circuit and everything after fails fast at the gateway.  The
  acceptance bar: same successes on live shards, while the dead shard
  sees a small constant number of attempts instead of one full retry
  budget per doomed request.

The overload sweep self-calibrates: it measures the server's
single-client capacity first and sizes the worker pool as
``ceil(2.2 x capacity x deadline)``, so the >= 2x saturation claim
holds by construction on fast and slow machines alike.

``python -m benchmarks.bench_f5_resilience`` runs both sweeps once and
emits JSON (the CI artifact); under pytest-benchmark the same sweeps
print tables.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time

from repro.cluster import ClusterGateway, provision_products
from repro.core.parser import P
from repro.net import NetworkTransport, PromiseServer, ThreadedServer
from repro.protocol.client import PromiseClient
from repro.protocol.errors import (
    Overloaded,
    ProtocolError,
    RequestTimeout,
    TransportFailure,
)
from repro.protocol.retry import RetryPolicy
from repro.replication import ReplicatedFleet
from repro.resilience import AdmissionController, CircuitBreaker
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService

from .common import print_table, run_once

BACKGROUND = 250  # standing promises: what makes each check expensive
STOCK = 1_000_000
DEADLINE = 0.25  # end-to-end client budget per request, seconds
RUN_SECONDS = 6.0
CALIBRATION_REQUESTS = 20
MAX_WORKERS = 32
DURATION = 1_000_000  # promise duration in (logical) ticks: never expires

CLUSTER_PRODUCTS = 9
CLUSTER_REQUESTS = 30
RETRY_ATTEMPTS = 4


# --------------------------------------------------------------- overload


def build_overloaded_deployment(background: int = BACKGROUND) -> Deployment:
    """A merchant deployment whose isolation check costs real time.

    Every grant sweeps the live promise set; ``background`` long-lived
    promises put a floor under per-request cost, which is what lets a
    bounded worker pool overload the server.
    """
    deployment = Deployment(name="shop")
    deployment.add_service(MerchantService())
    deployment.use_pool_strategy("widgets")
    with deployment.seed() as txn:
        deployment.resources.create_pool(txn, "widgets", STOCK)
    for index in range(background):
        deployment.manager.request_promise_for(
            [P("quantity('widgets') >= 1")],
            DURATION,
            client_id=f"background-{index}",
        )
    return deployment


def calibrate(background: int = BACKGROUND) -> float:
    """Single-client capacity (grant+release round trips per second)."""
    deployment = build_overloaded_deployment(background)
    try:
        client = deployment.client("calibrate")
        start = time.perf_counter()
        for _ in range(CALIBRATION_REQUESTS):
            response = client.request_promise(
                "shop", [P("quantity('widgets') >= 1")], DURATION
            )
            assert response.accepted
            client.release("shop", response.promise_id)
        elapsed = time.perf_counter() - start
    finally:
        deployment.close()
    return CALIBRATION_REQUESTS / elapsed


def _worker_count(base_rps: float, deadline: float) -> int:
    """Enough closed-loop workers to offer >= 2x the measured capacity.

    A worker bounded by ``deadline`` per request offers at least
    ``1/deadline`` requests per second even against a saturated server,
    so ``2.2 x base_rps x deadline`` workers offer >= 2.2x capacity.
    """
    return max(8, min(MAX_WORKERS, math.ceil(2.2 * base_rps * deadline)))


def overload_run(
    shed: bool,
    base_rps: float,
    run_seconds: float = RUN_SECONDS,
    deadline: float = DEADLINE,
    background: int = BACKGROUND,
) -> dict[str, object]:
    """One overload arm: closed-loop workers against one TCP server."""
    workers = _worker_count(base_rps, deadline)
    admission = None
    if shed:
        # Admit half the measured capacity: comfortably sustainable, so
        # everything admitted finishes inside its deadline.
        admission = AdmissionController(
            max_queue=8,
            rate=max(2.0, 0.5 * base_rps),
            burst=max(2.0, 0.1 * base_rps),
        )
    deployment = build_overloaded_deployment(background)
    server = PromiseServer(admission=admission)
    server.register("shop", deployment.endpoint.handle)
    totals = {
        "attempts": 0, "successes": 0, "shed_faults": 0,
        "timeouts": 0, "rejected": 0,
    }
    lock = threading.Lock()
    begin = threading.Barrier(workers + 1)

    def worker(index: int, address: tuple[str, int], end_at: float) -> None:
        local = dict.fromkeys(totals, 0)
        with NetworkTransport(
            address, timeout=deadline, retry=RetryPolicy.none()
        ) as transport:
            client = PromiseClient(
                f"w{index}",
                transport,
                retry=RetryPolicy(
                    max_attempts=3, base_delay=0.05, max_delay=0.1
                ),
                deadline=deadline,
            )
            begin.wait()
            while time.monotonic() < end_at:
                local["attempts"] += 1
                try:
                    response = client.request_promise(
                        "shop", [P("quantity('widgets') >= 1")], DURATION
                    )
                except Overloaded:
                    local["shed_faults"] += 1
                except (RequestTimeout, TransportFailure):
                    local["timeouts"] += 1
                except ProtocolError:
                    local["rejected"] += 1
                else:
                    if response.accepted:
                        local["successes"] += 1
                        try:
                            client.release("shop", response.promise_id)
                        except (ProtocolError, TransportFailure):
                            pass  # a leaked promise just slows later checks
                    else:
                        local["rejected"] += 1
        with lock:
            for key, value in local.items():
                totals[key] += value

    try:
        with ThreadedServer(server) as address:
            end_at = time.monotonic() + run_seconds + 0.2
            threads = [
                threading.Thread(
                    target=worker, args=(index, address, end_at), daemon=True
                )
                for index in range(workers)
            ]
            for thread in threads:
                thread.start()
            begin.wait()
            start = time.perf_counter()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
    finally:
        deployment.close()
    offered = totals["attempts"] / elapsed
    return {
        "shed": shed,
        "workers": workers,
        "elapsed_s": elapsed,
        "offered_rps": offered,
        "saturation": offered / base_rps,
        "goodput_rps": totals["successes"] / elapsed,
        "successes": totals["successes"],
        "shed_faults": totals["shed_faults"],
        "timeouts": totals["timeouts"],
        "rejected": totals["rejected"],
        "server_shed": server.stats.shed,
        "server_deadline_rejected": server.stats.deadline_rejected,
    }


def overload_sweep(
    run_seconds: float = RUN_SECONDS, background: int = BACKGROUND
) -> list[dict[str, object]]:
    """Shedding off vs on at the same (>= 2x) offered load."""
    base_rps = calibrate(background)
    rows = []
    for shed in (False, True):
        row = overload_run(
            shed, base_rps, run_seconds=run_seconds, background=background
        )
        rows.append({"base_rps": base_rps, **row})
    return rows


# ---------------------------------------------------------------- breaker


def breaker_run(use_breaker: bool) -> dict[str, object]:
    """Round-robin workload over a 3-shard fleet with one shard dead."""
    fleet = ReplicatedFleet(
        3, replicas=0, provision=provision_products(CLUSTER_PRODUCTS, STOCK)
    )
    with fleet:
        products = [f"product-{n}" for n in range(CLUSTER_PRODUCTS)]
        # Kill the shard owning the most pools: the more doomed
        # requests, the starker the retry-budget contrast.
        placement = fleet.ring.placement(products)
        victim = max(placement, key=lambda shard: len(placement[shard]))
        dead_products = len(placement[victim])
        fleet.kill(victim)
        transports = [
            NetworkTransport(
                address,
                timeout=0.3,
                retry=RetryPolicy(
                    max_attempts=RETRY_ATTEMPTS,
                    base_delay=0.05,
                    max_delay=0.2,
                ),
            )
            for address in fleet.addresses()
        ]
        breakers = None
        if use_breaker:
            breakers = [
                CircuitBreaker(
                    f"f5-s{index}", failure_threshold=2, reset_timeout=60.0
                )
                for index in range(3)
            ]
        gateway = ClusterGateway(
            transports, ring=fleet.ring, breakers=breakers
        )
        client = PromiseClient("bench", gateway, retry=RetryPolicy.none())
        successes = failures = 0
        start = time.perf_counter()
        for index in range(CLUSTER_REQUESTS):
            product = products[index % CLUSTER_PRODUCTS]
            try:
                response = client.request_promise(
                    "shop", [P(f"quantity('{product}') >= 1")], DURATION
                )
                if response.accepted:
                    successes += 1
                    client.release("shop", response.promise_id)
                else:
                    failures += 1
            except ProtocolError:  # includes CircuitOpen, TransportFailure
                failures += 1
        elapsed = time.perf_counter() - start
        dead_metrics = transports[victim].client.metrics
        dead_attempts = int(
            dead_metrics.value("client.requests")
            + dead_metrics.value("client.retries")
        )
        row = {
            "breaker": use_breaker,
            "requests": CLUSTER_REQUESTS,
            "dead_shard_products": dead_products,
            "successes": successes,
            "failures": failures,
            "elapsed_s": elapsed,
            "dead_shard_attempts": dead_attempts,
            "fast_failures": gateway.stats.breaker_fast_failures,
        }
        for transport in transports:
            transport.close()
        return row


def breaker_sweep() -> list[dict[str, object]]:
    """The dead-shard workload without, then with, per-shard breakers."""
    return [breaker_run(False), breaker_run(True)]


# ------------------------------------------------------------------ tests


def test_report_f5_overload(benchmark):
    """Shedding sustains goodput at >= 2x saturation; no-shed collapses."""
    rows = run_once(benchmark, overload_sweep)
    print_table(
        "F5: goodput under overload, shedding off vs on "
        f"({BACKGROUND} background promises, {DEADLINE * 1000:.0f}ms deadlines)",
        ["shed", "workers", "saturation", "offered_rps", "goodput_rps",
         "successes", "shed_faults", "timeouts", "server_shed"],
        rows,
    )
    unprotected, protected = rows
    assert not unprotected["shed"] and protected["shed"]
    for row in rows:
        assert row["saturation"] >= 2.0, (
            f"offered load only {row['saturation']:.2f}x capacity; "
            "the overload claim needs >= 2x"
        )
    assert protected["goodput_rps"] > unprotected["goodput_rps"], (
        "shedding must sustain higher goodput than the unprotected path"
    )
    assert protected["server_shed"] > 0


def test_report_f5_breaker(benchmark):
    """Breakers stop a dead shard from consuming the retry budget."""
    rows = run_once(benchmark, breaker_sweep)
    print_table(
        "F5: single-shard-dead workload, breakers off vs on "
        f"(retry budget {RETRY_ATTEMPTS} attempts/request)",
        ["breaker", "requests", "dead_shard_products", "successes",
         "failures", "elapsed_s", "dead_shard_attempts", "fast_failures"],
        rows,
    )
    without, with_breaker = rows
    assert not without["breaker"] and with_breaker["breaker"]
    # Same workload completes either way: every live-shard request
    # succeeds whether or not the dead shard has a breaker in front.
    assert with_breaker["successes"] == without["successes"] > 0
    # Without a breaker every doomed request burns its whole retry
    # schedule against the dead shard; with one, the circuit trips after
    # its threshold and everything later fails fast at the gateway.
    assert with_breaker["dead_shard_attempts"] < without["dead_shard_attempts"]
    assert with_breaker["fast_failures"] > 0
    assert without["fast_failures"] == 0


# ------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    """Run both sweeps once and emit the F5 JSON document."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="bench_f5_resilience",
        description="F5: resilience benchmark (JSON output)",
    )
    parser.add_argument("--run-seconds", type=float, default=RUN_SECONDS,
                        help="wall-clock length of each overload arm")
    parser.add_argument("--background", type=int, default=BACKGROUND,
                        help="standing promises slowing each check")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write JSON here instead of stdout")
    args = parser.parse_args(argv)

    overload = overload_sweep(args.run_seconds, args.background)
    breaker = breaker_sweep()

    unprotected, protected = overload
    without, with_breaker = breaker
    document = {
        "experiment": "F5",
        "background_promises": args.background,
        "deadline_s": DEADLINE,
        "overload": overload,
        "breaker": breaker,
        "acceptance": {
            "saturation_min": min(row["saturation"] for row in overload),
            "goodput_unprotected_rps": unprotected["goodput_rps"],
            "goodput_shedding_rps": protected["goodput_rps"],
            "shedding_wins": (
                protected["goodput_rps"] > unprotected["goodput_rps"]
            ),
            "dead_shard_attempts_without_breaker":
                without["dead_shard_attempts"],
            "dead_shard_attempts_with_breaker":
                with_breaker["dead_shard_attempts"],
            "breaker_spares_retry_budget": (
                with_breaker["dead_shard_attempts"]
                < without["dead_shard_attempts"]
            ),
            "same_successes": (
                with_breaker["successes"] == without["successes"]
            ),
        },
    }
    text = json.dumps(document, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    acceptance = document["acceptance"]
    ok = (
        acceptance["saturation_min"] >= 2.0
        and acceptance["shedding_wins"]
        and acceptance["breaker_spares_retry_budget"]
        and acceptance["same_successes"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
