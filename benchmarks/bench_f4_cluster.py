"""F4 — cluster scale-out: throughput vs shard count and cross-shard mix.

Quantifies the sharding tentpole.  When it was written a promise
manager's per-request cost was dominated by the isolation check, which
swept *every* live promise on that manager, so partitioning resources
over N shards divided the live set each request was checked against and
the scaling sweep carried a >= 3x acceptance bar from 1 to 4 shards.  The
per-resource promise index (DESIGN.md, "Promise-table indexes and the
narrowed check") gives a single manager that locality on its own — a
check reads the promises on the request's pools whatever else stands —
so the sweep no longer has a speed-up to find: its shards run in one
thread, and what is left is the gateway's routing cost.  The bar now
bounds that cost (:data:`ROUTING_FLOOR`): four shards must serve at least
half of what one serves.  Three sweeps:

* ``test_report_f4_scaling`` — single-shard workloads through one
  gateway, with a fixed population of background promises spread over
  the fleet: throughput vs shard count (1 → 8).  The acceptance bar is
  >= :data:`ROUTING_FLOOR` x from 1 to 4 shards.
* ``test_report_f4_cross_fraction`` — a fixed 4-shard fleet as the
  fraction of cross-shard (scatter-gather) requests rises: the price of
  composite grants, compensation bookkeeping and 2x message fan-out.
* ``test_report_f4_crash_audit`` — a socket-level fleet loses one shard
  mid cross-shard load; after restart + flush the per-shard doctor
  audit must be clean: zero orphaned sub-promises (recorded as data,
  not just asserted).

The scaling sweeps run the gateway over in-process shard transports so
the isolation check, not socket framing, is what is measured, and pin
the product pools round-robin onto the shards: raw consistent hashing
leaves 16 pools visibly skewed over 4 shards (the hot shard then sets
the pace), and evening the placement out is exactly what the partition
map's pinning API is for.  The crash-audit sweep uses the real TCP
fleet.  ``python -m benchmarks.bench_f4_cluster`` runs everything once
and emits JSON (the CI artifact); under pytest-benchmark the same
sweeps print tables.
"""

from __future__ import annotations

import json
import sys
import time

from repro.cluster import ClusterGateway, PartitionMap, provision_products
from repro.core.parser import P
from repro.protocol.client import PromiseClient
from repro.protocol.retry import RetryPolicy
from repro.replication import ReplicatedFleet
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService

from .common import print_table, run_once

POOLS = 16
STOCK = 100_000
BACKGROUND = 400  # live promises spread over the fleet before measuring
REQUESTS = 200  # measured request+release round trips per sweep point
SHARD_COUNTS = (1, 2, 4, 8)
CROSS_FRACTIONS = (0.0, 0.25, 0.5, 1.0)
DURATION = 1_000_000
#: Least 4-shard throughput, as a share of 1-shard throughput.  Repeated
#: sweeps read 0.7-1.4; a route that doubled a request's cost reads < 0.5.
ROUTING_FLOOR = 0.5


def build_cluster(shards: int):
    """A gateway over ``shards`` in-process deployments sharing a ring.

    Pools are pinned round-robin so every shard owns POOLS/shards of
    them — balanced placement is an operator decision the partition map
    supports, and it is what the scaling claim is about.
    """
    ring = PartitionMap(
        shards,
        pins={f"product-{n}": n % shards for n in range(POOLS)},
    )
    deployments: list[Deployment] = []
    for index in range(shards):
        deployment = Deployment(name="shop", manager_name=f"shop-s{index}")
        deployment.add_service(MerchantService())
        owned = [
            f"product-{number}"
            for number in range(POOLS)
            if ring.shard_of(f"product-{number}") == index
        ]
        if owned:
            deployment.use_pool_strategy(*owned)
            with deployment.seed() as txn:
                for pool_id in owned:
                    deployment.resources.create_pool(txn, pool_id, STOCK)
        deployments.append(deployment)
    gateway = ClusterGateway([d.transport for d in deployments], ring=ring)
    return ring, deployments, gateway


def seed_background(
    ring: PartitionMap, deployments: list[Deployment], count: int
) -> None:
    """``count`` long-lived promises, landed directly on their shards.

    The standing population: ``count / POOLS`` of them share a pool with
    each measured request and are what its isolation check loads, on any
    number of shards.
    """
    for index in range(count):
        pool = f"product-{index % POOLS}"
        deployments[ring.shard_of(pool)].manager.request_promise_for(
            [P(f"quantity('{pool}') >= 1")],
            DURATION,
            client_id=f"background-{index}",
        )


def cross_pairs(ring: PartitionMap) -> list[tuple[str, str]]:
    """Product pairs the ring places on different shards (cycled)."""
    by_shard = ring.placement(f"product-{n}" for n in range(POOLS))
    shards = sorted(shard for shard, owned in by_shard.items() if owned)
    if len(shards) < 2:
        return []
    left = sorted(by_shard[shards[0]])
    right = sorted(by_shard[shards[1]])
    return [
        (left[i % len(left)], right[i % len(right)])
        for i in range(max(len(left), len(right)))
    ]


def measure_throughput(
    gateway: ClusterGateway,
    ring: PartitionMap,
    requests: int,
    cross_fraction: float = 0.0,
) -> dict[str, object]:
    """``requests`` grant+release round trips; returns the sweep row.

    Cross-shard requests are interleaved deterministically at
    ``cross_fraction`` using a fractional accumulator, so every run of
    the sweep issues the identical request sequence.
    """
    client = PromiseClient("bench", gateway)
    pairs = cross_pairs(ring)
    accumulator = 0.0
    crossed = 0
    start = time.perf_counter()
    for index in range(requests):
        accumulator += cross_fraction
        if accumulator >= 1.0 and pairs:
            accumulator -= 1.0
            near, far = pairs[crossed % len(pairs)]
            crossed += 1
            predicates = [
                P(f"quantity('{near}') >= 1"),
                P(f"quantity('{far}') >= 1"),
            ]
        else:
            pool = f"product-{index % POOLS}"
            predicates = [P(f"quantity('{pool}') >= 1")]
        response = client.request_promise("shop", predicates, DURATION)
        assert response.accepted, response.reason
        faults = client.release("shop", response.promise_id)
        assert faults == ()
    elapsed = time.perf_counter() - start
    return {
        "requests": requests,
        "cross": crossed,
        "elapsed_s": elapsed,
        "throughput_rps": requests / elapsed,
        "mean_latency_ms": elapsed / requests * 1000,
    }


def scaling_sweep(
    requests: int = REQUESTS, background: int = BACKGROUND
) -> list[dict[str, object]]:
    """Single-shard workload throughput vs shard count."""
    rows = []
    for shards in SHARD_COUNTS:
        ring, deployments, gateway = build_cluster(shards)
        try:
            seed_background(ring, deployments, background)
            row = measure_throughput(gateway, ring, requests)
            row = {"shards": shards, "background": background, **row}
            rows.append(row)
        finally:
            gateway.close()
            for deployment in deployments:
                deployment.close()
    baseline = rows[0]["throughput_rps"]
    for row in rows:
        row["speedup"] = row["throughput_rps"] / baseline
    return rows


def cross_fraction_sweep(
    requests: int = REQUESTS,
    background: int = BACKGROUND,
    shards: int = 4,
) -> list[dict[str, object]]:
    """Throughput on a fixed fleet as the cross-shard fraction rises."""
    rows = []
    for fraction in CROSS_FRACTIONS:
        ring, deployments, gateway = build_cluster(shards)
        try:
            seed_background(ring, deployments, background)
            row = measure_throughput(
                gateway, ring, requests, cross_fraction=fraction
            )
            rows.append({
                "shards": shards,
                "cross_fraction": fraction,
                "composite_grants": gateway.metrics.value(
                    "gateway.composite_grants"
                ),
                **row,
            })
        finally:
            gateway.close()
            for deployment in deployments:
                deployment.close()
    return rows


def crash_audit(tmp_dir: str, shards: int = 3) -> dict[str, object]:
    """Kill one shard mid cross-shard load over TCP; audit the wreckage.

    The row this returns is F4's correctness datum: after the rejection,
    restart and one flush, no shard may hold an orphaned sub-promise.
    """
    fleet = ReplicatedFleet(
        shards,
        replicas=0,
        provision=provision_products(POOLS, STOCK),
        wal_dir=tmp_dir,
    )
    with fleet:
        pairs = cross_pairs(fleet.ring)
        near, far = pairs[0]
        victim = fleet.ring.shard_of(far)
        with fleet.gateway(timeout=1.0, retry=RetryPolicy.none()) as gateway:
            client = PromiseClient("bench", gateway, retry=RetryPolicy.none())
            granted = client.request_promise(
                "shop",
                [P(f"quantity('{near}') >= 1"), P(f"quantity('{far}') >= 1")],
                DURATION,
            )
            assert granted.accepted
            faults = client.release("shop", granted.promise_id)
            assert faults == ()

            fleet.kill(victim)
            rejected = client.request_promise(
                "shop",
                [P(f"quantity('{near}') >= 1"), P(f"quantity('{far}') >= 1")],
                DURATION,
            )
            queued = gateway.pending_compensations
            fleet.restart(victim)
            flushed = gateway.flush_pending()

            counts = fleet.live_promises()
            findings = fleet.audit()
            return {
                "shards": shards,
                "victim": victim,
                "rejected_while_down": not rejected.accepted,
                "compensations_queued": queued,
                "compensations_flushed": flushed,
                "orphaned_sub_promises": sum(counts.values()),
                "audit_clean": all(not found for found in findings.values()),
            }


def test_bench_gateway_fast_path(benchmark):
    """Micro-kernel: one single-shard grant+release through the gateway."""
    ring, deployments, gateway = build_cluster(4)
    try:
        seed_background(ring, deployments, 100)
        client = PromiseClient("bench", gateway)

        def roundtrip():
            response = client.request_promise(
                "shop", [P("quantity('product-0') >= 1")], DURATION
            )
            client.release("shop", response.promise_id)
            return response

        response = benchmark(roundtrip)
        assert response.accepted
    finally:
        gateway.close()
        for deployment in deployments:
            deployment.close()


def test_report_f4_scaling(benchmark):
    """Throughput vs shard count for single-shard workloads."""
    rows = run_once(benchmark, scaling_sweep)
    print_table(
        "F4: throughput vs shard count "
        f"({BACKGROUND} background promises, single-shard requests)",
        ["shards", "background", "requests", "throughput_rps",
         "mean_latency_ms", "speedup"],
        rows,
    )
    by_shards = {row["shards"]: row for row in rows}
    assert by_shards[4]["speedup"] >= ROUTING_FLOOR, (
        f"4 shards serve {by_shards[4]['speedup']:.2f}x of what 1 shard "
        f"serves, below the {ROUTING_FLOOR}x routing-cost bar"
    )


def test_report_f4_cross_fraction(benchmark):
    """Throughput on 4 shards as the cross-shard fraction rises."""
    rows = run_once(benchmark, cross_fraction_sweep)
    print_table(
        "F4: cross-shard fraction vs throughput (4 shards, "
        f"{BACKGROUND} background promises)",
        ["cross_fraction", "requests", "cross", "composite_grants",
         "throughput_rps", "mean_latency_ms"],
        rows,
    )
    assert all(row["cross"] > 0 for row in rows if row["cross_fraction"])


def test_report_f4_crash_audit(benchmark, tmp_path):
    """Shard crash mid cross-shard load: zero orphans after flush."""
    row = run_once(benchmark, lambda: crash_audit(str(tmp_path)))
    print_table(
        "F4: shard crash mid cross-shard request (TCP fleet, WAL-backed)",
        ["shards", "victim", "rejected_while_down", "compensations_queued",
         "compensations_flushed", "orphaned_sub_promises", "audit_clean"],
        [row],
    )
    assert row["orphaned_sub_promises"] == 0
    assert row["audit_clean"]


def main(argv: list[str] | None = None) -> int:
    """Run every sweep once and emit the F4 JSON document."""
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(
        prog="bench_f4_cluster",
        description="F4: cluster scale-out benchmark (JSON output)",
    )
    parser.add_argument("--requests", type=int, default=REQUESTS)
    parser.add_argument("--background", type=int, default=BACKGROUND)
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write JSON here instead of stdout")
    args = parser.parse_args(argv)

    scaling = scaling_sweep(args.requests, args.background)
    cross = cross_fraction_sweep(args.requests, args.background)
    with tempfile.TemporaryDirectory(prefix="repro-f4-") as tmp_dir:
        audit = crash_audit(tmp_dir)

    by_shards = {row["shards"]: row for row in scaling}
    document = {
        "experiment": "F4",
        "pools": POOLS,
        "requests": args.requests,
        "background_promises": args.background,
        "scaling": scaling,
        "cross_fraction": cross,
        "crash_audit": audit,
        "acceptance": {
            "speedup_1_to_4": by_shards[4]["speedup"],
            "speedup_1_to_4_ok": by_shards[4]["speedup"] >= ROUTING_FLOOR,
            "orphaned_sub_promises": audit["orphaned_sub_promises"],
            "audit_clean": audit["audit_clean"],
        },
    }
    text = json.dumps(document, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    ok = (
        document["acceptance"]["speedup_1_to_4_ok"]
        and audit["audit_clean"]
        and audit["orphaned_sub_promises"] == 0
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
