"""F6 — failover: MTTR vs heartbeat interval, goodput vs kill/restart.

Quantifies the `repro.replication` tentpole with two sweeps:

* ``test_report_f6_mttr`` — a two-group replicated fleet under a
  closed-loop workload homed on one shard.  The shard's primary is
  killed; the :class:`~repro.replication.fleet.HeartbeatDetector`
  misses ``MISS_THRESHOLD`` pings, promotes the follower, remaps the
  gateway, and the workload's next grant succeeds against the new
  primary without any operator action.  MTTR (kill to first
  client-observed success) is measured across heartbeat intervals; the
  acceptance bar is recovery within the configured budget of
  ``interval x (miss_threshold + 1)`` plus a fixed promotion grace
  (recovery replay, remap, breaker reset), with **zero double grants**
  and **zero orphaned promises** at the end.
* ``test_report_f6_goodput`` — the same kill under a round-robin
  workload over every product, replicated fleet (automatic failover)
  vs the PR 3 baseline (the same fleet with ``replicas=0``, where an
  operator restarts the shard after ``OPERATOR_DELAY_S``).  Goodput
  and the longest success gap ("downtime") are compared; the
  acceptance bar is the replicated fleet's downtime beating the
  baseline's operator-bound downtime, both fleets audit-clean.

In-doubt grants (client retry budget spent while the primary died) are
drained the same way the chaos nemesis drains them: redeliver the
*same* wire message once the fleet is healthy — a read against the
reply journal, not a second grant — and release whatever id it
reveals.  Redelivering each in-doubt message twice and watching for
two distinct ids is also exactly the double-grant probe.

``python -m benchmarks.bench_f6_failover`` runs both sweeps once and
emits JSON (the CI artifact); under pytest-benchmark the same sweeps
print tables.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import replace

from repro.cluster import provision_products
from repro.core.parser import P
from repro.faults.nemesis import audit_fleet
from repro.protocol.client import PromiseClient
from repro.protocol.errors import ProtocolError, RequestTimeout, TransportFailure
from repro.protocol.messages import Message
from repro.protocol.retry import RetryPolicy
from repro.replication import HeartbeatDetector, ReplicatedFleet
from repro.resilience import CircuitOpen

from .common import print_table, run_once

STOCK = 1_000
PRODUCTS = 4
DURATION = 1_000_000  # logical ticks: never expires mid-benchmark

MISS_THRESHOLD = 3
MTTR_INTERVALS = (0.05, 0.1, 0.2)
#: Fixed allowance on top of the heartbeat budget for the promotion
#: itself: recovery replay over the shipped WAL, gateway remap, breaker
#: reset and the first post-remap round trip.
PROMOTION_GRACE_S = 2.0
MTTR_TIMEOUT_S = 20.0

RUN_SECONDS = 6.0
KILL_AT_S = 1.5
#: PR 3 baseline: how long the simulated operator takes to notice the
#: dead shard and run ``restart``.  Deliberately modest — real pagers
#: are minutes — so the comparison is conservative.
OPERATOR_DELAY_S = 2.0
GOODPUT_HEARTBEAT_S = 0.1

_CLIENT_ERRORS = (TransportFailure, RequestTimeout, ProtocolError)


class _Tap:
    """Client-side tap remembering the last message put on the wire.

    Same idiom as the nemesis: when a grant fails client-side the
    server may still have granted, and only redelivering the *same*
    message id can reveal the outcome (section 6 redelivery semantics).
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.last: Message | None = None

    def send(self, message: Message):
        self.last = message
        return self.inner.send(message)


def _grant_once(
    client: PromiseClient,
    tap: _Tap,
    product: str,
    in_doubt: list[Message],
) -> str | None:
    """One grant attempt; failures are captured for the drain."""
    try:
        response = client.request_promise(
            "shop", [P(f"quantity('{product}') >= 1")], DURATION
        )
    except CircuitOpen:
        # The breaker fast-failed this message before it reached the
        # wire: it cannot have been executed, so it is not in doubt.
        return None
    except _CLIENT_ERRORS:
        last = tap.last
        if last is not None and last.promise_requests:
            in_doubt.append(replace(last, deadline=None))
        return None
    if response.accepted and response.promise_id:
        return response.promise_id
    return None


def _release_all(client: PromiseClient, held: list[str]) -> int:
    """Release every held id, retrying; returns ids left unreleased."""
    remaining = 0
    for promise_id in held:
        done = False
        for _ in range(5):
            try:
                client.release("shop", promise_id)
                done = True
                break
            except _CLIENT_ERRORS:
                time.sleep(0.1)
        if not done:
            remaining += 1
    held.clear()
    return remaining


def _drain_in_doubt(
    gateway, client: PromiseClient, in_doubt: list[Message]
) -> tuple[int, int]:
    """Redeliver each in-doubt message twice against the healed fleet.

    Returns ``(double_grants, unresolved)``.  Two redeliveries of the
    same message id must reveal the same promise id — the reply journal
    survived the failover — or the fleet granted twice across epochs.
    """
    double_grants = unresolved = 0
    for message in in_doubt:
        revealed: list[str] = []
        for _ in range(2):
            reply = None
            for _ in range(4):
                try:
                    reply = gateway.send(message)
                    break
                except _CLIENT_ERRORS:
                    time.sleep(0.1)
            if reply is None:
                unresolved += 1
                continue
            for response in reply.promise_responses:
                if response.accepted and response.promise_id:
                    revealed.append(response.promise_id)
        if len(set(revealed)) > 1:
            double_grants += 1
        for promise_id in set(revealed):
            _release_all(client, [promise_id])
    in_doubt.clear()
    return double_grants, unresolved


def _victim_shard(fleet) -> tuple[int, list[str]]:
    """The shard owning the most products, and its products."""
    products = [f"product-{n}" for n in range(PRODUCTS)]
    placement = fleet.ring.placement(products)
    victim = max(placement, key=lambda shard: len(placement[shard]))
    return victim, sorted(placement[victim])


# ------------------------------------------------------------------ MTTR


def mttr_run(heartbeat_interval: float) -> dict[str, object]:
    """Kill a primary under load; time the automatic recovery."""
    fleet = ReplicatedFleet(
        2, replicas=1, provision=provision_products(PRODUCTS, STOCK)
    )
    with fleet:
        victim, victim_products = _victim_shard(fleet)
        product = victim_products[0]
        detector = HeartbeatDetector(
            fleet, interval=heartbeat_interval, miss_threshold=MISS_THRESHOLD
        )
        gateway = fleet.gateway(
            timeout=0.75,
            retry=RetryPolicy(max_attempts=2, base_delay=0.05, max_delay=0.1),
            breaker_failures=4,
            breaker_reset=0.2,
        )
        tap = _Tap(gateway)
        client = PromiseClient("bench-f6", tap, retry=RetryPolicy.none())
        held: list[str] = []
        in_doubt: list[Message] = []
        detector.start()
        try:
            # Warm: one full round trip proves the pre-kill path.
            warm = _grant_once(client, tap, product, in_doubt)
            assert warm is not None, "pre-kill grant must succeed"
            _release_all(client, [warm])

            killed_at = time.perf_counter()
            fleet.kill(victim)
            promote_s = mttr_s = None
            attempts = 0
            while time.perf_counter() - killed_at < MTTR_TIMEOUT_S:
                if promote_s is None and fleet.epoch(victim) > 0:
                    promote_s = time.perf_counter() - killed_at
                attempts += 1
                granted = _grant_once(client, tap, product, in_doubt)
                if granted is not None:
                    mttr_s = time.perf_counter() - killed_at
                    held.append(granted)
                    break
                time.sleep(0.02)  # probe cadence, not a busy spin
            if promote_s is None and fleet.epoch(victim) > 0:
                promote_s = time.perf_counter() - killed_at
        finally:
            detector.stop()
        # Heal completely (rejoin the corpse), then drain and audit.
        fleet.restart(victim)
        unreleased = _release_all(client, held)
        double_grants, unresolved = _drain_in_doubt(gateway, client, in_doubt)
        gateway.flush_pending()
        violations = audit_fleet(fleet, STOCK)
        gateway.close()
        budget_s = (
            heartbeat_interval * (MISS_THRESHOLD + 1) + PROMOTION_GRACE_S
        )
        return {
            "heartbeat_s": heartbeat_interval,
            "miss_threshold": MISS_THRESHOLD,
            "attempts": attempts,
            "promote_s": promote_s if promote_s is not None else -1.0,
            "mttr_s": mttr_s if mttr_s is not None else -1.0,
            "budget_s": budget_s,
            "within_budget": mttr_s is not None and mttr_s <= budget_s,
            "double_grants": double_grants,
            "unresolved": unresolved + unreleased,
            "violations": len(violations),
            "violation_detail": violations,
        }


def mttr_sweep(
    intervals: tuple[float, ...] = MTTR_INTERVALS,
) -> list[dict[str, object]]:
    """Automatic recovery time across heartbeat intervals."""
    return [mttr_run(interval) for interval in intervals]


# --------------------------------------------------------------- goodput


def goodput_run(replicas: int) -> dict[str, object]:
    """Round-robin workload across all products through one kill.

    ``replicas=0`` is the PR 3 posture: the dead shard comes back only
    when the simulated operator runs ``restart`` after
    ``OPERATOR_DELAY_S``.  With followers the heartbeat detector
    promotes one with no operator in the loop.
    """
    replicated = replicas > 0
    products = [f"product-{n}" for n in range(PRODUCTS)]
    fleet = ReplicatedFleet(
        2, replicas=replicas, provision=provision_products(PRODUCTS, STOCK)
    )
    with fleet:
        victim, _ = _victim_shard(fleet)
        detector = None
        if replicated:
            detector = HeartbeatDetector(
                fleet,
                interval=GOODPUT_HEARTBEAT_S,
                miss_threshold=MISS_THRESHOLD,
            )
            detector.start()
        gateway = fleet.gateway(
            timeout=0.75,
            retry=RetryPolicy(max_attempts=2, base_delay=0.05, max_delay=0.1),
            breaker_failures=4,
            breaker_reset=0.2,
        )
        tap = _Tap(gateway)
        client = PromiseClient("bench-f6", tap, retry=RetryPolicy.none())
        held: list[str] = []
        in_doubt: list[Message] = []
        success_times: list[float] = []
        failures = 0

        start = time.perf_counter()
        kill_time: list[float] = []

        def chaos() -> None:
            time.sleep(KILL_AT_S)
            kill_time.append(time.perf_counter())
            fleet.kill(victim)
            if not replicated:
                time.sleep(OPERATOR_DELAY_S)
                fleet.restart(victim)

        chaos_thread = threading.Thread(target=chaos, daemon=True)
        chaos_thread.start()
        index = 0
        while time.perf_counter() - start < RUN_SECONDS:
            product = products[index % PRODUCTS]
            index += 1
            granted = _grant_once(client, tap, product, in_doubt)
            if granted is None:
                failures += 1
                time.sleep(0.02)  # back off, don't busy-spin the outage
                continue
            success_times.append(time.perf_counter())
            try:
                client.release("shop", granted)
            except _CLIENT_ERRORS:
                held.append(granted)
        chaos_thread.join()
        elapsed = time.perf_counter() - start
        if detector is not None:
            detector.stop()
        if replicated:
            fleet.restart(victim)  # rejoin the corpse as a follower

        killed_at = kill_time[0]
        post_kill = [t for t in success_times if t >= killed_at]
        mttr_s = (post_kill[0] - killed_at) if post_kill else -1.0
        # Longest success gap that overlaps the outage window.
        edges = (
            [start] + success_times + [start + elapsed]
        )
        downtime_s = max(
            later - earlier for earlier, later in zip(edges, edges[1:])
        )
        unreleased = _release_all(client, held)
        double_grants, unresolved = _drain_in_doubt(gateway, client, in_doubt)
        gateway.flush_pending()
        violations = audit_fleet(fleet, STOCK)
        gateway.close()
        return {
            "mode": "replicated" if replicated else "kill/restart",
            "elapsed_s": elapsed,
            "successes": len(success_times),
            "failures": failures,
            "goodput_rps": len(success_times) / elapsed,
            "mttr_s": mttr_s,
            "downtime_s": downtime_s,
            "double_grants": double_grants,
            "unresolved": unresolved + unreleased,
            "violations": len(violations),
            "violation_detail": violations,
        }


def goodput_sweep() -> list[dict[str, object]]:
    """The same kill, operator-bound vs heartbeat-bound recovery."""
    return [goodput_run(0), goodput_run(1)]


# ------------------------------------------------------------- reporting

MTTR_COLUMNS = (
    "heartbeat_s",
    "miss_threshold",
    "attempts",
    "promote_s",
    "mttr_s",
    "budget_s",
    "within_budget",
    "double_grants",
    "violations",
)

GOODPUT_COLUMNS = (
    "mode",
    "successes",
    "failures",
    "goodput_rps",
    "mttr_s",
    "downtime_s",
    "double_grants",
    "violations",
)


def _assert_clean(rows: list[dict[str, object]]) -> None:
    for row in rows:
        assert row["double_grants"] == 0, row
        assert row["violations"] == 0, row["violation_detail"]
        assert row["unresolved"] == 0, row


def test_report_f6_mttr(benchmark) -> None:
    rows = run_once(benchmark, mttr_sweep)
    print_table(
        "F6 MTTR vs heartbeat interval (automatic failover)",
        MTTR_COLUMNS,
        rows,
    )
    _assert_clean(rows)
    for row in rows:
        assert row["within_budget"], row


def test_report_f6_goodput(benchmark) -> None:
    rows = run_once(benchmark, goodput_sweep)
    print_table(
        "F6 goodput through one primary kill (operator vs heartbeat)",
        GOODPUT_COLUMNS,
        rows,
    )
    _assert_clean(rows)
    baseline, replicated = rows
    assert replicated["downtime_s"] < baseline["downtime_s"], rows


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", metavar="PATH", default=None, help="write JSON here"
    )
    args = parser.parse_args(argv)

    mttr_rows = mttr_sweep()
    print_table(
        "F6 MTTR vs heartbeat interval (automatic failover)",
        MTTR_COLUMNS,
        mttr_rows,
    )
    goodput_rows = goodput_sweep()
    print_table(
        "F6 goodput through one primary kill (operator vs heartbeat)",
        GOODPUT_COLUMNS,
        goodput_rows,
    )
    baseline, replicated = goodput_rows
    clean = all(
        row["double_grants"] == 0
        and row["violations"] == 0
        and row["unresolved"] == 0
        for row in mttr_rows + goodput_rows
    )
    document = {
        "experiment": "F6",
        "mttr": mttr_rows,
        "goodput": goodput_rows,
        "acceptance": {
            "auto_recovery_within_budget": all(
                row["within_budget"] for row in mttr_rows
            ),
            "replicated_beats_operator": (
                replicated["downtime_s"] < baseline["downtime_s"]
            ),
            "zero_double_grants_zero_orphans": clean,
        },
    }
    rendered = json.dumps(document, indent=2, default=str)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    else:
        print(rendered)
    return 0 if all(document["acceptance"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
