"""F8 — pipelined hot path vs the serial baseline.

The §6 grant loop of ``bench_f2_network``, rerun two ways over the same
loopback TCP hop and the same durable (fsync) write-ahead log:

* **serial** — one blocking ``NetworkTransport`` request at a time into
  a single-threaded server: grant, then release, then the next pair.
  This is the seed's hot path; each commit is one WAL barrier (one
  write, one fsync).
* **pipelined** — a ``PipelinedClient`` keeps a window of requests in
  flight on one connection while the server dispatches them across
  worker threads (disjoint product pools → disjoint keys); requests
  that finish while one WAL barrier is writing share the next, so one
  fsync hardens a batch with no timer involved.

The workload is grant+release *pairs* across 16 product pools so the
active promise set stays bounded — throughput then measures the
pipeline, not the expiry sweep.  A ``HistoryRecorder`` audits the
pipelined run's WAL: concurrency must not cost isolation.

Acceptance (ISSUE 10): at window ≥ 8 the pipelined path sustains at
least 2x the serial baseline's grants/sec, with zero history anomalies.
"""

from __future__ import annotations

import argparse
import json
import re
import time

from repro.core.parser import P
from repro.core.promise import PromiseRequest
from repro.faults.history import HistoryRecorder
from repro.net import (
    NetworkTransport,
    PipelinedClient,
    PromiseServer,
    ThreadedServer,
)
from repro.net.server import NET_REPLY_JOURNAL_TABLE
from repro.obs.metrics import MetricsRegistry
from repro.protocol.messages import Environment, Message
from repro.protocol.soap import SoapCodec
from repro.recovery import ReplyJournal
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService

from .common import print_table, run_once

CODEC = SoapCodec()
POOLS = tuple(f"product-{n}" for n in range(16))
WINDOWS = (1, 8, 16, 32)

# The promise id as it appears in an encoded reply envelope; pulling it
# with a regex keeps the pipelined driver off the codec's hot path.
PROMISE_ID = re.compile(rb'promise-response[^>]*\bpromise="([^"]+)"')

# Stand-in spliced into a pre-encoded release envelope once the grant
# reply names the real promise id.
PID_SLOT = b"__PROMISE_ID__"


def build_shop(dirname: str):
    """A merchant deployment over a durable (fsync) WAL."""
    shop = Deployment(name="shop", wal_path=f"{dirname}/shop.wal", fsync=True)
    shop.add_service(MerchantService())
    shop.use_pool_strategy(*POOLS)
    with shop.seed() as txn:
        for pool in POOLS:
            shop.resources.create_pool(txn, pool, 10_000_000)
    return shop


def grant_message(index: int) -> Message:
    pool = POOLS[index % len(POOLS)]
    return Message(
        message_id=f"m-{index}",
        sender="bench",
        recipient="shop",
        promise_requests=(
            PromiseRequest(
                f"r-{index}",
                (P(f"quantity('{pool}') >= 1"),),
                3600,
                client_id="bench",
            ),
        ),
    )


def release_message(index: int, promise_id: str) -> Message:
    return Message(
        message_id=f"rel-{index}",
        sender="bench",
        recipient="shop",
        environment=Environment.of(promise_id, release=(promise_id,)),
    )


def serve(shop, workers: int) -> PromiseServer:
    journal = ReplyJournal(shop.store, table=NET_REPLY_JOURNAL_TABLE)
    server = PromiseServer(reply_journal=journal, workers=workers)
    if workers:
        server.attach_store(shop.store)
        server.register(
            "shop", shop.endpoint.handle, keys=shop.endpoint.dispatch_keys
        )
    else:
        server.register("shop", shop.endpoint.handle)
    return server


def run_serial(pairs: int, dirname: str) -> float:
    """Blocking request/reply pairs, one at a time: the seed's hot path."""
    shop = build_shop(dirname)
    server = serve(shop, workers=0)
    try:
        with ThreadedServer(server) as address:
            with NetworkTransport(address) as transport:
                start = time.perf_counter()
                for index in range(pairs):
                    reply = transport.send(grant_message(index))
                    promise_id = reply.promise_responses[0].promise_id
                    transport.send(release_message(index, promise_id))
                    shop.manager.vacuum()
                elapsed = time.perf_counter() - start
    finally:
        shop.close()
    return pairs / elapsed


def run_pipelined(
    pairs: int, window: int, dirname: str, workers: int = 8
) -> dict:
    """Windows of grants in flight at once, releases chased behind them.

    Requests are pre-encoded outside the timed loop (the serial driver's
    codec cost sits inside ``NetworkTransport``, so this only removes
    client-side work both paths share); releases are pre-encoded with a
    placeholder promise id spliced in once the grant reply names it.
    """
    shop = build_shop(dirname)
    metrics = MetricsRegistry()
    shop.store.wal.set_metrics(metrics)
    history = HistoryRecorder()
    history.attach(0, shop.store.wal)
    server = serve(shop, workers=workers)
    grants = [CODEC.encode(grant_message(i)).encode() for i in range(pairs)]
    releases = [
        CODEC.encode(release_message(i, PID_SLOT.decode())).encode()
        for i in range(pairs)
    ]
    try:
        with ThreadedServer(server) as address:
            client = PipelinedClient(
                address, timeout=60.0, max_outstanding=2 * window
            )
            try:
                start = time.perf_counter()
                done = 0
                while done < pairs:
                    batch = min(window, pairs - done)
                    granted = [
                        client.submit(grants[done + k]) for k in range(batch)
                    ]
                    promise_ids = [
                        PROMISE_ID.search(future.result(timeout=60)).group(1)
                        for future in granted
                    ]
                    released = [
                        client.submit(
                            releases[done + k].replace(PID_SLOT, promise_id)
                        )
                        for k, promise_id in enumerate(promise_ids)
                    ]
                    for future in released:
                        future.result(timeout=60)
                    with shop.store.mutex:
                        shop.manager.vacuum()
                    done += batch
                elapsed = time.perf_counter() - start
            finally:
                client.close()
    finally:
        history.detach_all()
        anomalies = history.check()
        flushes = metrics.value("wal.batch.flushes")
        records = metrics.value("wal.batch.records")
        shop.close()
    return {
        "pairs_per_sec": pairs / elapsed,
        "anomalies": anomalies,
        "wal_flushes": flushes,
        "records_per_flush": records / max(1, flushes),
    }


def run_sweep(pairs: int, tmpdir_factory) -> dict:
    """The full F8 sweep: serial baseline, then each pipeline window."""
    serial = run_serial(pairs, str(tmpdir_factory("serial")))
    rows = []
    for window in WINDOWS:
        result = run_pipelined(
            pairs, window, str(tmpdir_factory(f"pipelined-w{window}"))
        )
        rows.append(
            {
                "window": window,
                "grants/s": result["pairs_per_sec"],
                "speedup": result["pairs_per_sec"] / serial,
                "wal flushes": int(result["wal_flushes"]),
                "records/flush": result["records_per_flush"],
                "anomalies": len(result["anomalies"]),
            }
        )
    return {"serial_grants_per_sec": serial, "windows": rows}


def check_acceptance(report: dict) -> float:
    """Best speedup at window ≥ 8; asserts the ISSUE-10 bar."""
    eligible = [
        row for row in report["windows"] if row["window"] >= 8
    ]
    assert all(row["anomalies"] == 0 for row in report["windows"]), (
        "history checker flagged the pipelined run"
    )
    best = max(row["speedup"] for row in eligible)
    assert best >= 2.0, (
        f"pipelined path reached only {best:.2f}x the serial baseline"
    )
    return best


def test_report_f8_throughput(benchmark, tmp_path_factory):
    """The F8 table: serial baseline vs pipelined windows, audited."""

    def factory(name: str) -> str:
        return str(tmp_path_factory.mktemp(name))

    report = run_once(benchmark, lambda: run_sweep(400, factory))
    print_table(
        "F8: grant+release pairs over loopback TCP, durable WAL",
        ["window", "grants/s", "speedup", "wal flushes", "records/flush",
         "anomalies"],
        [
            {"window": "serial",
             "grants/s": report["serial_grants_per_sec"],
             "speedup": 1.0, "wal flushes": "-", "records/flush": "-",
             "anomalies": "-"},
            *report["windows"],
        ],
    )
    best = check_acceptance(report)
    print(f"\nbest pipelined speedup at window >= 8: {best:.2f}x")


def main() -> None:
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pairs", type=int, default=400,
        help="grant+release pairs per configuration",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny run (40 pairs, windows 1 and 8) to check wiring",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    parser.add_argument(
        "--output", help="also write the JSON report to this path"
    )
    args = parser.parse_args()

    global WINDOWS
    pairs = args.pairs
    if args.smoke:
        pairs, WINDOWS = 40, (1, 8)

    with tempfile.TemporaryDirectory() as root:
        counter = iter(range(1_000_000))

        def factory(name: str) -> str:
            import os

            path = f"{root}/{name}-{next(counter)}"
            os.makedirs(path)
            return path

        report = run_sweep(pairs, factory)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"serial: {report['serial_grants_per_sec']:.0f} grants/s")
        for row in report["windows"]:
            print(
                f"pipelined w={row['window']}: {row['grants/s']:.0f} "
                f"grants/s ({row['speedup']:.2f}x), "
                f"{row['records/flush']:.1f} records/flush, "
                f"{row['anomalies']} anomalies"
            )
    if not args.smoke:
        best = check_acceptance(report)
        print(f"acceptance: {best:.2f}x >= 2.0x at window >= 8")


if __name__ == "__main__":
    main()
