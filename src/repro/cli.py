"""Command-line interface: explore the Promises system without writing code.

Four subcommands:

``figure1``
    Run the paper's Figure-1 ordering walkthrough over the full protocol
    stack, printing each step (promise request, concurrent sales, atomic
    purchase+release), with configurable stock and order size.

``compare``
    Run one workload under any subset of the four isolation regimes and
    print the outcome table — a configurable version of experiment E1/E2.

``serve``
    Host a promise-enabled merchant deployment on a TCP socket (the
    networked Figure-2 pipeline) until interrupted; ``--port 0`` binds
    an ephemeral port and the banner names it.

``serve-cluster``
    Host a sharded fleet: N promise managers on consecutive ports, each
    owning the product pools a shared consistent-hash ring places on it.
    ``--replicas N`` turns every shard into a replica group: N hot
    followers apply the primary's WAL stream, a heartbeat detector
    promotes the most-caught-up one when the primary dies, and epoch
    fencing keeps the deposed primary's late writes out.  ``--port 0``
    puts every shard on its own ephemeral port.

``call``
    Talk to a running server: request a promise and/or invoke a service
    operation from another process.  With ``--cluster host:port,...``
    the call goes through a routing gateway over a whole fleet instead
    of a single server, so predicates may span shards.

``top``
    Scrape the ``_metrics`` endpoint of a running server (or every
    shard of a fleet) and render the counters, gauges and latency
    histograms; ``--watch N`` refreshes every N seconds and prints
    per-interval rates instead of lifetime totals.

``trace``
    Assemble one distributed trace — client attempts, gateway legs,
    shard transactions, replication ack gates — and render it as an
    indented span tree.  Spans come from live ``_spans`` scrapes
    (``--cluster``/``--connect``) or from a ``--spans`` JSONL export.

``doctor``
    Open a deployment's write-ahead log, run crash recovery and the
    invariant audit, and report what it found — the post-mortem half of
    ``serve --wal``.

``chaos``
    Run one seeded chaos-nemesis schedule against a loopback fleet —
    randomized request/reply drops, crash points, shard kill/restarts
    and overload bursts — then print the audit report as JSON.

``serve`` and ``serve-cluster`` accept overload-protection flags:
``--max-queue`` / ``--rate-limit`` put an admission controller in front
of every server (shed checks before actions before releases, surfaced
as a retryable ``overloaded`` fault).  Both run until SIGINT, then
print ``shutting down`` and exit 0.

Examples::

    python -m repro.cli figure1 --stock 12 --need 5
    python -m repro.cli compare --clients 32 --tightness 2.0 --regimes promises locking
    python -m repro.cli serve --port 7807 --stock 100
    python -m repro.cli serve --port 7807 --stock 100 --wal /var/lib/shop.wal
    python -m repro.cli serve-cluster --shards 4 --port 7807 --products 16 --wal-dir /var/lib/shop
    python -m repro.cli serve-cluster --shards 2 --replicas 1 --heartbeat-interval 0.2
    python -m repro.cli call --connect 127.0.0.1:7807 --predicate "quantity('widgets') >= 5" --duration 30
    python -m repro.cli call --connect 127.0.0.1:7807 --service merchant --operation sell --param product=widgets --param quantity=1
    python -m repro.cli call --cluster 127.0.0.1:7807,127.0.0.1:7808 --predicate "quantity('product-0') >= 2 and quantity('product-1') >= 1"
    python -m repro.cli call --cluster 127.0.0.1:7807,127.0.0.1:7808 --predicate "quantity('product-0') >= 2" --trace
    python -m repro.cli top --cluster 127.0.0.1:7807,127.0.0.1:7808
    python -m repro.cli top --connect 127.0.0.1:7807 --watch 2
    python -m repro.cli trace 1f3a2b... --cluster 127.0.0.1:7807,127.0.0.1:7808
    python -m repro.cli trace 1f3a2b... --spans run.spans.jsonl
    python -m repro.cli doctor --wal /var/lib/shop.wal --repair
    python -m repro.cli serve --port 7807 --max-queue 64 --rate-limit 200
    python -m repro.cli chaos --seed 2007 --duration 30
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
from typing import Sequence

from .baselines import (
    LockingRegime,
    OptimisticRegime,
    PromiseRegime,
    ValidationRegime,
)
from .cluster import ClusterGateway, host_deployment, provision_products
from .core.environment import Environment
from .core.errors import PredicateSyntaxError
from .core.parser import P
from .net import NetworkTransport
from .net.server import METRICS_ENDPOINT, SPANS_ENDPOINT
from .obs.metrics import snapshot_delta
from .obs.trace import Span, SpanRecorder, render_trace, spans_from_jsonl
from .protocol.client import PromiseClient
from .storage.errors import RecoveryError
from .protocol.errors import ProtocolError
from .protocol.messages import ActionPayload, Message
from .replication import HeartbeatDetector, ReplicatedFleet
from .resilience.admission import AdmissionController
from .services.deployment import Deployment
from .services.merchant import MerchantService
from .sim.workload import WorkloadSpec

DEFAULT_PORT = 7807

REGIMES = {
    "promises": PromiseRegime,
    "optimistic": OptimisticRegime,
    "validation": ValidationRegime,
    "locking": LockingRegime,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Promises: isolation support for service-based applications",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    figure1 = commands.add_parser(
        "figure1", help="run the Figure-1 ordering walkthrough"
    )
    figure1.add_argument("--stock", type=int, default=12,
                         help="initial pink-widget stock (default 12)")
    figure1.add_argument("--need", type=int, default=5,
                         help="units the order process needs (default 5)")
    figure1.add_argument("--rival-appetite", type=int, default=100,
                         help="units rival processes try to drain (default all)")

    compare = commands.add_parser(
        "compare", help="compare isolation regimes on one workload"
    )
    compare.add_argument("--clients", type=int, default=32)
    compare.add_argument("--products", type=int, default=2)
    compare.add_argument("--products-per-order", type=int, default=1)
    compare.add_argument("--tightness", type=float, default=2.0,
                         help="expected demand / stock (default 2.0)")
    compare.add_argument("--seed", type=int, default=2007)
    compare.add_argument(
        "--regimes", nargs="+", choices=sorted(REGIMES), default=sorted(REGIMES)
    )

    serve = commands.add_parser(
        "serve", help="host a promise-enabled deployment over TCP"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"listen port (default {DEFAULT_PORT}; "
                            "0 picks an ephemeral port)")
    serve.add_argument("--endpoint", default="shop",
                       help="endpoint/deployment name (default shop)")
    serve.add_argument("--stock", type=int, default=100,
                       help="initial 'widgets' pool stock (default 100)")
    serve.add_argument("--wal", default=None, metavar="PATH",
                       help="write-ahead log file; state survives restarts "
                            "and an existing log is recovered on startup")
    serve.add_argument("--fsync", action="store_true",
                       help="fsync the WAL at every barrier — once a "
                            "request (durable against power loss, slower)")
    serve.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N",
                       help="compact the WAL after every N records "
                            "(one per committed transaction)")
    _add_resilience_flags(serve)
    _add_pipeline_flags(serve)

    cluster = commands.add_parser(
        "serve-cluster", help="host a sharded promise-manager fleet over TCP"
    )
    cluster.add_argument("--shards", type=int, default=2,
                         help="number of shard servers to boot (default 2)")
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument("--port", type=int, default=DEFAULT_PORT,
                         help=f"base port; shard i listens on port+i "
                              f"(default {DEFAULT_PORT}; 0 puts every "
                              "shard on an ephemeral port)")
    cluster.add_argument("--endpoint", default="shop",
                         help="endpoint name every shard serves "
                              "(default shop)")
    cluster.add_argument("--products", type=int, default=8,
                         help="product pools spread over the ring "
                              "(default 8)")
    cluster.add_argument("--stock", type=int, default=100,
                         help="initial stock per product pool (default 100)")
    cluster.add_argument("--wal-dir", default=None, metavar="DIR",
                         help="directory for per-shard write-ahead logs "
                              "(shard-N.wal); state survives restarts")
    cluster.add_argument("--fsync", action="store_true",
                         help="fsync each shard's WAL at every barrier "
                              "(once a request)")
    cluster.add_argument("--replicas", type=int, default=0, metavar="N",
                         help="hot followers per shard (default 0: "
                              "unreplicated); each shard becomes a "
                              "replica group with WAL shipping, a "
                              "heartbeat failure detector and "
                              "epoch-fenced automatic failover")
    cluster.add_argument("--heartbeat-interval", type=float, default=0.2,
                         metavar="SECONDS",
                         help="failure-detector ping interval; a primary "
                              "missing 3 consecutive beats is replaced "
                              "(default 0.2, used when --replicas > 0)")
    _add_resilience_flags(cluster)
    _add_pipeline_flags(cluster)

    call = commands.add_parser(
        "call", help="send one promise/action request to a running server"
    )
    call.add_argument("--connect", default=f"127.0.0.1:{DEFAULT_PORT}",
                      help="server address as host:port")
    call.add_argument("--cluster", default=None, metavar="ADDRS",
                      help="comma-separated shard addresses "
                           "(host:port,host:port,...); routes the call "
                           "through a cluster gateway instead of --connect")
    call.add_argument("--endpoint", default="shop")
    call.add_argument(
        "--client-name", default=None,
        help="client identity; default: unique per invocation, so "
             "separate processes never share message-id namespaces",
    )
    call.add_argument("--predicate", action="append", default=[],
                      help="predicate text for a promise request (repeatable)")
    call.add_argument("--duration", type=int, default=30,
                      help="requested promise duration in ticks (default 30)")
    call.add_argument("--service", default=None)
    call.add_argument("--operation", default=None)
    call.add_argument("--param", action="append", default=[],
                      help="action parameter as key=value (repeatable)")
    call.add_argument("--timeout", type=float, default=5.0)
    call.add_argument("--trace", action="store_true",
                      help="propagate a trace through the request, then "
                           "print the trace id and the assembled span "
                           "tree (client attempt, gateway legs, shard "
                           "transaction, replication ack)")
    call.add_argument("--trace-export", default=None, metavar="FILE",
                      help="also write the collected spans to FILE as "
                           "JSON lines (implies --trace); render later "
                           "with: repro trace <id> --spans FILE")

    top = commands.add_parser(
        "top", help="scrape and render a running fleet's metrics"
    )
    top.add_argument("--connect", default=None, metavar="ADDR",
                     help=f"single server as host:port "
                          f"(default 127.0.0.1:{DEFAULT_PORT})")
    top.add_argument("--cluster", default=None, metavar="ADDRS",
                     help="comma-separated shard addresses "
                          "(host:port,host:port,...); scrapes every "
                          "shard of a fleet")
    top.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                     help="refresh every N seconds, printing "
                          "per-interval counter deltas (one-shot "
                          "lifetime totals otherwise); stop with ctrl-C")
    top.add_argument("--iterations", type=int, default=None, metavar="N",
                     help="with --watch: stop after N refreshes "
                          "(default: run until interrupted)")
    top.add_argument("--json", action="store_true",
                     help="print the raw snapshots as JSON instead of "
                          "the rendered table")
    top.add_argument("--timeout", type=float, default=5.0)

    trace = commands.add_parser(
        "trace", help="assemble and render one distributed trace"
    )
    trace.add_argument("trace_id",
                       help="trace id, as printed by call --trace")
    trace.add_argument("--connect", default=None, metavar="ADDR",
                       help="scrape one server's span ring (host:port)")
    trace.add_argument("--cluster", default=None, metavar="ADDRS",
                       help="scrape every shard's span ring "
                            "(host:port,host:port,...)")
    trace.add_argument("--spans", default=None, metavar="FILE",
                       help="read spans from a JSONL export instead of "
                            "scraping live servers")
    trace.add_argument("--timeout", type=float, default=5.0)

    doctor = commands.add_parser(
        "doctor", help="recover a WAL-backed deployment and audit it"
    )
    doctor.add_argument("--wal", required=True, metavar="PATH",
                        help="write-ahead log file to open")
    doctor.add_argument("--endpoint", default="shop",
                        help="deployment name the log belongs to "
                             "(default shop)")
    doctor.add_argument("--repair", action="store_true",
                        help="repair mechanically safe drift before "
                             "the audit")

    chaos = commands.add_parser(
        "chaos", help="run one seeded nemesis schedule and audit it"
    )
    chaos.add_argument("--seed", type=int, default=2007,
                       help="schedule seed; same seed, same faults "
                            "(default 2007)")
    chaos.add_argument("--duration", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget; the schedule stops "
                            "early once it is spent")
    chaos.add_argument("--steps", type=int, default=30,
                       help="workload/fault steps to run (default 30)")
    chaos.add_argument("--shards", type=int, default=3,
                       help="fleet size, at least 2 (default 3)")
    chaos.add_argument("--products", type=int, default=9,
                       help="product pools over the ring (default 9)")
    chaos.add_argument("--stock", type=int, default=20,
                       help="stock per pool (default 20)")
    chaos.add_argument("--replicas", type=int, default=0, metavar="N",
                       help="hot followers per shard (default 0); with "
                            "N > 0 the schedule adds kill-primary and "
                            "partition-primary fault classes auditing "
                            "the failover invariants")
    chaos.add_argument("--heartbeat-interval", type=float, default=0.05,
                       metavar="SECONDS",
                       help="failure-detector ping interval during a "
                            "replicated run (default 0.05)")
    return parser


def _add_resilience_flags(subparser: argparse.ArgumentParser) -> None:
    """Overload-protection flags shared by ``serve`` and ``serve-cluster``."""
    subparser.add_argument(
        "--max-queue", type=int, default=None, metavar="N",
        help="admission control: bound on admitted-but-unfinished "
             "requests per server (default: no admission control)",
    )
    subparser.add_argument(
        "--rate-limit", type=float, default=None, metavar="RPS",
        help="admission control: token-bucket rate in requests/second "
             "per server; shed requests get a retryable 'overloaded' "
             "fault (checks shed first, releases last)",
    )


def _add_pipeline_flags(subparser: argparse.ArgumentParser) -> None:
    """Hot-path concurrency flags shared by ``serve`` and ``serve-cluster``."""
    subparser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="dispatch worker threads per server (default 0: each "
             "request runs inline on the event loop); requests on "
             "disjoint resources execute concurrently, same-resource "
             "requests stay FIFO",
    )


def _admission_from_flags(
    max_queue: int | None, rate_limit: float | None
) -> AdmissionController | None:
    """An admission controller when either flag was given, else None."""
    if max_queue is None and rate_limit is None:
        return None
    return AdmissionController(
        max_queue=max_queue if max_queue is not None else 64,
        rate=rate_limit,
    )


def run_figure1(stock: int, need: int, rival_appetite: int, out=sys.stdout) -> int:
    """The Figure-1 walkthrough; returns a process exit code."""
    shop = Deployment(name="merchant", counter_offers=True)
    shop.add_service(MerchantService())
    shop.use_pool_strategy("pink_widgets")
    with shop.seed() as txn:
        shop.resources.create_pool(txn, "pink_widgets", stock)
    client = shop.client("order-process")
    rival = shop.client("rival")

    print(f"stock: {stock} pink widgets; order needs {need}", file=out)
    response = client.request_promise(
        "merchant", [P(f"quantity('pink_widgets') >= {need}")], 30
    )
    if not response.accepted:
        print(f"promise REJECTED: {response.reason}", file=out)
        if response.counter is not None:
            print(f"counter-offer: {response.counter.describe()}", file=out)
        print("order process terminates: goods unavailable", file=out)
        return 1
    print(f"promise GRANTED as {response.promise_id}", file=out)

    drained = 0
    while drained < rival_appetite and rival.call(
        "merchant", "merchant", "sell", {"product": "pink_widgets", "quantity": 1}
    ).success:
        drained += 1
    print(f"concurrent processes sold {drained} units meanwhile", file=out)

    order = client.call(
        "merchant", "merchant", "place_order",
        {"customer": "cli", "product": "pink_widgets", "quantity": need},
    )
    client.call("merchant", "merchant", "pay", {"order_id": order.value})
    done = client.call(
        "merchant", "merchant", "complete_order", {"order_id": order.value},
        environment=Environment.of(response.promise_id, release=[response.promise_id]),
    )
    print(f"purchase under promise: {'ok' if done.success else done.reason}", file=out)
    level = client.call("merchant", "merchant", "stock_level",
                        {"product": "pink_widgets"})
    print(f"final stock: {level.value}", file=out)
    return 0 if done.success else 1


def run_compare(
    clients: int,
    products: int,
    products_per_order: int,
    tightness: float,
    seed: int,
    regimes: Sequence[str],
    out=sys.stdout,
) -> int:
    """Regime comparison; returns a process exit code."""
    spec = WorkloadSpec(
        clients=clients,
        products=products,
        products_per_order=products_per_order,
        quantity_low=1,
        quantity_high=5,
        mean_interarrival=1.0,
        work_low=5,
        work_high=20,
        seed=seed,
    ).with_tightness(tightness)
    print(
        f"workload: {clients} clients, {products} products x "
        f"{spec.stock_per_product} units, tightness {spec.tightness():.2f}, "
        f"seed {seed}",
        file=out,
    )
    header = (
        f"{'regime':12s} {'success':>8s} {'early-rej':>10s} {'late-fail':>10s} "
        f"{'deadlock':>9s} {'lat(mean)':>10s}"
    )
    print(header, file=out)
    print("-" * len(header), file=out)
    for name in regimes:
        metrics = REGIMES[name]().run(spec)
        latency = metrics.summarise("latency")
        print(
            f"{name:12s} {metrics.counter('success'):>8d} "
            f"{metrics.counter('early_reject'):>10d} "
            f"{metrics.counter('late_failure'):>10d} "
            f"{metrics.counter('deadlock'):>9d} "
            f"{latency.mean if latency else 0:>10.1f}",
            file=out,
        )
    return 0


def _build_served_deployment(
    endpoint: str,
    stock: int,
    wal_path: str | None = None,
    fsync: bool = False,
    checkpoint_every: int | None = None,
    out=sys.stdout,
) -> Deployment:
    """The deployment `serve` hosts: a merchant over a widgets pool.

    With a WAL that already holds state, the pool is *not* re-seeded —
    the log is the truth — and the runtime (clock, id pools, expiry
    backlog) is recovered from it.
    """
    deployment = Deployment(
        name=endpoint,
        counter_offers=True,
        wal_path=wal_path,
        fsync=fsync,
        auto_checkpoint_every=checkpoint_every,
    )
    deployment.add_service(MerchantService())
    deployment.use_pool_strategy("widgets")
    if deployment.recovered:
        report = deployment.recover()
        print(f"recovery: {report.summary()}", file=out)
    else:
        with deployment.seed() as txn:
            deployment.resources.create_pool(txn, "widgets", stock)
    return deployment


def run_serve(
    host: str,
    port: int,
    endpoint: str,
    stock: int,
    wal: str | None = None,
    fsync: bool = False,
    checkpoint_every: int | None = None,
    max_queue: int | None = None,
    rate_limit: float | None = None,
    workers: int = 0,
    out=sys.stdout,
) -> int:
    """Host the deployment over TCP until SIGINT; returns an exit code."""
    deployment = _build_served_deployment(
        endpoint, stock, wal, fsync, checkpoint_every, out=out
    )
    admission = _admission_from_flags(max_queue, rate_limit)
    server = host_deployment(
        deployment, endpoint, host=host, port=port,
        admission=admission, workers=workers,
    )

    async def serve() -> None:
        bound_host, bound_port = await server.start()
        durability = f", wal: {wal}" if wal else ""
        shedding = (
            f", admission: queue<={admission.max_queue}"
            + (f" rate={admission.rate}/s" if admission.rate else "")
            if admission
            else ""
        )
        print(
            f"serving endpoint {endpoint!r} on {bound_host}:{bound_port} "
            f"(widgets stock: {stock}{durability}{shedding})",
            file=out,
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("shutting down", file=out)
    except OSError as error:
        print(f"cannot serve on {host}:{port}: {error}", file=out)
        return 2
    finally:
        deployment.close()
    return 0


def run_serve_cluster(
    shards: int,
    host: str,
    port: int,
    endpoint: str,
    products: int,
    stock: int,
    wal_dir: str | None = None,
    fsync: bool = False,
    max_queue: int | None = None,
    rate_limit: float | None = None,
    replicas: int = 0,
    heartbeat_interval: float = 0.2,
    workers: int = 0,
    out=sys.stdout,
) -> int:
    """Host a sharded fleet over TCP until SIGINT; returns an exit code."""
    import threading

    if shards < 1:
        print(f"need at least one shard, got {shards}", file=out)
        return 2
    if replicas < 0:
        print(f"--replicas must be >= 0, got {replicas}", file=out)
        return 2
    admission = None
    if max_queue is not None or rate_limit is not None:
        # One controller per shard (and a fresh one on restart): each
        # shard's bucket protects its own event loop, not the fleet's.
        def admission(index: int) -> AdmissionController:
            return _admission_from_flags(max_queue, rate_limit)

    fleet = ReplicatedFleet(
        shards,
        replicas=replicas,
        endpoint=endpoint,
        provision=provision_products(products, stock),
        wal_dir=wal_dir,
        fsync=fsync,
        host=host,
        base_port=port,
        admission=admission,
        workers=workers,
    )
    try:
        addresses = fleet.start()
    except OSError as error:
        print(f"cannot serve on {host}:{port}+: {error}", file=out)
        return 2
    detector = None
    try:
        if replicas > 0:
            detector = HeartbeatDetector(
                fleet, interval=heartbeat_interval, miss_threshold=3
            ).start()
        durability = f", wal-dir: {wal_dir}" if wal_dir else ""
        replication = (
            f", {replicas} follower(s)/shard, heartbeat "
            f"{heartbeat_interval}s" if replicas > 0 else ""
        )
        print(
            f"serving endpoint {endpoint!r} on {shards} shards "
            f"({products} products x {stock} units"
            f"{durability}{replication})",
            file=out,
        )
        for index, (bound_host, bound_port) in enumerate(addresses):
            owned = fleet.ring.placement(
                [f"product-{number}" for number in range(products)]
            ).get(index, [])
            followers = ", ".join(
                f"{f.address[0]}:{f.address[1]}"
                for f in fleet.group(index).followers
            )
            extra = f", followers: {followers}" if followers else ""
            print(
                f"  shard {index}: {bound_host}:{bound_port} "
                f"({len(owned)} pools{extra})",
                file=out,
            )
        joined = ",".join(f"{h}:{p}" for h, p in addresses)
        print(f"gateway clients: call --cluster {joined}", file=out, flush=True)
        threading.Event().wait()
    except KeyboardInterrupt:  # pragma: no cover - runs in a subprocess
        print("shutting down fleet", file=out)
    finally:
        if detector is not None:
            detector.stop()
        fleet.stop()
    return 0


def _parse_addresses(text: str) -> list[tuple[str, int]] | None:
    """``host:port,host:port,...`` → address list, or None when bad."""
    addresses: list[tuple[str, int]] = []
    for part in text.split(","):
        host, _, port_text = part.strip().rpartition(":")
        if not host or not port_text.isdigit():
            return None
        addresses.append((host, int(port_text)))
    return addresses or None


def _obs_scrape(transport, recipient: str, params=None):
    """One ``_metrics``/``_spans`` probe; None when the peer is down
    (or predates the observability endpoints)."""
    probe = Message(
        message_id=f"cli-obs:{os.getpid()}:{os.urandom(4).hex()}",
        sender="cli-obs",
        recipient=recipient,
        action=ActionPayload(
            service="_obs", operation="scrape", params=dict(params or {})
        ),
    )
    try:
        reply = transport.send(probe)
    except ProtocolError:
        return None
    outcome = reply.action_outcome
    if outcome is None or not outcome.success:
        return None
    return outcome.value


def _obs_addresses(
    connect: str | None, cluster: str | None, out
) -> list[tuple[str, int]] | None:
    """Resolve the top/trace address flags; None (and a message) on bad
    input.  ``--cluster`` wins; the default is one local server."""
    if cluster is not None:
        addresses = _parse_addresses(cluster)
        if addresses is None:
            print(
                f"bad --cluster address list {cluster!r} "
                "(want host:port,host:port,...)",
                file=out,
            )
            return None
        return addresses
    text = connect if connect is not None else f"127.0.0.1:{DEFAULT_PORT}"
    addresses = _parse_addresses(text)
    if addresses is None or len(addresses) != 1:
        print(f"bad --connect address {text!r} (want host:port)", file=out)
        return None
    return addresses


def _render_metrics(snapshot, indent: str = "  ") -> list[str]:
    """One scrape as ``name = value`` lines (counters, gauges, then
    histogram count/mean pairs), sorted for stable output.  A histogram
    named ``*_seconds`` is shown in ms; any other (``wal.batch.size``,
    ``manager.check.promises``) counts things and is shown as is."""
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    for name in sorted(counters):
        lines.append(f"{indent}{name} = {counters[name]}")
    gauges = snapshot.get("gauges", {})
    for name in sorted(gauges):
        lines.append(f"{indent}{name} = {gauges[name]:g}")
    histograms = snapshot.get("histograms", {})
    for name in sorted(histograms):
        hist = histograms[name]
        count = int(hist.get("count", 0))
        total = float(hist.get("sum", 0.0))
        mean = total / count if count else 0.0
        if name.endswith("_seconds"):
            shown = f"{mean * 1000:.2f} ms"
        else:
            shown = f"{mean:.2f}"
        lines.append(f"{indent}{name} = count {count}, mean {shown}")
    return lines


def run_top(
    connect: str | None,
    cluster: str | None,
    watch: float | None,
    as_json: bool,
    timeout: float,
    iterations: int | None = None,
    out=sys.stdout,
) -> int:
    """Scrape and render fleet metrics; 0 when every shard answered."""
    import json
    import time

    addresses = _obs_addresses(connect, cluster, out)
    if addresses is None:
        return 2
    transports = [
        NetworkTransport(address, timeout=timeout) for address in addresses
    ]

    def scrape_all():
        return [
            _obs_scrape(transport, METRICS_ENDPOINT)
            for transport in transports
        ]

    def emit(snapshots, label: str) -> bool:
        all_up = True
        if as_json:
            print(
                json.dumps(
                    {
                        "at": label,
                        "shards": [
                            {"address": f"{h}:{p}", "metrics": snap}
                            for (h, p), snap in zip(addresses, snapshots)
                        ],
                    },
                    sort_keys=True,
                ),
                file=out,
            )
            return all(snap is not None for snap in snapshots)
        for index, ((host, port), snap) in enumerate(
            zip(addresses, snapshots)
        ):
            if snap is None:
                print(f"shard {index} @ {host}:{port}: DOWN", file=out)
                all_up = False
                continue
            print(f"shard {index} @ {host}:{port} ({label})", file=out)
            for line in _render_metrics(snap):
                print(line, file=out)
        return all_up

    try:
        snapshots = scrape_all()
        ok = emit(snapshots, "totals")
        if watch is None:
            return 0 if ok else 1
        ticks = 0
        while iterations is None or ticks < iterations:
            time.sleep(watch)
            ticks += 1
            fresh = scrape_all()
            deltas = [
                snapshot_delta(previous, current)
                if previous is not None and current is not None
                else current
                for previous, current in zip(snapshots, fresh)
            ]
            print(f"--- +{watch * ticks:g}s ---", file=out)
            ok = emit(deltas, f"last {watch:g}s") and ok
            snapshots = fresh
        return 0 if ok else 1
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0
    finally:
        for transport in transports:
            transport.close()


def _scrape_spans(transports, trace_id: str | None) -> list[Span]:
    """Every shard's exported spans (optionally one trace's)."""
    params = {"trace_id": trace_id} if trace_id is not None else {}
    spans: list[Span] = []
    for transport in transports:
        value = _obs_scrape(transport, SPANS_ENDPOINT, params)
        if isinstance(value, list):
            for item in value:
                if isinstance(item, dict):
                    spans.append(Span.from_dict(item))
    return spans


def run_trace(
    trace_id: str,
    connect: str | None,
    cluster: str | None,
    spans_file: str | None,
    timeout: float,
    out=sys.stdout,
) -> int:
    """Render one trace's span tree; 1 when no spans were found."""
    if spans_file is not None:
        if not os.path.exists(spans_file):
            print(f"no such span export: {spans_file}", file=out)
            return 2
        with open(spans_file, "r", encoding="utf-8") as handle:
            spans = spans_from_jsonl(handle.read())
    else:
        addresses = _obs_addresses(connect, cluster, out)
        if addresses is None:
            return 2
        transports = [
            NetworkTransport(address, timeout=timeout)
            for address in addresses
        ]
        try:
            spans = _scrape_spans(transports, trace_id)
        finally:
            for transport in transports:
                transport.close()
    matching = [span for span in spans if span.trace_id == trace_id]
    if not matching:
        print(f"no spans for trace {trace_id}", file=out)
        return 1
    print(render_trace(matching, trace_id), file=out)
    return 0


def run_call(
    connect: str,
    endpoint: str,
    client_name: str | None,
    predicates: Sequence[str],
    duration: int,
    service: str | None,
    operation: str | None,
    params: Sequence[str],
    timeout: float,
    cluster: str | None = None,
    trace: bool = False,
    trace_export: str | None = None,
    out=sys.stdout,
) -> int:
    """One promise request and/or action against a running server."""
    if not predicates and not (service and operation):
        print(
            "nothing to do: give --predicate and/or --service + --operation",
            file=out,
        )
        return 2
    if trace_export is not None:
        trace = True
    if cluster is not None:
        addresses = _parse_addresses(cluster)
        if addresses is None:
            print(
                f"bad --cluster address list {cluster!r} "
                "(want host:port,host:port,...)",
                file=out,
            )
            return 2
    else:
        addresses = _parse_addresses(connect)
        if addresses is None or len(addresses) != 1:
            print(
                f"bad --connect address {connect!r} (want host:port)", file=out
            )
            return 2
    if client_name is None:
        # Every invocation is a fresh process whose message-id counter
        # restarts at 1; the server deduplicates on message id (§6), so
        # the identity itself must make the namespace process-unique.
        client_name = f"cli-{os.getpid()}-{os.urandom(3).hex()}"
    recorder = SpanRecorder() if trace else None

    def open_transport():
        if cluster is not None:
            return ClusterGateway(
                [
                    NetworkTransport(address, timeout=timeout)
                    for address in addresses
                ],
                tracer=recorder,
            )
        return NetworkTransport(addresses[0], timeout=timeout)

    trace_ids: list[str] = []

    def note_trace(client: PromiseClient) -> None:
        if recorder is not None and client.last_trace_id is not None:
            trace_ids.append(client.last_trace_id)

    try:
        with open_transport() as transport:
            client = PromiseClient(client_name, transport, tracer=recorder)
            environment = None
            code = 0
            if predicates:
                response = client.request_promise(
                    endpoint, [P(text) for text in predicates], duration
                )
                note_trace(client)
                if response.accepted:
                    print(f"promise GRANTED as {response.promise_id} "
                          f"for {response.duration} ticks", file=out)
                    environment = Environment.of(response.promise_id)
                else:
                    print(f"promise REJECTED: {response.reason}", file=out)
                    if response.counter is not None:
                        print(f"counter-offer: {response.counter.describe()}",
                              file=out)
                    code = 1
            if service and operation and code == 0:
                outcome = client.call(
                    endpoint, service, operation,
                    _parse_params(params), environment=environment,
                )
                note_trace(client)
                status = (
                    "ok" if outcome.success else f"failed: {outcome.reason}"
                )
                print(f"{service}.{operation}: {status}", file=out)
                if outcome.value is not None:
                    print(f"result: {outcome.value}", file=out)
                code = 0 if outcome.success else 1
            if recorder is not None:
                _report_call_traces(
                    transport, recorder, trace_ids, cluster is not None,
                    trace_export, out,
                )
    except PredicateSyntaxError as error:
        print(f"bad predicate: {error}", file=out)
        return 2
    except ProtocolError as error:
        print(f"error: {error}", file=out)
        return 2
    return code


def _report_call_traces(
    transport,
    recorder: SpanRecorder,
    trace_ids: Sequence[str],
    via_gateway: bool,
    trace_export: str | None,
    out,
) -> None:
    """Assemble and print the traces one ``call --trace`` produced.

    Local spans come from the client's (and gateway's) shared recorder;
    the server-side halves are scraped over the same connection the call
    just used — ``spans_snapshot`` when the transport is a gateway, a
    direct ``_spans`` probe otherwise.
    """
    import json

    spans = list(recorder.spans())
    if via_gateway:
        # The gateway shares ``recorder``; its snapshot adds the
        # per-shard scrapes (render_trace dedups the overlap).
        for trace_id in trace_ids:
            spans.extend(
                Span.from_dict(item)
                for item in transport.spans_snapshot(trace_id)
                if isinstance(item, dict)
            )
    else:
        spans.extend(_scrape_spans([transport], None))
    for trace_id in trace_ids:
        print(f"trace: {trace_id}", file=out)
        print(render_trace(spans, trace_id), file=out)
    if trace_export is not None:
        wanted = set(trace_ids)
        exported: dict[str, Span] = {}
        for span in spans:
            if span.trace_id in wanted:
                exported.setdefault(span.span_id, span)
        with open(trace_export, "w", encoding="utf-8") as handle:
            for span in exported.values():
                handle.write(
                    json.dumps(span.to_dict(), sort_keys=True) + "\n"
                )
        print(
            f"exported {len(exported)} spans to {trace_export}", file=out
        )


def run_doctor(
    wal: str, endpoint: str, repair: bool, out=sys.stdout
) -> int:
    """Recover a WAL-backed deployment and audit it; 0 when healthy."""
    if not os.path.exists(wal):
        print(f"no such WAL: {wal}", file=out)
        return 2
    try:
        deployment = Deployment(name=endpoint, wal_path=wal)
    except RecoveryError as error:
        print(f"unrecoverable WAL: {error}", file=out)
        return 2
    try:
        deployment.add_service(MerchantService())
        deployment.use_pool_strategy("widgets")
        report = deployment.recover(repair=repair)
        print(report.summary(), file=out)
        for note in report.notes:
            print(f"note: {note}", file=out)
        for finding in report.repaired:
            print(f"repaired: {finding}", file=out)
        for finding in report.findings:
            print(f"finding: {finding}", file=out)
        return 0 if report.healthy else 1
    finally:
        deployment.close()


def run_chaos(
    seed: int,
    duration: float | None,
    steps: int,
    shards: int,
    products: int,
    stock: int,
    replicas: int = 0,
    heartbeat_interval: float = 0.05,
    out=sys.stdout,
) -> int:
    """One seeded nemesis schedule.

    Prints the run's audit report as JSON; exit code 0 only when every
    invariant held *and* every fault class demonstrably fired.
    """
    import json

    # Imported here, not at module top: the nemesis pulls in the whole
    # cluster/net stack and is deliberately not exported from
    # ``repro.faults`` (see its module docstring).
    from .faults.nemesis import ChaosNemesis

    if shards < 2:
        print(f"chaos needs at least two shards, got {shards}", file=out)
        return 2
    nemesis = ChaosNemesis(
        seed,
        shards=shards,
        products=products,
        stock=stock,
        steps=steps,
        time_budget=duration,
        replicas=replicas,
        heartbeat_interval=heartbeat_interval,
    )
    report = nemesis.run()
    print(json.dumps(report.summary(), indent=2), file=out)
    print("chaos " + ("ok" if report.ok else "FAILED"), file=out)
    return 0 if report.ok else 1


def _parse_params(pairs: Sequence[str]) -> dict[str, object]:
    """``key=value`` CLI pairs, with ints parsed as ints."""
    params: dict[str, object] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise SystemExit(f"bad --param {pair!r} (want key=value)")
        params[key] = int(value) if value.lstrip("-").isdigit() else value
    return params


def main(argv: Sequence[str] | None = None, out=sys.stdout) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "figure1":
        return run_figure1(args.stock, args.need, args.rival_appetite, out=out)
    if args.command == "compare":
        return run_compare(
            args.clients,
            args.products,
            args.products_per_order,
            args.tightness,
            args.seed,
            args.regimes,
            out=out,
        )
    if args.command == "serve":
        return run_serve(
            args.host, args.port, args.endpoint, args.stock,
            args.wal, args.fsync, args.checkpoint_every,
            max_queue=args.max_queue, rate_limit=args.rate_limit,
            workers=args.workers,
            out=out,
        )
    if args.command == "serve-cluster":
        return run_serve_cluster(
            args.shards, args.host, args.port, args.endpoint,
            args.products, args.stock,
            args.wal_dir, args.fsync,
            max_queue=args.max_queue, rate_limit=args.rate_limit,
            replicas=args.replicas,
            heartbeat_interval=args.heartbeat_interval,
            workers=args.workers,
            out=out,
        )
    if args.command == "call":
        return run_call(
            args.connect, args.endpoint, args.client_name,
            args.predicate, args.duration, args.service, args.operation,
            args.param, args.timeout, cluster=args.cluster,
            trace=args.trace, trace_export=args.trace_export, out=out,
        )
    if args.command == "top":
        return run_top(
            args.connect, args.cluster, args.watch, args.json,
            args.timeout, iterations=args.iterations, out=out,
        )
    if args.command == "trace":
        return run_trace(
            args.trace_id, args.connect, args.cluster, args.spans,
            args.timeout, out=out,
        )
    if args.command == "doctor":
        return run_doctor(args.wal, args.endpoint, args.repair, out=out)
    if args.command == "chaos":
        return run_chaos(
            args.seed, args.duration, args.steps, args.shards,
            args.products, args.stock,
            replicas=args.replicas,
            heartbeat_interval=args.heartbeat_interval, out=out,
        )
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
