"""The per-layer account: where the wrappers go, and what is derived.

A layer is a module path under ``src/repro/``.  Three sources feed it:

* **wrap** — spans the benchmark records around public methods of the
  objects the workload built (:func:`install`);
* **registry** — the program's own ``MetricsRegistry`` counters, read
  through ``snapshot()`` at slice boundaries (:class:`CounterLog`);
* **probe** — standalone timed calls (:mod:`benchmarks.perf.probes`).

``NetworkTransport.send`` is wrapped too, as the span that *waits* for
another thread: what a server does for a request hangs below it, and
what is left of it — sockets, asyncio, hand-offs between threads — is
the budget's residual, the part no layer owns.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict
from typing import Mapping

from repro.net import NetworkTransport
from repro.protocol.soap import SoapCodec
from repro.replication.shipping import REPL_ENDPOINT
from repro.storage.transactions import Transaction

from .spans import Span, Tracer, self_seconds
from .stats import histogram_quantile, percentile
from .workloads import ENDPOINT, Workload

SOAP = "protocol.soap"
CLIENT = "protocol.client"
TRANSPORT = "net.transport"
ENDPOINT_LAYER = "protocol.endpoint"
MANAGER = "core.manager"
STORE = "storage.store"
WAL = "storage.wal"
GROUP_COMMIT = "storage.group_commit"
GATEWAY = "cluster.gateway"
SHIPPING = "replication.shipping"

#: Layers whose spans run on the calling side of a network hop.
_CALLING_SIDE = frozenset({CLIENT, TRANSPORT, GATEWAY})

#: Rows of the printed budget, outermost first.
BUDGET_LAYERS = (
    CLIENT, GATEWAY, SOAP, "net.server", ENDPOINT_LAYER, MANAGER, STORE, WAL,
    SHIPPING, GROUP_COMMIT,
)

#: Every per-layer metric: ``name -> (unit, better)``.  ``BENCHMARK.json``
#: lists the same names; the smoke test holds the two together.
PER_LAYER: dict[str, tuple[str, str]] = {
    "protocol.soap.encode_us": ("us", "lower"),
    "protocol.soap.decode_us": ("us", "lower"),
    "protocol.soap.calls_per_pair": ("count", "lower"),
    "protocol.soap.self_ms_per_pair": ("ms", "lower"),
    "protocol.soap.wire_bytes_per_pair": ("B", "lower"),
    "protocol.client.self_ms_per_pair": ("ms", "lower"),
    "net.framing.frame_us": ("us", "lower"),
    "net.client.ping_ms_p50": ("ms", "lower"),
    "net.client.retries": ("count", "lower"),
    "net.server.dispatch_ms_p50": ("ms", "lower"),
    "net.server.self_ms_per_pair": ("ms", "lower"),
    "net.server.duplicates_served": ("count", "lower"),
    "net.executor.handoff_us": ("us", "lower"),
    "net.executor.barriers": ("count", "lower"),
    "net.executor.parallelism": ("ratio", "higher"),
    "net.pipeline.window_stalls_per_pair": ("count", "lower"),
    "resilience.admission.admit_us": ("us", "lower"),
    "protocol.endpoint.handle_ms_p50": ("ms", "lower"),
    "protocol.endpoint.self_ms_per_pair": ("ms", "lower"),
    "core.manager.request_ms_p50": ("ms", "lower"),
    "core.manager.execute_ms_p50": ("ms", "lower"),
    "core.manager.release_ms_p50": ("ms", "lower"),
    "core.manager.self_ms_per_pair": ("ms", "lower"),
    "core.manager.live_promises": ("count", "lower"),
    "core.manager.rejected_share": ("ratio", "lower"),
    "core.manager.grant_us_per_live_promise": ("us", "lower"),
    "storage.store.commit_us": ("us", "lower"),
    "storage.store.self_ms_per_pair": ("ms", "lower"),
    "storage.wal.append_us": ("us", "lower"),
    "storage.wal.self_ms_per_pair": ("ms", "lower"),
    "storage.wal.records_per_pair": ("count", "lower"),
    "storage.wal.bytes_per_pair": ("B", "lower"),
    "storage.wal.fsyncs_per_pair": ("count", "lower"),
    "storage.group_commit.records_per_flush": ("count", "higher"),
    "storage.group_commit.wait_durable_ms_p50": ("ms", "lower"),
    "storage.device.fsync_ms_p50": ("ms", "lower"),
    "recovery.replay_ms": ("ms", "lower"),
    "recovery.replay_us_per_record": ("us", "lower"),
    "cluster.gateway.send_ms_p50": ("ms", "lower"),
    "cluster.gateway.self_ms_per_pair": ("ms", "lower"),
    "cluster.gateway.legs_per_pair": ("count", "lower"),
    "cluster.gateway.scattered_share": ("ratio", "lower"),
    "cluster.gateway.compensations": ("count", "lower"),
    "replication.shipping.flush_ms_p50": ("ms", "lower"),
    "replication.shipping.self_ms_per_pair": ("ms", "lower"),
    "replication.shipping.codec_ms_per_pair": ("ms", "lower"),
    "replication.shipping.ships_per_pair": ("count", "lower"),
    "replication.shipping.records_per_ship": ("count", "higher"),
    "bench.host_speed": ("ratio", "higher"),
    "bench.trace_overhead_share": ("ratio", "lower"),
    "bench.budget_residual_share": ("ratio", "lower"),
    "bench.failed_share": ("ratio", "lower"),
    "bench.anomalies": ("count", "lower"),
}


# ------------------------------------------------------------- wrappers


def _sent_id(args: tuple, kwargs: dict) -> str:
    return args[0].message_id


def _served_id(args: tuple, kwargs: dict, result: object) -> str:
    return args[0].message_id


def install(tracer: Tracer, workload: Workload) -> None:
    """Wrap the layers of the system ``workload`` built.

    The codec and the transport are wrapped on the class, because the
    servers, the gateway and the replication senders each make their
    own; everything else is wrapped on the instance the workload holds.
    """
    tracer.patch(
        SoapCodec, "encode", SOAP,
        # A reply being encoded serves the request it correlates to.
        serves=lambda args, kwargs, result: args[1].correlation,
    )
    tracer.patch(
        SoapCodec, "decode", SOAP,
        serves=lambda args, kwargs, result: getattr(result, "message_id", None),
    )
    tracer.patch(
        NetworkTransport, "send", TRANSPORT,
        waits_on=lambda args, kwargs: args[1].message_id,
        # A scatter leg ("<id>/s1") runs on a pool thread for the
        # gateway span waiting on "<id>".
        serves=lambda args, kwargs, result: args[1].message_id.rsplit("/", 1)[0],
    )
    # The store's write path only: reads are too many (hundreds per
    # pair with promises standing) and too short to time from outside
    # without distorting the run, so they stay with the layer calling.
    for method in ("put", "insert", "delete", "update", "commit", "abort"):
        tracer.patch(Transaction, method, STORE)
    if workload.client is not None:
        for method in ("request_promise", "release", "call"):
            tracer.patch(workload.client, method, CLIENT)
    gateway = getattr(workload, "gateway", None)
    if gateway is not None:
        tracer.patch(gateway, "send", GATEWAY, waits_on=_sent_id)
    for server, deployment, sender in workload.fronts():
        server.register(
            ENDPOINT,
            tracer.wrap(
                ENDPOINT_LAYER,
                "protocol.endpoint.handle",
                deployment.endpoint.handle,
                serves=_served_id,
            ),
            keys=deployment.endpoint.dispatch_keys if server.workers else None,
        )
        for method in ("request_promise", "execute", "release"):
            tracer.patch(deployment.manager, method, MANAGER)
        tracer.patch(deployment.store, "begin", STORE)
        tracer.patch(deployment.store.wal, "append", WAL)
        if server.durability is not None:
            tracer.patch(server, "durability", GROUP_COMMIT,
                         name="storage.group_commit.wait_durable")
        if server.gate is not None:
            tracer.patch(server, "gate", SHIPPING,
                         name="replication.shipping.gate")
        if sender is not None:
            tracer.patch(sender, "flush", SHIPPING)
    for server, receiver in workload.followers():
        server.register(
            REPL_ENDPOINT,
            tracer.wrap(
                SHIPPING,
                "replication.shipping.receive",
                receiver.handle,  # type: ignore[attr-defined]
                serves=_served_id,
            ),
        )
        tracer.patch(receiver.wal, "ingest", WAL)  # type: ignore[attr-defined]


# ------------------------------------------------------------- counters


def _numbers(role: str, registries) -> dict[str, float]:
    """Every counter and histogram cell of ``registries``, summed, as one
    flat ``role/name`` mapping — so a delta is a plain subtraction."""
    flat: dict[str, float] = defaultdict(float)
    for registry in registries:
        snapshot = registry.snapshot()
        for name, value in snapshot["counters"].items():
            flat[f"{role}/{name}"] += value
        for name, histogram in snapshot["histograms"].items():
            flat[f"{role}/{name}#sum"] += histogram["sum"]
            flat[f"{role}/{name}#overflow"] += histogram["overflow"]
            for bound, count in histogram["buckets"].items():
                flat[f"{role}/{name}#le#{bound}"] += count
    return flat


class CounterLog:
    """Counts read from outside at slice boundaries.

    Traced and untraced slices accumulate separately: rates and
    latency histograms are reported from the untraced ones; the traced
    ones pair the dispatch histogram with the spans of the same slices.
    """

    def __init__(self, workload: Workload, fsyncs) -> None:
        self._workload = workload
        self._fsyncs = fsyncs
        self._before: dict[str, float] = {}
        self.totals: dict[bool, dict[str, float]] = {
            False: defaultdict(float),
            True: defaultdict(float),
        }

    def _read(self) -> dict[str, float]:
        workload = self._workload
        workload.settle()
        wals = workload.primary_wals()
        numbers = {
            "pairs": workload.pairs_done,
            "wal_records": sum(len(wal) for wal in wals),
            "wal_bytes": sum(os.path.getsize(wal.path) for wal in wals),
            "fsyncs": self._fsyncs.calls,
            "legs": sum(
                transport.stats.sent
                for transport in getattr(workload, "shard_transports", ())
            ),
        }
        for role, registries in workload.registries().items():
            numbers.update(_numbers(role, registries))
        return numbers

    def open(self) -> None:
        self._before = self._read()

    def close(self, traced: bool) -> None:
        total = self.totals[traced]
        for key, value in self._read().items():
            total[key] += value - self._before.get(key, 0)

    def histogram(self, traced: bool, name: str) -> dict | None:
        """``{"sum", "overflow", "buckets"}`` of ``role/name``, if observed."""
        total = self.totals[traced]
        prefix = f"{name}#le#"
        buckets = {
            key[len(prefix):]: count
            for key, count in total.items()
            if key.startswith(prefix)
        }
        if not buckets:
            return None
        return {
            "sum": total[f"{name}#sum"],
            "overflow": total[f"{name}#overflow"],
            "buckets": buckets,
        }


# -------------------------------------------------------------- derived

SERVER = "net.server"

#: In a workload whose requests overlap, these rows are time spent
#: waiting (for a worker, the store mutex, the group-commit flush), not
#: time busy, so they are printed apart and left out of the sum.
_WAIT_LAYERS = frozenset({SERVER, GROUP_COMMIT})


def _layer_of(span: Span) -> str:
    """The layer a span's self time is charged to.

    Replication owns its whole subtree: everything that happens because
    a commit is shipped — ``flush``'s own bookkeeping, the ship
    envelope's codec, the hop's wait, the follower's ingest — is the
    price of the ack the primary waits for, and a change to when or
    what is shipped removes all of it together.  Everything else is
    charged to the layer of the wrapped call itself.
    """
    node: Span | None = span
    while node is not None:
        if node.layer == SHIPPING:
            return SHIPPING
        node = node.parent
    return span.layer


def _is_front_root(span: Span) -> bool:
    """A span a client-facing server ran for a request: outermost on its
    thread, inside the server's dispatch timer (which starts once the
    request is decoded), and not the far side of a ship hop."""
    if span.layer in _CALLING_SIDE or span.name == f"{SOAP}.decode":
        return False
    if span.parent is None:
        return True
    return span.parent.thread != span.thread and _layer_of(span.parent) != SHIPPING


def _is_housekeeping(span: Span, load_thread: int) -> bool:
    """True for a call the load generator made itself, outside any
    exchange: its outermost span is on the generator's thread and is not
    a client call."""
    while span.parent is not None:
        span = span.parent
    return span.thread == load_thread and span.layer not in _CALLING_SIDE


def _is_scatter_leg(span: Span) -> bool:
    return (
        span.layer == TRANSPORT
        and span.parent is not None
        and span.parent.layer == GATEWAY
        and span.parent.thread != span.thread
    )


class Account:
    """Self time per layer and per pair, from the traced slices."""

    def __init__(self, workload: Workload, window, tracer: Tracer,
                 counters: CounterLog) -> None:
        # The generator's own vacuum calls into the program between
        # exchanges; those spans belong to no request and are left out.
        self.spans = spans = [
            span for span in tracer.spans
            if not _is_housekeeping(span, tracer.load_thread)
        ]
        self.own = self_seconds(spans)
        #: The layer each span's self time is charged to.
        self.charged = [_layer_of(span) for span in spans]
        self.pairs = max(1, int(counters.totals[True]["pairs"]))
        #: Milliseconds of reference time per second measured.
        self.ms = 1000.0 * window.host_speed(traced=True)
        self.stacked = workload.one_at_a_time
        self.by_name: dict[str, list[float]] = defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span.duration)

        # What the server itself adds — dedup, in-flight table, the
        # hand-off to a worker, waiting for the store mutex — is its
        # dispatch time minus everything wrapped that ran inside it.
        dispatch = counters.histogram(True, "front/server.dispatch_seconds")
        served = sum(span.duration for span in spans if _is_front_root(span))
        self.server_ms = (
            max(0.0, (dispatch["sum"] if dispatch else 0.0) - served)
            * self.ms / self.pairs
        )

        self.traced_seconds = sum(
            seconds for seconds, traced in zip(window.seconds, window.traced)
            if traced
        )
        handler_busy = sum(self.by_name["protocol.endpoint.handle"])
        self.parallelism = _ratio(handler_busy, self.traced_seconds)

        self.walls: dict[int, float] = defaultdict(float)
        for span in spans:
            if span.layer == CLIENT and span.parent is None:
                self.walls[span.pair] += span.duration
        #: Pairs whose exchanges fanned out to two shards at once: their
        #: legs overlap, so their self times do not stack.
        self.scattered = {span.pair for span in spans if _is_scatter_leg(span)}

    def self_ms(self, pairs: "set[int] | None" = None) -> dict[str, float]:
        """Self time per layer in ms per pair, over ``pairs`` (default all)."""
        totals: dict[str, float] = defaultdict(float)
        for span, own, layer in zip(self.spans, self.own, self.charged):
            if pairs is None or span.pair in pairs:
                totals[layer] += own
        count = self.pairs if pairs is None else max(1, len(pairs))
        return {layer: total * self.ms / count for layer, total in totals.items()}

    def ship_codec_ms(self) -> float:
        """The codec's part of replication's subtree, in ms per pair."""
        return sum(
            own
            for span, own, layer in zip(self.spans, self.own, self.charged)
            if span.layer == SOAP and layer == SHIPPING
        ) * self.ms / self.pairs

    def p50_ms(self, name: str) -> float:
        durations = self.by_name.get(name)
        return percentile(durations, 0.5) * self.ms if durations else 0.0

    def calls_per_pair(self, layer: str) -> float:
        return sum(1 for span in self.spans if span.layer == layer) / self.pairs

    def budget(self) -> dict:
        """The printed budget (see :func:`benchmarks.perf.cli.print_budget`).

        One-at-a-time workloads stack: every instant of a pair is some
        layer's self time or the residual, so rows + residual add up to
        the pair.  Pairs that scattered are left out of the stack.
        """
        if self.stacked:
            kept = set(self.walls) - self.scattered
            self_ms = self.self_ms(kept)
            walls = [self.walls[pair] * self.ms for pair in kept]
            pair_mean = statistics.mean(walls) if walls else 0.0
            residual = self_ms.get(TRANSPORT, 0.0) - self.server_ms
        else:
            kept = None
            self_ms = self.self_ms()
            walls = []
            pair_mean = self.traced_seconds * self.ms / self.pairs
        rows = []
        for layer in BUDGET_LAYERS:
            ms = self.server_ms if layer == SERVER else self_ms.get(layer, 0.0)
            waiting = not self.stacked and layer in _WAIT_LAYERS
            rows.append({"layer": layer, "ms_per_pair": ms, "waiting": waiting})
        busy = sum(row["ms_per_pair"] for row in rows if not row["waiting"])
        if not self.stacked:
            residual = pair_mean - busy
        total = busy + residual
        for row in rows:
            row["share"] = _ratio(row["ms_per_pair"], total)
        return {
            "stacked": self.stacked,
            "pairs": self.pairs if kept is None else len(kept),
            "left_out": len(self.scattered) if self.stacked else 0,
            "rows": rows,
            "residual_ms": residual,
            "residual_share": _ratio(residual, total),
            "total_ms": total,
            "pair_ms_mean": pair_mean,
            "pair_ms_p50": percentile(walls, 0.5) if walls else None,
            "parallelism": self.parallelism,
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(
    workload: Workload,
    window,
    tracer: Tracer,
    counters: CounterLog,
    probed: Mapping[str, float],
    as_measured: Mapping[str, float],
    anomalies: int,
) -> tuple[dict[str, tuple[float, str]], dict]:
    """``(per-layer metrics, budget)`` of one traced run.

    A layer the workload does not use reports 0: it did no work here.
    Timings are in reference time (``probed`` ones are scaled here;
    ``as_measured`` ones — the device, the recovery after the window —
    have no host-speed reading beside them and stay as they are).
    """
    account = Account(workload, window, tracer, counters)
    speed = statistics.median(window.speed)
    budget = account.budget()
    self_ms = account.self_ms()
    plain = counters.totals[False]
    pairs = max(1, plain["pairs"])

    def count(role: str, name: str) -> float:
        return plain[f"{role}/{name}"]

    dispatch = counters.histogram(False, "front/server.dispatch_seconds")
    samples = window.samples
    wire = sum(
        count(role, name)
        for role in ("front", "back")
        for name in ("server.bytes_in", "server.bytes_out")
    )
    values: dict[str, float] = {
        **{name: value * speed for name, value in probed.items()},
        **as_measured,
        "protocol.soap.calls_per_pair": account.calls_per_pair(SOAP),
        "protocol.soap.self_ms_per_pair": self_ms.get(SOAP, 0.0),
        "protocol.soap.wire_bytes_per_pair": wire / pairs,
        "protocol.client.self_ms_per_pair": self_ms.get(CLIENT, 0.0),
        "net.client.retries": count("client", "client.retries")
        + count("client", "client.timeouts"),
        "net.server.dispatch_ms_p50": (
            histogram_quantile(dispatch["buckets"], dispatch["overflow"], 0.5)
            * 1000.0 * window.host_speed(traced=False)
            if dispatch
            else 0.0
        ),
        "net.server.self_ms_per_pair": account.server_ms,
        "net.server.duplicates_served": count("front", "server.duplicates_served"),
        "net.executor.barriers": count("front", "executor.barriers"),
        "net.executor.parallelism": account.parallelism,
        "net.pipeline.window_stalls_per_pair": _ratio(
            count("client", "pipeline.window_stalls"), pairs
        ),
        "protocol.endpoint.handle_ms_p50": account.p50_ms("protocol.endpoint.handle"),
        "protocol.endpoint.self_ms_per_pair": self_ms.get(ENDPOINT_LAYER, 0.0),
        "core.manager.request_ms_p50": account.p50_ms("core.manager.request_promise"),
        "core.manager.execute_ms_p50": account.p50_ms("core.manager.execute"),
        "core.manager.release_ms_p50": account.p50_ms("core.manager.release"),
        "core.manager.self_ms_per_pair": self_ms.get(MANAGER, 0.0),
        "core.manager.live_promises": statistics.mean(window.live),
        "core.manager.rejected_share": _ratio(samples.rejected, samples.requests),
        "storage.store.self_ms_per_pair": self_ms.get(STORE, 0.0),
        "storage.wal.append_us": account.p50_ms("storage.wal.append") * 1000.0,
        "storage.wal.self_ms_per_pair": self_ms.get(WAL, 0.0),
        "storage.wal.records_per_pair": plain["wal_records"] / pairs,
        "storage.wal.bytes_per_pair": plain["wal_bytes"] / pairs,
        "storage.wal.fsyncs_per_pair": plain["fsyncs"] / pairs,
        "storage.group_commit.records_per_flush": _ratio(
            count("front", "wal.batch.records"), count("front", "wal.batch.flushes")
        ),
        "storage.group_commit.wait_durable_ms_p50": account.p50_ms(
            "storage.group_commit.wait_durable"
        ),
        "cluster.gateway.send_ms_p50": account.p50_ms("cluster.gateway.send"),
        "cluster.gateway.self_ms_per_pair": self_ms.get(GATEWAY, 0.0),
        "cluster.gateway.legs_per_pair": plain["legs"] / pairs,
        "cluster.gateway.scattered_share": _ratio(
            count("client", "gateway.scattered"), count("client", "gateway.requests")
        ),
        "cluster.gateway.compensations": count("client", "gateway.compensations"),
        "replication.shipping.flush_ms_p50": account.p50_ms(
            "replication.shipping.flush"
        ),
        "replication.shipping.self_ms_per_pair": self_ms.get(SHIPPING, 0.0),
        "replication.shipping.codec_ms_per_pair": account.ship_codec_ms(),
        "replication.shipping.ships_per_pair": count("front", "repl.ships") / pairs,
        "replication.shipping.records_per_ship": _ratio(
            count("front", "repl.records_shipped"), count("front", "repl.ships")
        ),
        "bench.host_speed": speed,
        "bench.trace_overhead_share": 1.0
        - _ratio(window.rate(traced=True), window.rate(traced=False)),
        "bench.budget_residual_share": budget["residual_share"],
        "bench.failed_share": _ratio(samples.failed, samples.attempted),
        "bench.anomalies": float(anomalies),
    }
    return (
        {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()},
        budget,
    )
