"""Thread-safe metrics registry: counters, gauges, latency histograms.

The substrate grew one ad-hoc ``stats`` dataclass per subsystem
(client, server, gateway, admission, transport) — each a bag of plain
``int`` fields bumped with unsynchronized ``+=``.  That was tolerable
while every component lived on one thread; it stopped being true the
moment the asyncio server, the gateway's scatter-gather pool and the
replication shipper started touching the same numbers.  This module
replaces them all with one primitive:

* a :class:`MetricsRegistry` of named instruments with hierarchical
  dotted names (``server.shed``, ``gateway.breaker_fast_failures``,
  ``repl.ship_lag_lsn``) — every mutation happens under one registry
  lock, so concurrent increments never lose updates;
* :class:`Counter` (monotonic), :class:`Gauge` (set/add), and
  fixed-bucket :class:`Histogram` (latency distributions with a stable
  bucket layout, so snapshots from different processes merge);
* :meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.delta`
  export everything as plain JSON-able dicts — the payload the server's
  ``_metrics`` endpoint returns and ``repro top`` renders;
* :class:`NullRegistry`, a no-op drop-in whose mutation methods do
  nothing, so a benchmark can measure the instrumented pipeline with
  observability priced at (almost) zero.

There is one tally: a component's counters live in its registry, and
callers read them by name (``server.metrics.value("server.shed")``).
"""

from __future__ import annotations

import json
import threading
from typing import Callable, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "merge_counters",
]

#: Fixed upper bounds (seconds) for latency histograms.  Chosen to span
#: in-process dispatch (~100 µs) through cross-shard scatter-gathers and
#: failover stalls (~1 s+); the terminal +inf bucket is implicit.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class Counter:
    """A monotonically increasing count, mutated under the registry lock."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0
        self._lock = lock

    def inc(self, amount: int = 1) -> int:
        """Atomically add ``amount`` (must be >= 0); the new count.

        The return value is this increment's own number: two threads
        incrementing at once never both see the same one.
        """
        with self._lock:
            self._value += amount
            return self._value

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time level (queue depth, replication lag, tokens)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket distribution; the layout never changes after creation.

    ``buckets`` are inclusive upper bounds; one implicit overflow bucket
    catches everything larger.  Stable bucket layouts are what let
    ``repro top`` merge scrapes from every shard of a fleet.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "_lock")

    def __init__(
        self,
        name: str,
        lock: threading.Lock,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        self.name = name
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self._lock = lock

    def observe(self, value: float) -> None:
        """Record one sample."""
        with self._lock:
            self.count += 1
            self.total += value
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[index] += 1
                    return
            self.counts[-1] += 1

    def to_dict(self) -> dict[str, object]:
        with self._lock:
            return {
                "count": self.count,
                "sum": self.total,
                "buckets": {
                    repr(bound): self.counts[index]
                    for index, bound in enumerate(self.buckets)
                },
                "overflow": self.counts[-1],
            }


class MetricsRegistry:
    """A named, thread-safe collection of counters, gauges and histograms.

    One lock covers instrument creation *and* every mutation: the
    fleet's hot paths increment a handful of counters per request, and
    a single uncontended lock acquisition costs far less than the XML
    codec work surrounding it.  Instruments are created on first use,
    so call sites never pre-declare anything.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    @property
    def enabled(self) -> bool:
        """False only on the no-op registry."""
        return True

    # ----------------------------------------------------------- instruments

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = Counter(name, self._lock)
                self._counters[name] = instrument
            return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = Gauge(name, self._lock)
                self._gauges[name] = instrument
            return instrument

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        """Get or create the histogram called ``name``."""
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = Histogram(name, self._lock, buckets)
                self._histograms[name] = instrument
            return instrument

    # ------------------------------------------------------------- shortcuts

    def inc(self, name: str, amount: int = 1) -> int:
        """Atomically increment the counter called ``name``; the new count."""
        return self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge called ``name``."""
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record one histogram sample under ``name``."""
        self.histogram(name).observe(value)

    def value(self, name: str) -> float:
        """Current value of a counter or gauge (0 when never touched)."""
        with self._lock:
            counter = self._counters.get(name)
            if counter is not None:
                return counter._value
            gauge = self._gauges.get(name)
            if gauge is not None:
                return gauge._value
        return 0

    # --------------------------------------------------------------- export

    def snapshot(self) -> dict[str, object]:
        """Everything, as a plain JSON-able dict.

        Shape: ``{"counters": {name: int}, "gauges": {name: float},
        "histograms": {name: {count, sum, buckets, overflow}}}`` —
        exactly what the SOAP value codec can carry, so the server's
        ``_metrics`` endpoint returns this verbatim.
        """
        with self._lock:
            counters = {name: c._value for name, c in self._counters.items()}
            gauges = {name: g._value for name, g in self._gauges.items()}
            histograms = list(self._histograms.values())
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": {h.name: h.to_dict() for h in histograms},
        }

    def delta(self, previous: Mapping[str, object]) -> dict[str, object]:
        """Counters and histogram counts since ``previous`` snapshot.

        Gauges are levels, not totals — the delta reports their current
        value unchanged.  ``repro top --watch`` uses this to turn two
        scrapes into a rates table.
        """
        current = self.snapshot()
        return snapshot_delta(previous, current)

    def to_json(self, indent: int | None = None) -> str:
        """The snapshot, serialised."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=indent)


def snapshot_delta(
    previous: Mapping[str, object], current: Mapping[str, object]
) -> dict[str, object]:
    """Difference of two :meth:`MetricsRegistry.snapshot` dicts."""
    prev_counters = previous.get("counters", {})
    assert isinstance(prev_counters, Mapping)
    counters = {
        name: value - int(prev_counters.get(name, 0))  # type: ignore[call-overload]
        for name, value in current.get("counters", {}).items()  # type: ignore[union-attr]
    }
    prev_hists = previous.get("histograms", {})
    assert isinstance(prev_hists, Mapping)
    histograms = {}
    for name, hist in current.get("histograms", {}).items():  # type: ignore[union-attr]
        prev = prev_hists.get(name, {})
        assert isinstance(prev, Mapping)
        histograms[name] = {
            "count": hist["count"] - int(prev.get("count", 0)),  # type: ignore[call-overload]
            "sum": hist["sum"] - float(prev.get("sum", 0.0)),  # type: ignore[arg-type]
        }
    return {
        "counters": counters,
        "gauges": dict(current.get("gauges", {})),  # type: ignore[call-overload]
        "histograms": histograms,
    }


def merge_counters(snapshots: Iterable[Mapping[str, object]]) -> dict[str, int]:
    """Sum the counters of several snapshots (fleet-wide totals)."""
    totals: dict[str, int] = {}
    for snapshot in snapshots:
        counters = snapshot.get("counters", {})
        if not isinstance(counters, Mapping):
            continue
        for name, value in counters.items():
            totals[name] = totals.get(name, 0) + int(value)  # type: ignore[call-overload]
    return totals


class _NullInstrument:
    """One shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    name = "null"
    value = 0
    count = 0
    total = 0.0
    buckets: tuple[float, ...] = ()

    def inc(self, amount: int = 1) -> int:
        return 0

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def to_dict(self) -> dict[str, object]:
        return {"count": 0, "sum": 0.0, "buckets": {}, "overflow": 0}


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """A registry whose mutations cost one attribute lookup and a pass.

    Benchmarks hand this to the stack to measure what observability
    itself costs; components treat it exactly like the real thing.
    """

    @property
    def enabled(self) -> bool:
        return False

    def counter(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def gauge(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def histogram(self, name: str, buckets=DEFAULT_LATENCY_BUCKETS):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def inc(self, name: str, amount: int = 1) -> int:
        return 0

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass


#: Shared no-op registry for callers that just want metrics switched off.
NULL_REGISTRY = NullRegistry()


def wal_observer(registry: MetricsRegistry) -> Callable[[object], None]:
    """A WAL ``subscribe`` observer that counts appends into ``registry``.

    Counts every appended record as ``wal.appends`` and breaks out the
    two operationally interesting boundaries: ``wal.commits`` (the unit
    of durable work) and ``wal.checkpoints`` (log truncations).  Duck-
    typed against :class:`~repro.storage.wal.LogRecord` so the storage
    layer needs no observability import.
    """

    def observe(record: object) -> None:
        registry.inc("wal.appends")
        name = getattr(getattr(record, "record_type", None), "name", "")
        if name == "COMMIT":
            registry.inc("wal.commits")
        elif name == "CHECKPOINT":
            registry.inc("wal.checkpoints")

    return observe
