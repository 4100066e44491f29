"""One measured run of one workload, in this process.

Set-up (timed, several times), warm-up, then a measured window cut
into one-second slices with a host-speed reading between them;
afterwards the correctness gate: final state, WAL history audit,
recovery from the run's own WALs.  With ``trace`` on, every other slice
is traced and the per-layer metrics are derived (see
:mod:`benchmarks.perf.layers`).

Timings are reported in reference time (see
:mod:`benchmarks.perf.yardstick`); the raw values and the host-speed
factor are kept beside them in the run's document.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.faults.history import HistoryRecorder, audit_history
from repro.storage.wal import WriteAheadLog

from . import layers, probes, yardstick
from .spans import Tracer
from .stats import median_rate, percentile, percentile_supported
from .workloads import WORKLOADS, Samples, Workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: Scratch space for WALs, inside the checkout and ignored by git.
WORK_DIR = os.path.join(BENCH_DIR, ".work")

#: Length of one slice of the measured window.  Traced runs trace every
#: other slice, so drift over the run (a growing WAL) lands on both
#: sides equally.
SLICE_SECONDS = 1.0
#: Untraced runs set the system up at least SETUPS_MIN times, and go on
#: (to SETUPS_MAX) until set-up has taken SETUP_SECONDS in all: a set-up
#: of a few milliseconds needs more repeats for a steady median.
SETUPS_MIN = 5
SETUPS_MAX = 15
SETUP_SECONDS = 1.0


def warmup_seconds(window: float) -> float:
    """Warm-up fills caches, the connection pool and the first WAL
    segment; short smoke windows get a proportionally short one."""
    return 3.0 if window >= 10 else 1.0


class FsyncCounter:
    """Counts ``os.fsync`` calls without forwarding them to the device.

    The run's WALs live inside the checkout, on whatever disk that is;
    its fsync cost varied 2.7x between back-to-back runs on the
    reference host, which would drown every software change.  The
    program still runs with ``fsync=True`` and issues every barrier —
    the flush policy is the same on both sides of any comparison — but
    the barrier is counted here, not paid, and the device is timed
    separately by :func:`benchmarks.perf.probes.device_fsync_ms`.
    """

    def __init__(self) -> None:
        self.calls = 0
        self.device_fsync = os.fsync

    def install(self) -> None:
        os.fsync = self._count  # type: ignore[assignment]

    def restore(self) -> None:
        os.fsync = self.device_fsync

    def _count(self, fd: int) -> None:
        self.calls += 1


@dataclass
class Window:
    """Raw observations of one measured window, slice by slice."""

    samples: Samples = field(default_factory=Samples)
    pairs: list[int] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    #: Host speed during each slice, as a share of the reference host's.
    speed: list[float] = field(default_factory=list)
    #: How many grant / settle samples existed when each slice ended.
    grant_marks: list[int] = field(default_factory=list)
    settle_marks: list[int] = field(default_factory=list)
    live: list[int] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def rate(self, traced: bool = False, reference: bool = True) -> float:
        """Pairs per second: the median of the slice rates.

        A stall in one slice (a journal eviction sweep, a neighbour on
        the host) moves the mean of the window but not this.
        """
        kept = [
            (pairs, seconds * (speed if reference else 1.0))
            for pairs, seconds, speed, flag in zip(
                self.pairs, self.seconds, self.speed, self.traced
            )
            if flag == traced
        ]
        return median_rate(*zip(*kept))

    def latencies(
        self, values: list[float], marks: list[int], reference: bool = True
    ) -> list[float]:
        """Latency samples of the untraced slices, each scaled by the
        host speed of the slice it was taken in."""
        scaled = []
        start = 0
        for end, speed, traced in zip(marks, self.speed, self.traced):
            if not traced:
                factor = speed if reference else 1.0
                scaled += [value * factor for value in values[start:end]]
            start = end
        return scaled

    def host_speed(self, traced: bool = False) -> float:
        return statistics.median(
            speed for speed, flag in zip(self.speed, self.traced) if flag == traced
        )


def measure(
    workload: Workload,
    seconds: float,
    tracer: Tracer | None = None,
    counters: "layers.CounterLog | None" = None,
) -> Window:
    """Drive ``workload`` for ``seconds``, slice by slice.

    A unit that straddles a boundary counts in the slice it completes
    in, and that slice's length is measured, not assumed, so each slice
    rate is exact.  Between slices — outside their time — the yardstick
    is read, the counters are read and the live set is sampled.
    """
    window = Window()
    slices = max(4, 2 * round(seconds / (2 * SLICE_SECONDS)))
    length = seconds / slices
    reading = yardstick.measure()
    for number in range(slices):
        traced = tracer is not None and number % 2 == 1
        if counters is not None:
            counters.open()
        if tracer is not None:
            tracer.enabled = traced
        before = workload.pairs_done
        started = time.perf_counter()
        deadline = started + length
        while time.perf_counter() < deadline:
            if tracer is not None:
                tracer.pair += 1
            workload.unit(window.samples)
            if not window.peak_rss_mb and (
                workload.pairs_done >= workload.memory_mark_pairs
            ):
                window.peak_rss_mb = peak_rss_mb()
        window.seconds.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.enabled = False
        window.pairs.append(workload.pairs_done - before)
        window.traced.append(traced)
        window.grant_marks.append(len(window.samples.grant_ms))
        window.settle_marks.append(len(window.samples.settle_ms))
        previous, reading = reading, yardstick.measure()
        window.speed.append(yardstick.speed(previous, reading))
        if counters is not None:
            counters.close(traced)
        window.live.append(workload.live_promises())
    if not window.peak_rss_mb:
        window.peak_rss_mb = peak_rss_mb()
    return window


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(
    name: str, seed: int, root: str, once: bool
) -> tuple[Workload, list[float], list[float]]:
    """Build the workload's system repeatedly; keep the last one.

    Returns ``(workload, set-up seconds in reference time, raw)``.
    """
    workload = None
    reference: list[float] = []
    raw: list[float] = []
    reading = yardstick.measure()
    for attempt in range(1 if once else SETUPS_MAX):
        if workload is not None:
            workload.close()
        workload = WORKLOADS[name](seed)
        home = os.path.join(root, f"setup-{attempt}")
        os.makedirs(home)
        started = time.perf_counter()
        try:
            workload.build(home)
        except BaseException:
            workload.close()
            raise
        raw.append(time.perf_counter() - started)
        previous, reading = reading, yardstick.measure()
        reference.append(raw[-1] * yardstick.speed(previous, reading))
        if len(raw) >= SETUPS_MIN and sum(raw) >= SETUP_SECONDS:
            break
    assert workload is not None
    return workload, reference, raw


def audit_wals(wals: Mapping[str, WriteAheadLog]) -> list[str]:
    """Replay every WAL of the run through the offline history checker."""
    recorder = HistoryRecorder()
    for shard, (_, wal) in enumerate(sorted(wals.items())):
        observe = recorder.observer(shard)
        for record in wal:
            observe(record)
    return audit_history(recorder)


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    spans_path: str | None = None,
) -> dict:
    """One run; returns the result document (see :func:`result_line`)."""
    fsyncs = FsyncCounter()
    root = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    os.makedirs(root, exist_ok=True)
    workload = None
    try:
        device_ms = probes.device_fsync_ms(root)
        fsyncs.install()
        workload, setups, setups_raw = set_up(name, seed, root, once=trace)

        probed = probes.run_all(workload, root) if trace else {}
        warm_until = time.perf_counter() + warmup_seconds(seconds)
        while time.perf_counter() < warm_until:
            workload.unit(Samples())

        tracer = counters = None
        if trace:
            tracer = Tracer()
            counters = layers.CounterLog(workload, fsyncs)
            layers.install(tracer, workload)
        window = measure(workload, seconds, tracer, counters)
        if tracer is not None:
            tracer.restore()

        anomalies = [f"final state: {p}" for p in workload.verify()]
        workload.settle()
        wal_records = sum(len(wal) for wal in workload.primary_wals())
        wals = workload.wals()
        workload.close()
        closed, workload = workload, None
        anomalies += [f"history: {a}" for a in audit_wals(wals)]
        replay_s, replayed, mismatches = closed.reopen()
        anomalies += mismatches
        if replayed < wal_records:
            anomalies.append(
                f"recovery replayed {replayed} records, the run wrote "
                f"{wal_records}"
            )
    finally:
        if workload is not None:
            workload.close()
        fsyncs.restore()
        shutil.rmtree(root, ignore_errors=True)

    samples = window.samples
    grant = window.latencies(samples.grant_ms, window.grant_marks)
    settle = window.latencies(samples.settle_ms, window.settle_marks)
    if not grant or not settle:
        anomalies.append("no exchange completed")
    document = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "anomalies": anomalies,
        "pairs": sum(window.pairs),
        "samples": {"grant": len(grant), "settle": len(settle)},
        "p95_supported": percentile_supported(min(len(grant), len(settle)), 0.95),
        "host_speed": window.host_speed(),
        "metrics": {},
    }
    if not grant or not settle:
        return document
    if trace:
        assert tracer is not None and counters is not None
        if spans_path:
            tracer.write_jsonl(spans_path)
        document["metrics"], document["budget"] = layers.derive(
            workload=closed,
            window=window,
            tracer=tracer,
            counters=counters,
            probed=probed,
            as_measured={
                "storage.device.fsync_ms_p50": device_ms,
                "recovery.replay_ms": replay_s * 1000.0,
                "recovery.replay_us_per_record": replay_s * 1e6 / max(1, replayed),
            },
            anomalies=len(anomalies),
        )
    else:
        raw_grant = window.latencies(samples.grant_ms, window.grant_marks, False)
        raw_settle = window.latencies(samples.settle_ms, window.settle_marks, False)
        document["metrics"] = {
            "setup_s": (statistics.median(setups), "s"),
            "pairs_per_s": (window.rate(), "1/s"),
            "grant_ms_p50": (percentile(grant, 0.50), "ms"),
            "grant_ms_p95": (percentile(grant, 0.95), "ms"),
            "settle_ms_p50": (percentile(settle, 0.50), "ms"),
            "settle_ms_p95": (percentile(settle, 0.95), "ms"),
            "peak_rss_mb": (window.peak_rss_mb, "MiB"),
        }
        document["as_measured"] = {
            "setup_s": statistics.median(setups_raw),
            "pairs_per_s": window.rate(reference=False),
            "grant_ms_p50": percentile(raw_grant, 0.50),
            "grant_ms_p95": percentile(raw_grant, 0.95),
            "settle_ms_p50": percentile(raw_settle, 0.50),
            "settle_ms_p95": percentile(raw_settle, 0.95),
        }
    return document


def result_line(document: Mapping) -> dict:
    """The driver's result object: exactly these four keys."""
    return {
        "correct": not document["anomalies"],
        "attempted": max(1, int(document["attempted"])),
        "failed": int(document["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in document["metrics"].items()
        },
    }


def describe(document: Mapping, out=None) -> None:
    """Human-readable lines for one run (printed above the result line)."""
    out = out or sys.stdout
    print(
        f"# {document['workload']} seed={document['seed']} "
        f"window={document['seconds']}s trace={int(document['trace'])}: "
        f"{document['pairs']} pairs, {document['samples']['grant']} grant and "
        f"{document['samples']['settle']} settle samples, "
        f"{document['failed']}/{document['attempted']} exchanges failed, "
        f"{len(document['anomalies'])} anomalies; host speed "
        f"{document['host_speed']:.2f} of the reference (timings are scaled "
        f"to it)",
        file=out,
    )
    if not document["p95_supported"]:
        print(
            "# fewer than ten samples beyond p95: the p95 values are "
            "indicative only",
            file=out,
        )
    for anomaly in document["anomalies"]:
        print(f"# ANOMALY {anomaly}", file=out)
