"""Standalone probes: timed calls of single public functions.

Run before the window of a traced run, on the workload's own messages
and configuration.  Each returns a median, so one scheduling hiccup
does not move it.
"""

from __future__ import annotations

import io
import os
import statistics
import time
from typing import Callable

from repro.core.parser import P
from repro.net import KeyedExecutor, NetworkTransport
from repro.net.framing import encode_frame, read_frame
from repro.net.server import PING_ENDPOINT
from repro.protocol.messages import Message
from repro.protocol.retry import RetryPolicy
from repro.protocol.soap import SoapCodec
from repro.resilience.admission import KIND_CHECK, AdmissionController
from repro.services.deployment import Deployment
from repro.storage.store import Store

from .workloads import PIPELINE_WORKERS, STANDING_PROMISES, Workload


def _median_us(call: Callable[[], object], rounds: int, batch: int = 1) -> float:
    """Median cost of ``call`` in microseconds, ``batch`` calls per timing."""
    costs = []
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(batch):
            call()
        costs.append((time.perf_counter() - started) / batch)
    return statistics.median(costs) * 1e6


def device_fsync_ms(root: str) -> float:
    """Median of a 256-byte write + ``os.fsync`` in the WAL directory.

    Call before :class:`~benchmarks.perf.harness.FsyncCounter` is
    installed: this is the one place the device barrier is paid.
    """
    path = os.path.join(root, "fsync.probe")
    costs = []
    with open(path, "wb") as handle:
        for _ in range(64):
            handle.write(b"x" * 256)
            handle.flush()
            started = time.perf_counter()
            os.fsync(handle.fileno())
            costs.append(time.perf_counter() - started)
    os.unlink(path)
    return statistics.median(costs) * 1000.0


def codec_us(envelopes: list[str]) -> tuple[float, float]:
    """``(encode, decode)`` microseconds per envelope of the pair."""
    codec = SoapCodec()
    messages = [codec.decode(text) for text in envelopes]
    encode = statistics.mean(
        _median_us(lambda m=message: codec.encode(m), 200)
        for message in messages
    )
    decode = statistics.mean(
        _median_us(lambda t=text: codec.decode(t), 200) for text in envelopes
    )
    return encode, decode


def frame_us(envelopes: list[str]) -> float:
    """``encode_frame`` + ``read_frame`` of one envelope, microseconds."""
    payload = max(envelopes, key=len).encode()

    def round_trip() -> None:
        read_frame(io.BytesIO(encode_frame(payload)).read)

    return _median_us(round_trip, 200, batch=25)


def ping_ms(address: tuple[str, int]) -> float:
    """Median ``_ping`` round trip: the floor of one network hop."""
    costs = []
    with NetworkTransport(address, retry=RetryPolicy.none()) as transport:
        for number in range(200):
            message = Message(
                message_id=f"probe-ping-{number}",
                sender="probe",
                recipient=PING_ENDPOINT,
            )
            started = time.perf_counter()
            transport.send(message)
            costs.append(time.perf_counter() - started)
    return statistics.median(costs) * 1000.0


def handoff_us(keys: list[str]) -> float:
    """``KeyedExecutor.submit`` of a no-op: submit to start, microseconds."""
    costs = []
    with KeyedExecutor(PIPELINE_WORKERS) as executor:
        for number in range(1000):
            key = keys[number % len(keys)]
            started = time.perf_counter()
            began = executor.submit({key}, time.perf_counter).result()
            costs.append(began - started)
    return statistics.median(costs) * 1e6


def admit_us() -> float:
    """One ``AdmissionController.admit`` with a bucket that never empties."""
    controller = AdmissionController(max_queue=64, rate=1e9)
    return _median_us(lambda: controller.admit(KIND_CHECK), 200, batch=100)


def commit_us(workload: Workload, root: str) -> float:
    """``store.run`` of one put, hardened, with the workload's WAL config."""
    store = Store(
        wal_path=os.path.join(root, "probe.wal"),
        fsync=True,
        group_commit=workload.group_commit,
    )
    try:
        store.create_table("scratch")
        counter = iter(range(10**9))

        def commit() -> None:
            store.run(lambda txn: txn.put("scratch", "k", {"n": next(counter)}))
            store.wait_durable()

        return _median_us(commit, 200)
    finally:
        store.close()


def grant_us_per_live_promise() -> float:
    """Slope of the isolation check: what one more live promise adds to
    a grant.  ``manager.request_promise_for`` on a scratch in-memory
    deployment, timed with none and with 128 promises standing."""
    shop = Deployment(name="probe")
    try:
        shop.use_pool_strategy("stock")
        with shop.seed() as txn:
            shop.resources.create_pool(txn, "stock", 10**6)
        one = (P("quantity('stock') >= 1"),)

        def grant_cost() -> float:
            costs = []
            for _ in range(30):
                started = time.perf_counter()
                response = shop.manager.request_promise_for(one, 3600)
                costs.append(time.perf_counter() - started)
                shop.manager.release(response.promise_id)
                shop.manager.vacuum()
            return statistics.median(costs)

        empty = grant_cost()
        for _ in range(STANDING_PROMISES):
            shop.manager.request_promise_for(one, 10**6)
        return (grant_cost() - empty) / STANDING_PROMISES * 1e6
    finally:
        shop.close()


def run_all(workload: Workload, root: str) -> dict[str, float]:
    """Every probe, keyed by the per-layer metric it reports."""
    envelopes = workload.sample_envelopes()
    encode, decode = codec_us(envelopes)
    server = workload.fronts()[0][0]
    return {
        "protocol.soap.encode_us": encode,
        "protocol.soap.decode_us": decode,
        "net.framing.frame_us": frame_us(envelopes),
        "net.client.ping_ms_p50": ping_ms(server.address),
        "net.executor.handoff_us": handoff_us(workload.order),
        "resilience.admission.admit_us": admit_us(),
        "storage.store.commit_us": commit_us(workload, root),
        "core.manager.grant_us_per_live_promise": grant_us_per_live_promise(),
    }
