"""A yardstick for the host's speed, so runs can be compared.

Every workload here is CPU-bound Python on loopback, and the hosts this
runs on are shared: the same binary measured 187 and 314 pairs/s five
minutes apart, every workload slowing and speeding together.  Ten runs
of one commit spread 20–45% around their median — wider than any bound
worth setting, and wider than most changes worth making.

So every run also times a fixed computation, the *yardstick*, before the
window and at every slice boundary, and reports its timings in
**reference time**: time as measured × (the yardstick's reference time ÷
the yardstick's time around the sample).  On a host running at the
reference speed the factor is 1 and nothing changes; on a host that is
momentarily 20% slow, latencies are scaled down 20% and rates up.  A
change to the program moves the workload and not the yardstick, so it
shows in full.  The same ten runs then spread 5–9%.

The yardstick does what the program's layers do — JSON of a WAL-like
record, a deep copy, an XML envelope built and parsed — so that whatever
slows the program (clock, cache, memory) slows it alike.  It must never
change: its reference time is part of every committed number.  The raw
values and the factor are kept in each run's document.
"""

from __future__ import annotations

import copy
import json
import time
import xml.etree.ElementTree as ET

#: The yardstick's time on the reference host (2 vCPU, CPython 3.11), at
#: the median of the runs behind ``results/BENCH_11.json``.
REFERENCE_SECONDS = 0.0150

_ROUNDS = 150
_RECORD = {
    "lsn": 123456,
    "type": "put",
    "txn": 4242,
    "table": "promise_table",
    "key": "shop:prm-991",
    "value": {
        "promise_id": "shop:prm-991",
        "client_id": "bench",
        "status": "active",
        "granted_at": 0,
        "expires_at": 3600,
        "predicates": [{"kind": "quantity", "pool": "product-3", "amount": 1}],
        "meta": {
            "strategies": ["resource_pool"],
            "resource_pool": {"escrow": {"product-3": 1}},
        },
    },
}


def _body() -> None:
    for number in range(_ROUNDS):
        record = json.loads(json.dumps(_RECORD, sort_keys=True))
        image = copy.deepcopy(record)
        image["value"]["status"] = "released"
        envelope = ET.Element("Envelope")
        header = ET.SubElement(envelope, "Header")
        ET.SubElement(
            header,
            "routing",
            {"message-id": f"m-{number}", "sender": "bench", "recipient": "shop"},
        )
        ET.fromstring(ET.tostring(envelope))


def measure() -> float:
    """Seconds the yardstick takes right now: the quicker of two goes,
    so a pre-emption in one of them does not read as a slow host."""
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        _body()
        best = min(best, time.perf_counter() - started)
    return best


def speed(before: float, after: float) -> float:
    """Host speed between two yardstick readings, as a share of the
    reference host's (1.0 = reference, 0.8 = a fifth slower)."""
    return REFERENCE_SECONDS / ((before + after) / 2.0)
