"""Seeded chaos runs: every fault class fires, every invariant holds.

Each test is one fully deterministic-schedule nemesis run (the workload
and fault choices derive from the seed; socket timing does not change
*what* is injected).  The acceptance bar from the issue: at least three
distinct seeds, zero invariant violations, and proof that every fault
class actually fired — plus a planted leak showing the auditors are not
vacuous.
"""

from __future__ import annotations

import pytest

from repro.cluster.provision import provision_products
from repro.core.parser import P
from repro.faults.crashpoints import clear
from repro.faults.nemesis import FAULT_CLASSES, ChaosNemesis, audit_fleet
from repro.protocol.client import PromiseClient
from repro.protocol.retry import RetryPolicy
from repro.replication import ReplicatedFleet

pytestmark = pytest.mark.chaos

SEEDS = (7, 2007, 424242)


@pytest.fixture(autouse=True)
def disarm():
    clear()
    yield
    clear()


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_run_holds_invariants(seed, tmp_path):
    nemesis = ChaosNemesis(seed, wal_dir=str(tmp_path), steps=24)
    report = nemesis.run()
    assert report.violations == []
    for fault in FAULT_CLASSES:
        assert report.fired[fault] > 0, f"{fault} never fired (seed {seed})"
    assert report.ok
    # The offline history checker actually folded records (it is wired
    # into the violations above; an empty capture would prove nothing).
    assert report.history_records > 0
    # At-most-once is proven by the audit above: the drops forced
    # redeliveries, and a double execution would have surfaced as
    # leftover allocation.  (duplicates_served varies with breaker
    # timing — whether the redelivery was served from cache or settled
    # later by the in-doubt drain — so it is reported, not asserted.)


def test_report_summary_is_json_shaped(tmp_path):
    import json

    report = ChaosNemesis(7, wal_dir=str(tmp_path), steps=6).run()
    encoded = json.dumps(report.summary())
    decoded = json.loads(encoded)
    assert decoded["seed"] == 7
    assert set(decoded["faults_fired"]) == set(FAULT_CLASSES)


def test_auditors_catch_a_planted_leak(tmp_path):
    # A granted-but-never-released promise must be flagged as both a
    # live promise and a pool short of its stock; if this fails the
    # green runs above prove nothing.  (The span auditor's planted
    # double grant is tests/obs/test_trace.py.)
    fleet = ReplicatedFleet(
        2,
        replicas=0,
        provision=provision_products(4, 10),
        wal_dir=str(tmp_path),
    )
    fleet.start()
    try:
        with fleet.gateway(retry=RetryPolicy.none()) as gateway:
            client = PromiseClient("planted", gateway, retry=RetryPolicy.none())
            response = client.request_promise(
                "shop", [P("quantity('product-0') >= 3")], 600
            )
            assert response.accepted
        violations = audit_fleet(fleet, stock=10)
    finally:
        fleet.stop()
    assert any("live promises" in v for v in violations)
    assert any("pool product-0" in v for v in violations)


def test_time_budget_stops_early(tmp_path):
    nemesis = ChaosNemesis(
        2007, wal_dir=str(tmp_path), steps=10_000, time_budget=1.0
    )
    report = nemesis.run()
    assert report.steps < 10_000
