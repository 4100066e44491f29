"""The benchmark against its own contract, on the smoke profile.

Runs every workload for a few seconds, untraced and traced (about a
minute in all), and holds ``BENCHMARK.json`` and the emitted metrics
together.  Run with ``pytest benchmarks/perf``; not part of tier-1.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
ENTRY = os.path.join(HERE, "__main__.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def report(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    done = subprocess.run(
        [sys.executable, ENTRY, "--smoke", "--traced", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def test_contract_names_are_well_formed_and_unique(contract):
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in contract[section]
    ]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert "setup_s" in {entry["name"] for entry in contract["end_to_end"]}
    assert all(0 < entry["bound"] <= 0.25 for entry in contract["end_to_end"])


def test_every_end_to_end_metric_is_emitted_once_per_workload(contract, report):
    wanted = {entry["name"]: entry["unit"] for entry in contract["end_to_end"]}
    untraced = report["sets"][0]
    assert set(untraced) == {entry["name"] for entry in contract["workloads"]}
    for name, (document,) in untraced.items():
        emitted = document["metrics"]
        assert set(emitted) == set(wanted), name
        for metric, (value, unit) in emitted.items():
            assert unit == wanted[metric], (name, metric)
            assert value > 0, (name, metric)


def test_every_per_layer_metric_is_emitted_once_per_workload(contract, report):
    wanted = {entry["name"]: entry["unit"] for entry in contract["per_layer"]}
    assert set(report["traced"]) == set(report["sets"][0])
    for name, document in report["traced"].items():
        emitted = document["metrics"]
        assert set(emitted) == set(wanted), name
        for metric, (value, unit) in emitted.items():
            assert unit == wanted[metric], (name, metric)
            assert isinstance(value, (int, float)), (name, metric)


def test_no_workload_fails_or_shows_an_anomaly(report):
    documents = [doc for (doc,) in report["sets"][0].values()]
    documents += list(report["traced"].values())
    for document in documents:
        assert document["anomalies"] == [], document["workload"]
        assert document["failed"] == 0, document["workload"]
        assert document["attempted"] > 0, document["workload"]
    for name, document in report["traced"].items():
        assert document["metrics"]["bench.anomalies"][0] == 0, name
        assert document["metrics"]["bench.failed_share"][0] == 0, name


def test_designed_shares_hold(report):
    traced = report["traced"]
    standing = traced["standing_orders"]["metrics"]
    # One request in nine asks for the fully promised pool and is refused.
    assert standing["core.manager.rejected_share"][0] == pytest.approx(1 / 9, abs=0.02)
    assert standing["core.manager.live_promises"][0] == 129
    for name in ("serial_pairs", "pipelined_pairs", "replicated_cross"):
        assert traced[name]["metrics"]["core.manager.rejected_share"][0] == 0
    replicated = traced["replicated_cross"]["metrics"]
    assert replicated["cluster.gateway.scattered_share"][0] == pytest.approx(0.25, abs=0.03)
    assert replicated["cluster.gateway.compensations"][0] == 0
    for name, document in traced.items():
        assert document["metrics"]["net.client.retries"][0] == 0, name
        assert document["metrics"]["net.server.duplicates_served"][0] == 0, name
        assert document["metrics"]["net.executor.barriers"][0] == 0, name


def test_the_budget_names_what_dominates(report):
    def shares(name: str) -> dict[str, float]:
        return {
            row["layer"]: row["share"]
            for row in report["traced"][name]["budget"]["rows"]
            if not row["waiting"]
        }

    standing = shares("standing_orders")
    assert max(standing, key=standing.get) == "core.manager"
    assert standing["core.manager"] > 0.6
    # With no promises standing the check is one row among several.
    assert shares("serial_pairs")["core.manager"] < 0.4
    replicated = shares("replicated_cross")
    assert max(replicated, key=replicated.get) == "replication.shipping"
    for name in ("serial_pairs", "standing_orders", "replicated_cross"):
        budget = report["traced"][name]["budget"]
        # One-at-a-time pairs stack: rows + residual are the pair's mean.
        assert budget["total_ms"] == pytest.approx(budget["pair_ms_mean"], rel=0.02)


def test_the_driver_form_prints_one_result_object(contract):
    done = subprocess.run(
        [sys.executable, ENTRY, "--workload", "serial_pairs", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {e["name"] for e in contract["end_to_end"]}
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}
