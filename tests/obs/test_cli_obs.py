"""CLI surfacing: ``repro top``, ``repro trace`` and ``call --trace``."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.cluster import provision_products
from repro.replication import ReplicatedFleet

pytestmark = pytest.mark.obs

STOCK = 30


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture()
def fleet(tmp_path):
    fleet = ReplicatedFleet(
        2,
        replicas=0,
        provision=provision_products(4, STOCK),
        wal_dir=str(tmp_path),
    )
    fleet.start()
    yield fleet
    fleet.stop()


def addresses_of(fleet) -> str:
    return ",".join(f"{host}:{port}" for host, port in fleet.addresses())


class TestTop:
    def test_one_shot_renders_every_shard(self, fleet):
        # Drive one grant through the fleet so the WAL counters exist.
        code, __ = run_cli(
            "call", "--cluster", addresses_of(fleet),
            "--predicate", "quantity('product-0') >= 1",
        )
        assert code == 0
        code, output = run_cli("top", "--cluster", addresses_of(fleet))
        assert code == 0
        assert "shard 0 @" in output and "shard 1 @" in output
        assert "server.scrapes = 1" in output
        assert "wal.appends" in output
        # Sweep width without a benchmark: one promise stands, and the
        # grant's isolation check loaded none (nothing shared its pool).
        assert "manager.live_promises = 1" in output
        assert "manager.check.promises = count 1, mean 0.00\n" in output

    def test_single_server_and_json(self, fleet):
        host, port = fleet.addresses()[0]
        code, output = run_cli(
            "top", "--connect", f"{host}:{port}", "--json"
        )
        assert code == 0
        document = json.loads(output)
        assert len(document["shards"]) == 1
        counters = document["shards"][0]["metrics"]["counters"]
        assert counters["server.scrapes"] == 1

    def test_watch_prints_interval_deltas(self, fleet):
        code, output = run_cli(
            "top", "--cluster", addresses_of(fleet),
            "--watch", "0.05", "--iterations", "2",
        )
        assert code == 0
        assert "(totals)" in output
        assert output.count("(last 0.05s)") == 4  # 2 ticks x 2 shards
        # Between ticks only the scrape itself moved.
        assert "server.scrapes = 1" in output

    def test_down_shard_reports_and_fails(self, fleet):
        fleet.kill(1)
        code, output = run_cli("top", "--cluster", addresses_of(fleet))
        assert code == 1
        assert "shard 1 @" in output and "DOWN" in output
        assert "shard 0 @" in output and "server.scrapes = 1" in output

    def test_bad_addresses(self):
        code, output = run_cli("top", "--cluster", "not-an-address")
        assert code == 2
        assert "bad --cluster" in output


class TestCallTraceAndTrace:
    def test_call_trace_renders_and_exports(self, fleet, tmp_path):
        export = str(tmp_path / "call.spans.jsonl")
        code, output = run_cli(
            "call", "--cluster", addresses_of(fleet),
            "--predicate", "quantity('product-0') >= 1",
            "--trace-export", export,
        )
        assert code == 0
        assert "promise GRANTED" in output
        assert "trace: " in output
        for name in ("client.request", "client.attempt", "gateway.route",
                     "gateway.shard_send", "server.dispatch", "server.txn"):
            assert name in output
        trace_id = next(
            line.split("trace: ", 1)[1]
            for line in output.splitlines()
            if line.startswith("trace: ")
        )

        # Render the export offline.
        code, rendered = run_cli("trace", trace_id, "--spans", export)
        assert code == 0
        assert f"trace {trace_id}" in rendered
        assert "server.txn" in rendered

        # And assemble the same trace from a live scrape: the gateway
        # halves are gone with the call process, but the server spans
        # render as promoted roots.
        code, scraped = run_cli(
            "trace", trace_id, "--cluster", addresses_of(fleet)
        )
        assert code == 0
        assert "server.dispatch" in scraped

    def test_call_trace_single_server(self, fleet):
        host, port = fleet.addresses()[0]
        code, output = run_cli(
            "call", "--connect", f"{host}:{port}",
            "--service", "merchant", "--operation", "stock_level",
            "--param", "product=product-0",
            "--trace",
        )
        assert code == 0
        assert "trace: " in output
        assert "server.dispatch" in output

    def test_trace_not_found(self, fleet):
        code, output = run_cli(
            "trace", "no-such-trace", "--cluster", addresses_of(fleet)
        )
        assert code == 1
        assert "no spans for trace" in output

    def test_trace_missing_export_file(self):
        code, output = run_cli(
            "trace", "whatever", "--spans", "/nonexistent/spans.jsonl"
        )
        assert code == 2
        assert "no such span export" in output
