"""Tests for the command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestFigure1Command:
    def test_happy_path(self):
        code, output = run_cli("figure1", "--stock", "12", "--need", "5")
        assert code == 0
        assert "GRANTED" in output
        assert "purchase under promise: ok" in output
        assert "'available': 0" in output

    def test_rejection_path_with_counter(self):
        code, output = run_cli("figure1", "--stock", "3", "--need", "5")
        assert code == 1
        assert "REJECTED" in output
        assert "counter-offer: quantity('pink_widgets') >= 3" in output

    def test_limited_rival_appetite(self):
        code, output = run_cli(
            "figure1", "--stock", "20", "--need", "5", "--rival-appetite", "2"
        )
        assert code == 0
        assert "sold 2 units" in output


class TestCompareCommand:
    def test_all_regimes(self):
        code, output = run_cli(
            "compare", "--clients", "12", "--tightness", "2.0", "--seed", "3"
        )
        assert code == 0
        for name in ("promises", "optimistic", "validation", "locking"):
            assert name in output

    def test_regime_subset(self):
        code, output = run_cli(
            "compare", "--clients", "8", "--regimes", "promises", "locking"
        )
        assert code == 0
        assert "promises" in output and "locking" in output
        assert "optimistic" not in output

    def test_rejects_unknown_regime(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--regimes", "hopeful"])


class TestServeCommand:
    def test_self_test_round_trip(self):
        code, output = run_cli("serve", "--self-test")
        assert code == 0
        assert "promise granted" in output
        assert "duplicate served from cache: yes" in output
        assert "self-test ok" in output

    def test_self_test_with_custom_stock_and_endpoint(self):
        code, output = run_cli(
            "serve", "--self-test", "--stock", "7", "--endpoint", "store"
        )
        assert code == 0
        assert "self-test ok" in output

    def test_self_test_restarts_from_wal(self, tmp_path):
        wal = tmp_path / "shop.wal"
        code, output = run_cli("serve", "--self-test", "--wal", str(wal))
        assert code == 0
        assert "killed server; restarting from" in output
        assert "recovery:" in output
        assert "stock after restart" in output and "survived" in output
        assert "journaled reply replayed: yes" in output
        assert "self-test ok" in output
        assert wal.exists()  # an explicit WAL is kept for inspection

    def test_self_test_cleans_up_implicit_wal(self):
        code, output = run_cli("serve", "--self-test")
        assert code == 0
        wal_name = output.split("restarting from ")[1].splitlines()[0]
        import os

        assert not os.path.exists(wal_name)


class TestDoctorCommand:
    def test_healthy_wal(self, tmp_path):
        wal = tmp_path / "shop.wal"
        code, __ = run_cli("serve", "--self-test", "--wal", str(wal))
        assert code == 0
        code, output = run_cli("doctor", "--wal", str(wal))
        assert code == 0
        assert "healthy" in output

    def test_repair_flag_accepted(self, tmp_path):
        wal = tmp_path / "shop.wal"
        run_cli("serve", "--self-test", "--wal", str(wal))
        code, output = run_cli("doctor", "--wal", str(wal), "--repair")
        assert code == 0

    @pytest.mark.parametrize("flags", [("--repair",), ()])
    def test_rebuilds_corrupted_promise_index(self, tmp_path, flags):
        """The index and the watermark are derived state: recovery rebuilds
        them before anything reads through them, with ``--repair`` or not."""
        from repro.core.predicates import quantity_at_least
        from repro.core.table import PROMISE_INDEX_TABLE
        from repro.services.deployment import Deployment

        wal = tmp_path / "shop.wal"
        run_cli("serve", "--self-test", "--wal", str(wal))
        shop = Deployment(name="shop", wal_path=str(wal))
        shop.use_pool_strategy("widgets")
        shop.recover()
        standing = shop.manager.request_promise_for(
            [quantity_at_least("widgets", 1)], 10**6
        )
        assert standing.accepted
        # Empty the promise's resource row and make the watermark claim
        # that nothing is live: the promise would never be checked again,
        # nor ever expire.
        with shop.seed() as txn:
            for key, row in dict(txn.scan(PROMISE_INDEX_TABLE)).items():
                emptied = [] if isinstance(row, list) else {"at": None}
                txn.put(PROMISE_INDEX_TABLE, key, emptied)
        shop.close()

        code, output = run_cli("doctor", "--wal", str(wal), *flags)
        assert code == 0
        assert output.count("repaired: [repaired] promise-index") == 2
        assert standing.promise_id in output
        code, output = run_cli("doctor", "--wal", str(wal))
        assert code == 0 and "healthy" in output and "repaired" not in output

    def test_missing_wal(self, tmp_path):
        code, output = run_cli("doctor", "--wal", str(tmp_path / "nope.wal"))
        assert code == 2
        assert "no such WAL" in output

    def test_torn_tail_reported_as_note(self, tmp_path):
        wal = tmp_path / "shop.wal"
        run_cli("serve", "--self-test", "--wal", str(wal))
        raw = wal.read_bytes()
        wal.write_bytes(raw[:-10])  # tear the final record
        code, output = run_cli("doctor", "--wal", str(wal))
        assert code == 0
        assert "torn tail" in output


class TestCallCommand:
    @pytest.fixture
    def server_address(self):
        from repro.cli import _build_served_deployment
        from repro.net import PromiseServer, ThreadedServer

        deployment = _build_served_deployment("shop", stock=20)
        server = PromiseServer()
        server.register("shop", deployment.endpoint.handle)
        with ThreadedServer(server) as (host, port):
            yield f"{host}:{port}"

    def test_promise_request(self, server_address):
        code, output = run_cli(
            "call", "--connect", server_address,
            "--predicate", "quantity('widgets') >= 5",
        )
        assert code == 0
        assert "GRANTED" in output

    def test_promise_rejection_exit_code(self, server_address):
        code, output = run_cli(
            "call", "--connect", server_address,
            "--predicate", "quantity('widgets') >= 500",
        )
        assert code == 1
        assert "REJECTED" in output

    def test_action_call(self, server_address):
        code, output = run_cli(
            "call", "--connect", server_address,
            "--service", "merchant", "--operation", "sell",
            "--param", "product=widgets", "--param", "quantity=3",
        )
        assert code == 0
        assert "merchant.sell: ok" in output

    def test_promise_plus_action(self, server_address):
        code, output = run_cli(
            "call", "--connect", server_address,
            "--predicate", "quantity('widgets') >= 2",
            "--service", "merchant", "--operation", "sell",
            "--param", "product=widgets", "--param", "quantity=1",
        )
        assert code == 0
        assert "GRANTED" in output and "merchant.sell: ok" in output

    def test_nothing_to_do(self):
        code, output = run_cli("call")
        assert code == 2
        assert "nothing to do" in output

    def test_bad_address(self):
        code, output = run_cli(
            "call", "--connect", "nonsense", "--predicate", "true",
        )
        assert code == 2
        assert "bad --connect" in output

    def test_unreachable_server_reports_cleanly(self):
        code, output = run_cli(
            "call", "--connect", "127.0.0.1:1",
            "--predicate", "quantity('widgets') >= 1",
        )
        assert code == 2
        assert output.startswith("error: ")

    def test_bad_predicate_reports_cleanly(self, server_address):
        code, output = run_cli(
            "call", "--connect", server_address, "--predicate", "quantity(",
        )
        assert code == 2
        assert output.startswith("bad predicate: ")

    def test_port_conflict_reports_cleanly(self, server_address):
        host, _, port = server_address.rpartition(":")
        code, output = run_cli(
            "serve", "--host", host, "--port", port, "--stock", "5",
        )
        assert code == 2
        assert "cannot serve" in output

    def test_fresh_processes_do_not_collide_in_dedup_cache(
        self, server_address, monkeypatch
    ):
        import itertools

        from repro.protocol.client import PromiseClient

        # Each real CLI invocation is a new process whose per-process
        # stub counter restarts at 1.  Emulate that reset between two
        # calls: with a shared client identity both would send message
        # id "...:c1:msg-1" and the second would be served the first's
        # cached reply instead of executing its action.
        code, output = run_cli(
            "call", "--connect", server_address,
            "--predicate", "quantity('widgets') >= 5",
        )
        assert code == 0 and "GRANTED" in output
        monkeypatch.setattr(PromiseClient, "_instances", itertools.count(1))
        code, output = run_cli(
            "call", "--connect", server_address,
            "--service", "merchant", "--operation", "sell",
            "--param", "product=widgets", "--param", "quantity=3",
        )
        assert code == 0
        assert "merchant.sell: ok" in output


class TestResilienceFlags:
    def test_serve_self_test_with_flags(self):
        code, output = run_cli(
            "serve", "--self-test",
            "--max-queue", "16", "--rate-limit", "500",
            "--breaker-threshold", "5",
        )
        assert code == 0
        assert "self-test ok" in output

    def test_serve_banner_reports_admission(self, tmp_path):
        # A flagged self-test run still prints the admission banner line
        # describing the controller it built.
        code, output = run_cli(
            "serve", "--self-test", "--max-queue", "8", "--rate-limit", "100",
        )
        assert code == 0


class TestChaosCommand:
    def test_self_test_flags_planted_leak(self):
        code, output = run_cli("chaos", "--self-test")
        assert code == 0
        assert "planted leak was flagged" in output

    def test_rejects_single_shard(self):
        code, output = run_cli("chaos", "--shards", "1", "--steps", "2")
        assert code == 2
        assert "at least two shards" in output

    @pytest.mark.chaos
    def test_short_seeded_run_is_clean(self):
        code, output = run_cli("chaos", "--seed", "7", "--steps", "6")
        assert code == 0
        assert "chaos ok" in output
        assert '"violations": []' in output


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.clients == 32
        assert args.tightness == 2.0
        assert sorted(args.regimes) == [
            "locking", "optimistic", "promises", "validation",
        ]

    def test_resilience_flags_default_off(self):
        for command in ("serve", "serve-cluster"):
            args = build_parser().parse_args([command])
            assert args.max_queue is None
            assert args.rate_limit is None
            assert args.breaker_threshold is None

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.seed == 2007
        assert args.steps == 30
        assert args.shards == 3
        assert args.duration is None
        assert args.self_test is False
