"""Tests for the command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import build_parser, main

from .processes import cli as spawn_cli


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def closed(monkeypatch):
    """Names of the deployments closed while the test runs."""
    from repro.services.deployment import Deployment

    names: list[str] = []
    close = Deployment.close

    def recording_close(self):
        names.append(self.name)
        close(self)

    monkeypatch.setattr(Deployment, "close", recording_close)
    return names


@pytest.fixture
def interrupted_serve(monkeypatch):
    """``serve`` in process: it binds, prints its banner, and is stopped
    as SIGINT would stop it instead of serving forever."""
    from repro.net import PromiseServer

    async def interrupted(self):
        await self.stop()  # what the real loop's cancellation does
        raise KeyboardInterrupt

    monkeypatch.setattr(PromiseServer, "serve_forever", interrupted)


def serve_process(launch, *flags: str):
    """A real ``serve --port 0`` process, the address it bound and its
    banner line."""
    server = launch("serve", "--port", "0", *flags)
    banner = server.await_line(r"serving endpoint '\S+' on (\S+:\d+) \(")
    return server, banner.group(1), banner.string


def call_sell(address: str, *flags: str):
    """``call``: a grant on two widgets, then one sold under it."""
    return spawn_cli(
        "call", "--connect", address, *flags,
        "--predicate", "quantity('widgets') >= 2",
        "--service", "merchant", "--operation", "sell",
        "--param", "product=widgets", "--param", "quantity=1",
    )


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
    # The ``self_test`` names are those of the checks the removed
    # ``serve --self-test`` flag ran; they now drive a real ``serve``.

    def test_self_test_round_trip(self, launch):
        server, address, __ = serve_process(launch)
        for __ in range(2):
            called = call_sell(address)
            assert called.returncode == 0, called.stdout
            assert "promise GRANTED as " in called.stdout
            assert "merchant.sell: ok" in called.stdout
        assert server.interrupt() == 0, server.output
        assert "shutting down" in server.output

    def test_self_test_with_custom_stock_and_endpoint(self, launch):
        server, address, banner = serve_process(
            launch, "--stock", "7", "--endpoint", "store"
        )
        assert "serving endpoint 'store'" in banner
        assert "widgets stock: 7" in banner
        for need, verdict, code in ((8, "REJECTED", 1), (7, "GRANTED", 0)):
            called = spawn_cli(
                "call", "--connect", address, "--endpoint", "store",
                "--predicate", f"quantity('widgets') >= {need}",
            )
            assert called.returncode == code, called.stdout
            assert f"promise {verdict}" in called.stdout
        assert server.interrupt() == 0, server.output

    def test_interrupted_serve_closes_its_wal(
        self, closed, tmp_path, interrupted_serve
    ):
        code, output = run_cli(
            "serve", "--port", "0", "--wal", str(tmp_path / "shop.wal"),
        )
        assert code == 0
        assert "shutting down" in output
        assert closed == ["shop"]


class TestDoctorCommand:
    @pytest.fixture
    def wal(self, tmp_path):
        """A WAL the served deployment wrote: a grant, a sale under the
        promise, its release, then a clean close."""
        from repro.cli import _build_served_deployment
        from repro.core.environment import Environment
        from repro.core.parser import P

        path = tmp_path / "shop.wal"
        shop = _build_served_deployment(
            "shop", stock=100, wal_path=str(path), out=io.StringIO()
        )
        client = shop.client("doctor-fixture")
        granted = client.request_promise(
            "shop", [P("quantity('widgets') >= 5")], 30
        )
        assert granted.accepted
        sold = client.call(
            "shop", "merchant", "sell", {"product": "widgets", "quantity": 1},
            environment=Environment.of(granted.promise_id),
        )
        assert sold.success
        assert client.release("shop", granted.promise_id) == ()
        shop.close()
        return path

    def test_healthy_wal(self, wal):
        code, output = run_cli("doctor", "--wal", str(wal))
        assert code == 0
        assert "healthy" in output

    def test_repair_flag_accepted(self, wal):
        code, output = run_cli("doctor", "--wal", str(wal), "--repair")
        assert code == 0

    @pytest.mark.parametrize("flags", [("--repair",), ()])
    def test_rebuilds_corrupted_promise_index(self, wal, flags):
        """The index and the watermark are derived state: recovery rebuilds
        them before anything reads through them, with ``--repair`` or not."""
        from repro.core.predicates import quantity_at_least
        from repro.core.table import PROMISE_INDEX_TABLE
        from repro.services.deployment import Deployment

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

    def test_torn_tail_reported_as_note(self, wal):
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

    def test_port_conflict_reports_cleanly(
        self, server_address, closed, tmp_path
    ):
        host, _, port = server_address.rpartition(":")
        code, output = run_cli(
            "serve", "--host", host, "--port", port, "--stock", "5",
            "--wal", str(tmp_path / "shop.wal"),
        )
        assert code == 2
        assert "cannot serve" in output
        assert closed == ["shop"]  # the WAL it opened is closed again

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
    def test_serve_self_test_with_flags(self, launch):
        server, address, __ = serve_process(
            launch, "--max-queue", "16", "--rate-limit", "500"
        )
        called = call_sell(address)
        assert called.returncode == 0, called.stdout
        assert "merchant.sell: ok" in called.stdout
        assert server.interrupt() == 0, server.output

    def test_serve_banner_reports_admission(self, interrupted_serve):
        code, output = run_cli(
            "serve", "--port", "0", "--max-queue", "8", "--rate-limit", "100",
        )
        assert code == 0
        assert "admission: queue<=8 rate=100.0/s" in output
        code, output = run_cli("serve", "--port", "0", "--max-queue", "8")
        assert code == 0
        assert "admission: queue<=8)" in output
        code, output = run_cli("serve", "--port", "0")
        assert code == 0
        assert "admission" not in output


class TestChaosCommand:
    def test_self_test_flags_planted_leak(self, monkeypatch):
        """A promise granted and never released just before the audit
        fails the run: ``chaos ok`` rests on auditors that can fail."""
        from repro.core.parser import P
        from repro.faults.nemesis import ChaosNemesis
        from repro.protocol.client import PromiseClient
        from repro.protocol.retry import RetryPolicy

        audit = ChaosNemesis._audit

        def audit_after_a_leak(self, fleet, gateway):
            client = PromiseClient("planted", gateway, retry=RetryPolicy.none())
            leaked = client.request_promise(
                "shop", [P("quantity('product-0') >= 3")], 600
            )
            assert leaked.accepted
            audit(self, fleet, gateway)

        monkeypatch.setattr(ChaosNemesis, "_audit", audit_after_a_leak)
        code, output = run_cli("chaos", "--seed", "7", "--steps", "6")
        assert code == 1
        assert "chaos FAILED" in output
        assert "live promises" in output
        assert "pool product-0" in output

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

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.seed == 2007
        assert args.steps == 30
        assert args.shards == 3
        assert args.duration is None
