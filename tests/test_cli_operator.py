"""The operator path, run the way an operator runs it.

Each test starts a real ``serve`` or ``serve-cluster`` process, reads
the address it bound from its banner, drives it from separate ``call``,
``top`` and ``doctor`` processes, and stops it with one SIGINT: the
server must exit 0 and say it is shutting down.
"""

from __future__ import annotations

import pytest

from repro.cluster.partition import PartitionMap

from .processes import cli


def test_serve_operator_path(launch, tmp_path):
    wal = str(tmp_path / "store.wal")
    server = launch(
        "serve", "--port", "0", "--wal", wal, "--endpoint", "store",
        "--stock", "7", "--max-queue", "8", "--rate-limit", "100",
    )
    banner = server.await_line(r"serving endpoint 'store' on (\S+:\d+) \(")
    address = banner.group(1)
    assert "widgets stock: 7" in banner.string
    assert f"wal: {wal}" in banner.string
    assert "admission: queue<=8 rate=100.0/s" in banner.string

    called = cli(
        "call", "--connect", address, "--endpoint", "store",
        "--predicate", "quantity('widgets') >= 2",
        "--service", "merchant", "--operation", "sell",
        "--param", "product=widgets", "--param", "quantity=1",
    )
    assert called.returncode == 0, called.stdout
    assert "promise GRANTED as " in called.stdout
    assert "merchant.sell: ok" in called.stdout

    scraped = cli("top", "--connect", address)
    assert scraped.returncode == 0, scraped.stdout
    assert f"shard 0 @ {address} (totals)" in scraped.stdout

    assert server.interrupt() == 0, server.output
    assert "shutting down" in server.output

    for flags in ((), ("--repair",)):
        audited = cli("doctor", "--wal", wal, "--endpoint", "store", *flags)
        assert audited.returncode == 0, audited.stdout
        assert "healthy" in audited.stdout


def _cross_shard_pair(shards: int, products: int) -> tuple[str, str]:
    """Two products the fleet's ring places on different shards."""
    ring = PartitionMap(shards)
    names = [f"product-{number}" for number in range(products)]
    for name in names[1:]:
        if ring.shard_of(name) != ring.shard_of(names[0]):
            return names[0], name
    raise AssertionError(f"the ring put all {products} products on one shard")


@pytest.mark.parametrize(
    "replicas, workers", [(0, 0), (1, 4)], ids=["replicas0", "replicas1-workers4"]
)
def test_serve_cluster_operator_path(launch, tmp_path, replicas, workers):
    server = launch(
        "serve-cluster", "--port", "0", "--shards", "2",
        "--products", "8", "--wal-dir", str(tmp_path),
        "--replicas", str(replicas), "--workers", str(workers),
    )
    addresses = server.await_line(
        r"gateway clients: call --cluster (\S+)"
    ).group(1)
    ports = [int(part.rpartition(":")[2]) for part in addresses.split(",")]
    assert len(set(ports)) == 2 and min(ports) >= 1024, addresses

    near, far = _cross_shard_pair(2, 8)
    called = cli(
        "call", "--cluster", addresses,
        "--predicate", f"quantity('{near}') >= 2 and quantity('{far}') >= 1",
    )
    assert called.returncode == 0, called.stdout
    assert "promise GRANTED as cluster/" in called.stdout

    assert server.interrupt() == 0, server.output
    assert "shutting down fleet" in server.output
