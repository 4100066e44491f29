"""Shared builders for the gateway suites.

Each shard is an in-process :class:`~repro.services.deployment.Deployment`
owning the ``product-N`` pools the :class:`~repro.cluster.PartitionMap`
places on it, each stocked with ``STOCK`` units; the gateway tests wire
a :class:`~repro.cluster.ClusterGateway` over their transports.
"""

from __future__ import annotations

from repro.cluster import PartitionMap
from repro.protocol.errors import TransportFailure
from repro.protocol.messages import Message
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService

PRODUCTS = 12
STOCK = 20


class ToggleTransport:
    """A shard whose reachability the test flips on and off."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.dead = False

    def send(self, message: Message) -> Message:
        if self.dead:
            raise TransportFailure("shard down")
        return self.inner.send(message)


def build_shards(count: int = 2):
    """``(ring, deployments, pools)``: ``pools[i]`` lists shard i's pools."""
    ring = PartitionMap(count)
    deployments: list[Deployment] = []
    pools: list[list[str]] = []
    for index in range(count):
        deployment = Deployment(name="shop", manager_name=f"shop-s{index}")
        deployment.add_service(MerchantService())
        owned = [
            f"product-{n}"
            for n in range(PRODUCTS)
            if ring.shard_of(f"product-{n}") == index
        ]
        if owned:
            deployment.use_pool_strategy(*owned)
            with deployment.seed() as txn:
                for pool_id in owned:
                    deployment.resources.create_pool(txn, pool_id, STOCK)
        deployments.append(deployment)
        pools.append(owned)
    return ring, deployments, pools


def cross_pair(ring: PartitionMap) -> tuple[str, str]:
    """Two products the ring places on different shards."""
    first = "product-0"
    home = ring.shard_of(first)
    for index in range(1, PRODUCTS):
        candidate = f"product-{index}"
        if ring.shard_of(candidate) != home:
            return first, candidate
    raise AssertionError("no cross-shard pair")
