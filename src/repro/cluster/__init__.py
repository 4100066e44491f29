"""repro.cluster — a sharded promise-manager fleet behind one gateway.

The paper's promise managers are single services; this package is the
scale-out step the position paper gestures at ("promise managers could
be provided by trusted third parties", §2): partition the resource space
over N independent managers and put a routing gateway in front, so
clients keep speaking the unchanged §6 protocol to what looks like one
manager.

* :mod:`~repro.cluster.partition` — the deterministic resource → shard
  map (consistent hashing + explicit co-location pins) every party
  shares.
* :mod:`~repro.cluster.gateway` — :class:`ClusterGateway`, a drop-in
  message transport that forwards single-shard traffic verbatim and
  scatter-gathers cross-shard promise requests with compensating
  release, so no torn cross-shard promise survives a rejection, a
  timeout or a shard crash.
* :mod:`~repro.cluster.provision` — what one shard is made of:
  :func:`provision_products` seeds the pools the ring places on it, and
  :func:`host_deployment` puts a deployment behind a server the same
  way for ``repro serve``, a shard's boot and a follower's promotion.

The fleet that boots, kills, restarts and audits the shards is
:class:`repro.replication.ReplicatedFleet`; an unreplicated fleet is
that class with ``replicas=0``.
"""

from .gateway import ClusterGateway
from .partition import CrossShardPredicate, PartitionError, PartitionMap
from .provision import host_deployment, provision_products

__all__ = [
    "ClusterGateway",
    "CrossShardPredicate",
    "PartitionError",
    "PartitionMap",
    "host_deployment",
    "provision_products",
]
