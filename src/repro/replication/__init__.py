"""The fleet, and primary/backup replication for its shards.

The paper's prototype (§8) interposes a *single* promise manager in
front of the resource manager.  :class:`ReplicatedFleet` boots N of them
as the shards a :class:`~repro.cluster.gateway.ClusterGateway` routes
over, each shard a **replica group** of one primary and ``replicas``
followers.  ``replicas=0`` is the paper's arrangement — a killed shard's
resources stay unavailable until someone calls ``restart``, which
reboots it from its own WAL — and is not a different class: it is a
group with nobody to ship to.  With followers:

* the primary ships its WAL lines verbatim, one length-prefixed frame
  per batch, to a log listener on each of its followers
  (:class:`~repro.replication.shipping.ReplicationSender` /
  :class:`~repro.replication.shipping.ReplicationReceiver`), which write
  them into their own log files and stay hot;
* a per-group monotonic **epoch** fences split-brain: promotion bumps
  it, the token is stamped on the replication stream and on requests
  and replies, and a deposed primary's late writes and acks are
  rejected — by its followers, by the promoted server, and by the
  gateway's transport-generation fence;
* a heartbeat failure detector
  (:class:`~repro.replication.fleet.HeartbeatDetector`) notices a dead
  primary, promotes the most-caught-up follower
  (:meth:`~repro.replication.fleet.ReplicatedFleet.failover`), remaps
  gateway routing, resets the shard's circuit breaker and flushes
  pending compensations — a shard crash costs a few heartbeat
  intervals instead of manual intervention.

The class is named for its general case and lives here, not in
:mod:`repro.cluster`, because the benchmark harness imports it by this
name and path.
"""

from .routing import ReplicaRouting
from .shipping import (
    REPL_ENDPOINT,
    ReplicationReceiver,
    ReplicationSender,
)
from .fleet import (
    HeartbeatDetector,
    Replica,
    ReplicaGroup,
    ReplicatedFleet,
)

__all__ = [
    "REPL_ENDPOINT",
    "HeartbeatDetector",
    "Replica",
    "ReplicaGroup",
    "ReplicaRouting",
    "ReplicatedFleet",
    "ReplicationReceiver",
    "ReplicationSender",
]
