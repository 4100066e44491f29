"""A fleet of replica groups with heartbeat-driven automatic failover.

:class:`ReplicatedFleet` is the replicated sibling of
:class:`~repro.cluster.fleet.ClusterFleet` and keeps its surface
(``start``/``stop``/``kill``/``restart``/``shard``/``gateway``/
``audit``/``live_promises``), so gateways, the chaos nemesis and the
benchmarks drive either interchangeably.  Each shard index is a
**replica group**: one primary deployment serving the application
endpoint plus *R* hot followers that hold nothing but a
:class:`~repro.replication.shipping.ReplicationReceiver` and the WAL it
keeps in lock-step with the primary's.

Failover is a local state machine, not a consensus protocol — the paper
(§8) targets a single administrative domain, and the safety burden is
carried by fencing rather than quorum:

* :meth:`failover` promotes the most-caught-up follower by booting a
  full deployment off the follower's WAL through the ordinary recovery
  path (the same code that handles a crash-restart, which is the point:
  a promoted follower *is* a recovered primary);
* the group epoch increments on promotion and is pushed to the
  remaining followers (via full re-sync), to the promoted server, and
  to every attached gateway — the deposed primary's stream, writes and
  late acks all bounce off that token;
* :class:`HeartbeatDetector` pings each group's primary on its
  ``_ping`` endpoint and calls :meth:`failover` after a configurable
  number of consecutive misses, so recovery time is a policy knob
  (``interval × miss_threshold``) rather than an operator's pager.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from dataclasses import dataclass, field

from ..net.server import (
    NET_REPLY_JOURNAL_TABLE,
    PING_ENDPOINT,
    PromiseServer,
    ThreadedServer,
)
from ..net.transport import NetworkTransport
from ..obs.metrics import MetricsRegistry, wal_observer
from ..obs.trace import SpanRecorder
from ..protocol.errors import ProtocolError, RequestTimeout, TransportFailure
from ..protocol.messages import Message
from ..protocol.retry import RetryPolicy
from ..recovery import ReplyJournal
from ..resilience.breaker import CircuitBreaker
from ..cluster.fleet import AdmissionFactory, Provisioner
from ..cluster.gateway import ClusterGateway
from ..cluster.partition import PartitionMap
from ..faults.history import HistoryRecorder
from ..services.deployment import Deployment
from ..tools.doctor import Doctor, Finding
from .routing import ReplicaRouting
from .shipping import REPL_ENDPOINT, ReplicationReceiver, ReplicationSender


@dataclass
class Replica:
    """One process of a replica group (primary, follower, or deposed)."""

    index: int
    name: str
    #: Crash-injection scope, unique per process *incarnation* — a
    #: scoped schedule armed against a primary must keep freezing that
    #: corpse, never the follower promoted in its place.
    scope: str
    server: PromiseServer
    runner: ThreadedServer
    address: tuple[str, int]
    wal_path: str
    #: Follower half: applies the primary's shipped records.
    receiver: ReplicationReceiver | None = None
    #: Primary half: full application deployment plus its WAL shipper.
    deployment: Deployment | None = None
    sender: ReplicationSender | None = None

    @property
    def alive(self) -> bool:
        return self.runner is not None and self.runner._thread is not None

    def applied_lsn(self) -> int:
        if self.receiver is not None and not self.receiver.promoted:
            return self.receiver.applied_lsn
        if self.deployment is not None:
            return self.deployment.store.wal.last_lsn
        return 0


@dataclass
class ReplicaGroup:
    """One shard's replication state: who leads, at which epoch."""

    index: int
    epoch: int
    primary: Replica
    followers: list[Replica] = field(default_factory=list)
    #: Former primaries not yet rejoined as followers.  A deposed node
    #: may still be running (partition failover) — its server answers,
    #: but every layer fences it.
    deposed: list[Replica] = field(default_factory=list)


class ReplicatedFleet:
    """Boot N replica groups and fail them over automatically."""

    def __init__(
        self,
        shards: int,
        replicas: int = 1,
        endpoint: str = "shop",
        provision: Provisioner | None = None,
        wal_dir: str | None = None,
        fsync: bool = False,
        auto_checkpoint_every: int | None = None,
        host: str = "127.0.0.1",
        ring: PartitionMap | None = None,
        admission: AdmissionFactory | None = None,
        base_port: int | None = None,
        history: "HistoryRecorder | None" = None,
    ) -> None:
        if replicas < 1:
            raise ValueError(
                "a replica group needs at least one follower to promote; "
                "use ClusterFleet for unreplicated shards"
            )
        self.endpoint = endpoint
        self.ring = ring or PartitionMap(shards)
        if self.ring.shards != shards:
            raise ValueError(
                f"partition map covers {self.ring.shards} shards, "
                f"fleet has {shards}"
            )
        self._count = shards
        self._replicas = replicas
        self._provision = provision
        self._owned_dir: tempfile.TemporaryDirectory | None = None
        if wal_dir is None:
            self._owned_dir = tempfile.TemporaryDirectory(prefix="repl-fleet-")
            wal_dir = self._owned_dir.name
        self._wal_dir = wal_dir
        self._fsync = fsync
        self._auto_checkpoint_every = auto_checkpoint_every
        self._host = host
        self._admission = admission
        self._base_port = base_port
        #: Optional isolation auditor: each acting primary's WAL is
        #: attached as it takes office, so the recorded history follows
        #: the epoch fence (a deposed primary's appends go unheard).
        self._history = history
        self._groups: list[ReplicaGroup] = []
        self._gateways: list[ClusterGateway] = []
        #: Simulated partitions: shard index -> the Replica cut off.
        self._partitioned: dict[int, Replica] = {}
        #: Monotonic per-group incarnation counter feeding fault scopes.
        self._incarnations: list[int] = []
        self._lock = threading.RLock()
        self._started = False
        self.routing: ReplicaRouting | None = None
        self.failovers = 0

    # ----------------------------------------------------------- lifecycle

    def start(self) -> list[tuple[str, int]]:
        """Boot every replica group; returns the primaries' addresses."""
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        self._incarnations = [0] * self._count
        for index in range(self._count):
            self._groups.append(self._boot_group(index))
        self.routing = ReplicaRouting(self.ring, self.addresses())
        return self.addresses()

    def stop(self) -> None:
        """Stop every process of every group (primaries, followers,
        deposed) and close their stores and receivers."""
        for group in self._groups:
            for replica in (
                [group.primary] + group.followers + group.deposed
            ):
                self._teardown(replica)
        self._groups = []
        self._gateways = []
        self._partitioned = {}
        self._started = False
        if self._owned_dir is not None:
            self._owned_dir.cleanup()
            self._owned_dir = tempfile.TemporaryDirectory(
                prefix="repl-fleet-"
            )
            self._wal_dir = self._owned_dir.name

    def __enter__(self) -> "ReplicatedFleet":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def kill(self, index: int) -> None:
        """Crash the group's primary (listener down, store closed).

        The followers keep running — the whole point: the group's state
        survives on their disks, and the failure detector (or an
        explicit :meth:`failover`) promotes one.
        """
        with self._lock:
            primary = self._groups[index].primary
            if primary.alive:
                primary.runner.stop()
            if primary.deployment is not None:
                primary.deployment.close()
            if primary.sender is not None:
                primary.sender.close()

    def restart(self, index: int) -> tuple[str, int]:
        """ClusterFleet-compatible recovery: promote if the primary is
        down (or reboot it when no follower remains), then rejoin every
        deposed node as a fresh follower."""
        with self._lock:
            group = self._groups[index]
            if not group.primary.alive:
                if group.followers:
                    self.failover(index)
                else:
                    self._reboot_primary(group)
            self.rejoin(index)
            return group.primary.address

    # ------------------------------------------------------------ failover

    def epoch(self, index: int) -> int:
        with self._lock:
            return self._groups[index].epoch

    def primary_scope(self, index: int) -> str:
        """The crash-injection scope of the group's current primary."""
        with self._lock:
            return self._groups[index].primary.scope

    def is_partitioned(self, index: int) -> bool:
        """True while the *current* primary is behind a partition.

        Once failover promotes a follower the new primary is reachable,
        so the detector must resume treating pings as authoritative even
        though the old primary is still cut off (until :meth:`heal`).
        """
        with self._lock:
            replica = self._partitioned.get(index)
            return replica is not None and replica is self._groups[index].primary

    def partition(self, index: int) -> None:
        """Cut the primary off: its ships stop, so its gate closes.

        The primary process keeps running — the dangerous half of the
        scenario.  It will keep trying to serve whatever reaches it;
        epoch fencing and the gateway's generation fence are what keep
        those answers out of clients' hands after the promotion.
        """
        with self._lock:
            primary = self._groups[index].primary
            self._partitioned[index] = primary
            if primary.sender is not None:
                primary.sender.blocked = True

    def heal(self, index: int) -> None:
        """End a partition: unblock (no failover yet) or retire-and-
        rejoin the deposed primary (failover already happened)."""
        with self._lock:
            replica = self._partitioned.pop(index, None)
            if replica is None:
                return
            group = self._groups[index]
            if replica is group.primary:
                # Healed before the detector acted: replication resumes,
                # the backlog flushes at the next gate check.
                if replica.sender is not None:
                    replica.sender.blocked = False
                return
            # A successor rules; the old primary is a running zombie.
            self.rejoin(index)

    def failover(self, index: int) -> int:
        """Promote the most-caught-up follower; returns the new epoch.

        Safe to call redundantly: if the primary is alive and not
        partitioned (detector race, manual call) this is a no-op
        returning the current epoch.  Raises if no follower remains.
        """
        with self._lock:
            group = self._groups[index]
            old = group.primary
            if old.alive and self._partitioned.get(index) is not old:
                return group.epoch
            if not group.followers:
                raise RuntimeError(
                    f"group {index}: primary down and no follower to promote"
                )
            best = max(group.followers, key=lambda r: r.applied_lsn())
            new_epoch = group.epoch + 1

            # Seal the follower's log and fence its stream, then boot a
            # full deployment off that log through ordinary recovery.
            assert best.receiver is not None
            wal_path = best.receiver.promote(new_epoch)
            deployment = self._build_deployment(index, best.scope, wal_path)
            journal = None
            if deployment.store.durable:
                journal = ReplyJournal(
                    deployment.store, table=NET_REPLY_JOURNAL_TABLE
                )
                best.server.attach_journal(journal)
            if self._admission is not None:
                best.server.attach_admission(self._admission(index))

            # New replication stream at the new epoch over the remaining
            # followers; the full re-sync both heals any divergence and
            # pushes the epoch bump into their receivers.
            sender = ReplicationSender(
                group=self._group_name(index),
                epoch=new_epoch,
                wal=deployment.store.wal,
                sender_name=f"{self.endpoint}-s{index}",
                metrics=best.server.metrics,
            )
            for follower in group.followers:
                if follower is best:
                    continue
                sender.add_follower(follower.address, follower.name)
            sender.full_sync_all()
            deployment.store.wal.subscribe(wal_observer(best.server.metrics))
            deployment.manager.metrics = best.server.metrics
            deployment.store.wal.subscribe(sender.observe)
            if self._history is not None:
                self._history.attach(index, deployment.store.wal)

            best.deployment = deployment
            best.sender = sender
            best.receiver = None
            best.server.epoch = new_epoch
            best.server.gate = sender.gate
            best.server.ping_info = self._primary_ping_info(index, best)
            best.server.register(self.endpoint, deployment.endpoint.handle)

            group.followers.remove(best)
            group.deposed.append(old)
            group.primary = best
            group.epoch = new_epoch
            if old.sender is not None and old.sender.fenced is None:
                old.sender.fenced = f"superseded by epoch {new_epoch}"
            self.failovers += 1
            gateways = list(self._gateways)

        # Outside the lock: remap routing; flush_pending sends network
        # traffic and must not hold the fleet lock.
        if self.routing is not None:
            self.routing.promote(index, best.address)
        for gateway in gateways:
            gateway.remap(
                index,
                NetworkTransport(
                    best.address, timeout=5.0, retry=RetryPolicy.network()
                ),
                epoch=new_epoch,
            )
            gateway.flush_pending()
        return new_epoch

    def await_failover(
        self, index: int, beyond_epoch: int, timeout: float = 10.0
    ) -> bool:
        """Block until the group's epoch passes ``beyond_epoch``."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.epoch(index) > beyond_epoch:
                return True
            time.sleep(0.02)
        return self.epoch(index) > beyond_epoch

    def rejoin(self, index: int) -> int:
        """Re-admit every deposed node of the group as a fresh follower.

        Each gets a brand-new incarnation (new port, new fault scope)
        over its old WAL path; the primary full-syncs it, which rewrites
        whatever diverged suffix the corpse carried.  Returns how many
        rejoined.
        """
        with self._lock:
            group = self._groups[index]
            primary = group.primary
            count = 0
            while group.deposed:
                old = group.deposed.pop()
                self._teardown(old)
                if self._partitioned.get(index) is old:
                    del self._partitioned[index]
                follower = self._boot_follower(
                    index, group.epoch, wal_path=old.wal_path
                )
                group.followers.append(follower)
                if primary.sender is not None:
                    link = primary.sender.add_follower(
                        follower.address, follower.name
                    )
                    primary.sender.full_sync(link)
                count += 1
            return count

    # ------------------------------------------------------------- access

    def addresses(self) -> list[tuple[str, int]]:
        """The primaries' bound addresses, in shard order."""
        with self._lock:
            return [group.primary.address for group in self._groups]

    def shard(self, index: int) -> Replica:
        """The group's current primary (ClusterFleet-compatible view)."""
        with self._lock:
            return self._groups[index].primary

    def group(self, index: int) -> ReplicaGroup:
        return self._groups[index]

    def __len__(self) -> int:
        return self._count

    def gateway(
        self,
        timeout: float = 5.0,
        retry: RetryPolicy | None = None,
        name: str = "cluster",
        breaker_threshold: int | None = None,
        breaker_reset: float = 5.0,
        pending_limit: int | None = 256,
        pending_max_age: float | None = None,
        tracer: SpanRecorder | None = None,
    ) -> ClusterGateway:
        """A routing gateway over the current primaries.

        The fleet keeps a reference: :meth:`failover` remaps the shard's
        transport, pushes the new epoch for request stamping, resets the
        breaker, and flushes pending compensations on every gateway
        built here.
        """
        with self._lock:
            transports = [
                NetworkTransport(
                    address,
                    timeout=timeout,
                    retry=retry or RetryPolicy.network(),
                )
                for address in self.addresses()
            ]
            breakers = None
            if breaker_threshold is not None:
                breakers = [
                    CircuitBreaker(
                        endpoint=f"{self.endpoint}-s{index}",
                        failure_threshold=breaker_threshold,
                        reset_timeout=breaker_reset,
                    )
                    for index in range(self._count)
                ]
            gateway = ClusterGateway(
                transports,
                ring=self.ring,
                name=name,
                breakers=breakers,
                pending_limit=pending_limit,
                pending_max_age=pending_max_age,
                tracer=tracer,
            )
            for index, group in enumerate(self._groups):
                gateway.set_epoch(index, group.epoch)
            self._gateways.append(gateway)
            return gateway

    def attach(self, gateway: ClusterGateway) -> None:
        """Adopt an externally-built gateway for failover maintenance.

        Same contract as gateways built by :meth:`gateway`: on every
        :meth:`failover` the fleet remaps the shard's transport, pushes
        the new epoch, resets the breaker and flushes pending
        compensations.  Current epochs are pushed immediately.
        """
        with self._lock:
            for index, group in enumerate(self._groups):
                gateway.set_epoch(index, group.epoch)
            self._gateways.append(gateway)

    def audit(self) -> dict[int, list[Finding]]:
        """Consistency doctor over every live primary."""
        findings: dict[int, list[Finding]] = {}
        with self._lock:
            for group in self._groups:
                primary = group.primary
                if primary.alive and primary.deployment is not None:
                    findings[group.index] = Doctor(
                        primary.deployment.manager
                    ).check()
        return findings

    def live_promises(self) -> dict[int, int]:
        """Active promises per live primary (orphan hunting)."""
        counts: dict[int, int] = {}
        with self._lock:
            for group in self._groups:
                primary = group.primary
                if primary.alive and primary.deployment is not None:
                    counts[group.index] = len(
                        primary.deployment.manager.active_promises()
                    )
        return counts

    def replication_status(self, index: int) -> dict[str, object]:
        """The group's stream vitals (CLI / tutorial surface)."""
        with self._lock:
            group = self._groups[index]
            sender = group.primary.sender
            return {
                "epoch": group.epoch,
                "primary": group.primary.name,
                "followers": [f.name for f in group.followers],
                "deposed": [d.name for d in group.deposed],
                "stream": sender.status() if sender is not None else None,
            }

    # ----------------------------------------------------------- internals

    def _group_name(self, index: int) -> str:
        return f"{self.endpoint}-g{index}"

    def _next_scope(self, index: int) -> str:
        """A fault scope no prior incarnation of this group ever used."""
        incarnation = self._incarnations[index]
        self._incarnations[index] += 1
        if incarnation == 0:
            # The first primary keeps the ClusterFleet-compatible scope
            # so existing scoped schedules ("shard-3") target it.
            return f"shard-{index}"
        return f"shard-{index}i{incarnation}"

    def _primary_wal_path(self, index: int) -> str:
        return os.path.join(self._wal_dir, f"shard-{index}.wal")

    def _follower_wal_path(self, index: int, incarnation: int) -> str:
        return os.path.join(
            self._wal_dir, f"shard-{index}-r{incarnation}.wal"
        )

    def _boot_group(self, index: int) -> ReplicaGroup:
        port = 0 if self._base_port is None else self._base_port + index
        primary = self._boot_primary(
            index, epoch=0, wal_path=self._primary_wal_path(index), port=port
        )
        group = ReplicaGroup(index=index, epoch=0, primary=primary)
        sender = primary.sender
        assert sender is not None
        for _ in range(self._replicas):
            follower = self._boot_follower(index, epoch=0)
            group.followers.append(follower)
            sender.add_follower(follower.address, follower.name)
        # The provisioning records landed before any follower existed;
        # the full sync hands them over, and delivery stays idempotent
        # if a subscribed flush raced it (the receiver skips by LSN).
        sender.full_sync_all()
        return group

    def _boot_primary(
        self, index: int, epoch: int, wal_path: str, port: int
    ) -> Replica:
        scope = self._next_scope(index)
        deployment = self._build_deployment(index, scope, wal_path)
        journal = None
        if deployment.store.durable:
            journal = ReplyJournal(
                deployment.store, table=NET_REPLY_JOURNAL_TABLE
            )
        admission = (
            self._admission(index) if self._admission is not None else None
        )
        server = PromiseServer(
            host=self._host, port=port, reply_journal=journal,
            admission=admission,
            metrics=admission.metrics if admission is not None else None,
        )
        server.register(self.endpoint, deployment.endpoint.handle)
        sender = ReplicationSender(
            group=self._group_name(index),
            epoch=epoch,
            wal=deployment.store.wal,
            sender_name=f"{self.endpoint}-s{index}",
            metrics=server.metrics,
        )
        deployment.store.wal.subscribe(wal_observer(server.metrics))
        deployment.manager.metrics = server.metrics
        deployment.store.wal.subscribe(sender.observe)
        if self._history is not None:
            self._history.attach(index, deployment.store.wal)
        server.epoch = epoch
        server.gate = sender.gate
        runner = ThreadedServer(server)
        address = runner.start()
        replica = Replica(
            index=index,
            name=f"{self.endpoint}-s{index}:{scope}",
            scope=scope,
            server=server,
            runner=runner,
            address=address,
            wal_path=wal_path,
            deployment=deployment,
            sender=sender,
        )
        server.ping_info = self._primary_ping_info(index, replica)
        return replica

    def _reboot_primary(self, group: ReplicaGroup) -> None:
        """Last-resort restart of a dead primary with no successor.

        Same epoch (nothing was promoted, so nothing needs fencing),
        same WAL, same port — this is exactly ``ClusterFleet.restart``,
        and the breaker reset on attached gateways matches it.
        """
        old = group.primary
        index = group.index
        replacement = self._boot_primary(
            index, epoch=group.epoch, wal_path=old.wal_path,
            port=old.address[1],
        )
        group.primary = replacement
        sender = replacement.sender
        assert sender is not None
        for follower in group.followers:
            sender.add_follower(follower.address, follower.name)
        sender.full_sync_all()
        for gateway in self._gateways:
            gateway.reset_breaker(index)

    def _boot_follower(
        self, index: int, epoch: int, wal_path: str | None = None
    ) -> Replica:
        incarnation = self._incarnations[index]
        scope = self._next_scope(index)
        if wal_path is None:
            wal_path = self._follower_wal_path(index, incarnation)
            # A fresh follower must start empty: full_sync rebuilds the
            # file, but a stale leftover would pollute the interval
            # between boot and first sync.
            if os.path.exists(wal_path):
                os.unlink(wal_path)
        server = PromiseServer(host=self._host, port=0)
        receiver = ReplicationReceiver(
            group=self._group_name(index),
            wal_path=wal_path,
            epoch=epoch,
            fsync=self._fsync,
            fault_scope=scope,
            metrics=server.metrics,
        )
        server.register(REPL_ENDPOINT, receiver.handle)
        server.epoch = epoch
        runner = ThreadedServer(server)
        address = runner.start()
        replica = Replica(
            index=index,
            name=f"{self.endpoint}-s{index}f{incarnation}",
            scope=scope,
            server=server,
            runner=runner,
            address=address,
            wal_path=wal_path,
            receiver=receiver,
        )
        server.ping_info = self._follower_ping_info(index, replica)
        return replica

    def _build_deployment(
        self, index: int, scope: str, wal_path: str
    ) -> Deployment:
        deployment = Deployment(
            name=self.endpoint,
            manager_name=f"{self.endpoint}-s{index}",
            fault_scope=scope,
            counter_offers=True,
            wal_path=wal_path,
            fsync=self._fsync,
            auto_checkpoint_every=self._auto_checkpoint_every,
        )
        if self._provision is not None:
            self._provision(deployment, index, self.ring)
        if deployment.recovered:
            deployment.recover()
        return deployment

    def _primary_ping_info(self, index: int, replica: Replica):
        def info() -> dict[str, object]:
            return {
                "role": "primary",
                "group": self._group_name(index),
                "epoch": self._groups[index].epoch
                if index < len(self._groups)
                else replica.server.epoch,
                "applied_lsn": replica.applied_lsn(),
            }

        return info

    def _follower_ping_info(self, index: int, replica: Replica):
        def info() -> dict[str, object]:
            receiver = replica.receiver
            return {
                "role": "primary" if receiver is None else "follower",
                "group": self._group_name(index),
                "epoch": receiver.epoch
                if receiver is not None
                else replica.server.epoch,
                "applied_lsn": replica.applied_lsn(),
            }

        return info

    def _teardown(self, replica: Replica) -> None:
        if replica.alive:
            replica.runner.stop()
        if replica.deployment is not None:
            replica.deployment.close()
        if replica.sender is not None:
            replica.sender.close()
        if replica.receiver is not None:
            replica.receiver.close()


class HeartbeatDetector:
    """Ping every group's primary; promote after consecutive misses.

    Mean time to repair is bounded by ``interval × (miss_threshold + 1)``
    plus the promotion itself (recovery replay of the follower's log) —
    :mod:`benchmarks.bench_f6_failover` measures exactly this curve.  A
    simulated partition counts as a miss even though the TCP path to the
    primary still works: the fleet knows the primary can't replicate, so
    its acks are worthless and waiting for a timeout would only stretch
    the outage.
    """

    def __init__(
        self,
        fleet: ReplicatedFleet,
        interval: float = 0.1,
        miss_threshold: int = 3,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        self.fleet = fleet
        self.interval = interval
        self.miss_threshold = miss_threshold
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._misses = [0] * len(fleet)
        self._counter = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def pings(self) -> int:
        """Probes sent (view over ``heartbeat.pings``)."""
        return int(self.metrics.value("heartbeat.pings"))

    @property
    def missed(self) -> int:
        """Probes that got no answer (view over ``heartbeat.missed``)."""
        return int(self.metrics.value("heartbeat.missed"))

    @property
    def failovers(self) -> int:
        """Promotions this detector triggered (``heartbeat.failovers``)."""
        return int(self.metrics.value("heartbeat.failovers"))

    def start(self) -> "HeartbeatDetector":
        if self._thread is not None:
            raise RuntimeError("detector already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="heartbeat-detector", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "HeartbeatDetector":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            for index in range(len(self.fleet)):
                if self._stop.is_set():
                    return
                self._probe(index)

    def _probe(self, index: int) -> None:
        self.metrics.inc("heartbeat.pings")
        if self.fleet.is_partitioned(index):
            alive = False
        else:
            alive = self._ping(self.fleet.shard(index).address)
        if alive:
            self._misses[index] = 0
            return
        self.metrics.inc("heartbeat.missed")
        self._misses[index] += 1
        if self._misses[index] < self.miss_threshold:
            return
        self._misses[index] = 0
        try:
            self.fleet.failover(index)
            self.metrics.inc("heartbeat.failovers")
        except Exception:
            # No follower yet (all deposed, rejoin pending) or a race
            # with a manual failover; keep probing, never die.
            pass

    def _ping(self, address: tuple[str, int]) -> bool:
        self._counter += 1
        transport = NetworkTransport(
            address,
            timeout=max(0.25, self.interval),
            retry=RetryPolicy.none(),
        )
        message = Message(
            message_id=f"hb:{self._counter}",
            sender="heartbeat-detector",
            recipient=PING_ENDPOINT,
        )
        try:
            reply = transport.send(message)
        except (TransportFailure, RequestTimeout, ProtocolError):
            return False
        finally:
            closer = getattr(transport, "close", None)
            if closer is not None:
                closer()
        return not reply.faults
