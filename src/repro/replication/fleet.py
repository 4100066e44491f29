"""The fleet: N shards, each a replica group, booted, killed and healed.

:class:`ReplicatedFleet` stands up *N* promise managers — each with its
own store, write-ahead log, recovery path and
:class:`~repro.net.server.PromiseServer` on its own port — and presents
them as the fleet a :class:`~repro.cluster.gateway.ClusterGateway`
routes over.  Every shard serves the **same endpoint name** (clients
address "shop", not "shop-s3"), while manager id pools are unique per
shard (``shop-s3:prm-1``) so two shards can never mint the same promise
id.  Each shard's store carries a scoped fault tag (``shard-3``), so the
crash-point machinery (:mod:`repro.faults`) can kill exactly one shard
of a single-process fleet.

Each shard index is a **replica group**: one primary deployment serving
the application endpoint plus ``replicas`` hot followers that hold
nothing but a :class:`~repro.replication.shipping.ReplicationReceiver`,
the WAL it keeps in lock-step with the primary's, and the log listener
the primary ships to — on the same event loop as the follower's server,
which answers ``_ping`` and is handed to the deployment a promotion
seats.  ``replicas=0`` is
the paper's prototype (§8) — one promise manager per shard, a group at
epoch 0 with nobody to ship to and no ack gate — and the only fleet
whose stores may live in memory (``wal_dir=None``): a follower *is* a
log file, so a replicated fleet without a directory makes its own.

Shards are independent failure domains.  :meth:`kill` drops one
primary's listener and closes its WAL while its siblings keep serving;
:meth:`restart` heals the group — by promoting a follower when there is
one, by rebooting the primary on its own port and WAL when there is not
— and either way a gateway retrying a pre-crash message gets the
journaled reply rather than a double grant, because both roads end in
the same boot (:meth:`_seat_primary`) through ordinary recovery.

Failover is a local state machine, not a consensus protocol — the paper
targets a single administrative domain, and the safety burden is
carried by fencing rather than quorum:

* :meth:`failover` promotes the most-caught-up follower by booting a
  full deployment off the follower's WAL (a promoted follower *is* a
  recovered primary);
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

from ..net.server import PING_ENDPOINT, PromiseServer, ThreadedServer
from ..net.transport import NetworkTransport
from ..obs.metrics import MetricsRegistry
from ..obs.trace import SpanRecorder
from ..protocol.errors import ProtocolError
from ..protocol.messages import Message
from ..protocol.retry import RetryPolicy
from ..resilience.breaker import CircuitBreaker
from ..cluster.gateway import ClusterGateway
from ..cluster.partition import PartitionMap
from ..cluster.provision import AdmissionFactory, Provisioner, host_deployment
from ..faults.history import HistoryRecorder
from ..services.deployment import Deployment
from ..tools.doctor import Doctor, Finding
from .routing import ReplicaRouting
from .shipping import ReplicationReceiver, ReplicationSender


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
    #: ``None`` only for the in-memory store of an unreplicated fleet.
    wal_path: str | None
    #: Follower half: applies the primary's shipped records, which
    #: arrive at the log listener on ``log_address`` (it stays up after
    #: a promotion, answering ``fenced``).
    receiver: ReplicationReceiver | None = None
    log_address: tuple[str, int] | None = None
    #: Primary half: full application deployment, plus its WAL shipper
    #: when the fleet replicates.
    deployment: Deployment | None = None
    sender: ReplicationSender | None = None

    @property
    def alive(self) -> bool:
        """True while this process's listener is up."""
        return self.runner.running

    @property
    def durable(self) -> bool:
        """False once this process's log latched on a failed write or
        fsync: it acknowledges nothing more, so it is as good as dead."""
        if self.receiver is not None and not self.receiver.promoted:
            return not self.receiver.wal.failed
        if self.deployment is not None:
            return not self.deployment.store.wal.failed
        return True

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
    """Boot N shards as replica groups; kill, restart and fail them over."""

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
        base_port: int = 0,
        workers: int = 0,
        history: "HistoryRecorder | None" = None,
    ) -> None:
        if replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {replicas}")
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
        if wal_dir is None and replicas > 0:
            # A follower is a log file; only an unreplicated fleet can
            # keep its stores in memory.
            self._owned_dir = tempfile.TemporaryDirectory(prefix="repl-fleet-")
            wal_dir = self._owned_dir.name
        self._wal_dir = wal_dir
        self._fsync = fsync
        self._auto_checkpoint_every = auto_checkpoint_every
        self._host = host
        self._admission = admission
        self._base_port = base_port
        #: Parallel-dispatch worker count of every server — followers
        #: included, so a promoted follower dispatches the way its
        #: predecessor did.
        self._workers = workers
        #: Optional isolation auditor: each acting primary's WAL is
        #: attached as it takes office (re-attaching after a restart
        #: prunes the lost tail), so the recorded history follows the
        #: epoch fence — a deposed primary's appends go unheard.
        self._history = history
        self._groups: list[ReplicaGroup] = []
        #: Gateways under maintenance (:meth:`gateway`, :meth:`attach`).
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

        The rest of the fleet keeps serving; in-flight requests to this
        shard fail with transport errors, which is the point.  Its
        followers keep running too: the group's state survives on their
        disks, and the failure detector (or an explicit
        :meth:`failover`) promotes one.
        """
        with self._lock:
            self._stop_primary(self._groups[index].primary)

    @staticmethod
    def _stop_primary(primary: Replica) -> None:
        if primary.alive:
            primary.runner.stop()
        if primary.deployment is not None:
            primary.deployment.close()
        if primary.sender is not None:
            primary.sender.close()

    def restart(self, index: int) -> tuple[str, int]:
        """Heal the group; returns the address now serving the shard.

        A dead primary is replaced by a promoted follower when one
        exists, and otherwise rebooted on its own port from its own WAL;
        then every deposed node rejoins as a fresh follower.  Attached
        gateways are told either way (:meth:`attach`).
        """
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

        Safe to call redundantly: if the primary is alive, durable and
        not partitioned (detector race, manual call) this is a no-op
        returning the current epoch.  A primary whose log latched on a
        failed fsync is stopped, as :meth:`kill` would, before its
        follower is promoted.  Raises if no follower remains.
        """
        with self._lock:
            group = self._groups[index]
            old = group.primary
            if (
                old.alive
                and old.durable
                and self._partitioned.get(index) is not old
            ):
                return group.epoch
            if not group.followers:
                raise RuntimeError(
                    f"group {index}: primary down and no follower to promote"
                )
            if not old.durable:
                self._stop_primary(old)
            best = max(group.followers, key=lambda r: r.applied_lsn())
            new_epoch = group.epoch + 1

            # Seal the follower's log and fence its stream, then seat a
            # full deployment booted off that log on the follower's own
            # server, streaming at the new epoch to the followers that
            # remain; the full re-sync both heals any divergence and
            # pushes the epoch bump into their receivers.
            assert best.receiver is not None
            wal_path = best.receiver.promote(new_epoch)
            remaining = [f for f in group.followers if f is not best]
            best.deployment, _, best.sender = self._seat_primary(
                index, new_epoch, best.scope, wal_path, remaining,
                server=best.server,
            )
            best.receiver = None

            group.followers = remaining
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
            # The new leg behaves as the one it replaces did: a gateway
            # built not to retry stays that way.
            gateway.remap(
                index,
                gateway.transport(index).rebound(best.address),
                epoch=new_epoch,
            ).close()
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
                        follower.log_address, follower.name
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
        """The group's current primary (deployment, server, address)."""
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
        breaker_failures: int | None = None,
        breaker_reset: float = 5.0,
        pending_limit: int | None = 256,
        tracer: SpanRecorder | None = None,
    ) -> ClusterGateway:
        """A routing gateway over the current primaries.

        ``breaker_failures`` (consecutive failures) turns on one
        circuit breaker per shard; a dead shard then fails fast at the
        gateway instead of consuming every request's retry schedule.

        Each shard leg is one connection: scatter-gather legs from
        concurrent gateway callers share it with many requests in flight.

        The fleet keeps the gateway under maintenance, as
        :meth:`attach` describes.
        """
        # One critical section from reading the addresses to adoption: a
        # failover in between would leave a leg on the deposed primary.
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
            if breaker_failures is not None:
                breakers = [
                    CircuitBreaker(
                        endpoint=f"{self.endpoint}-s{index}",
                        failure_threshold=breaker_failures,
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
                tracer=tracer,
            )
            self.attach(gateway)
            return gateway

    def attach(self, gateway: ClusterGateway) -> None:
        """Adopt a gateway for maintenance across shard lifetimes.

        A shard that comes back behind its old address (:meth:`restart`
        with no follower) gets its circuit breaker forced half-open —
        leaving it open would fast-fail a healthy shard for the rest of
        the open window.  A shard that comes back as a promoted follower
        (:meth:`failover`) additionally gets its leg remapped to the new
        address with the displaced leg's timeout, retry policy and
        pipelining, the new epoch pushed for request stamping, and the
        gateway's pending compensations flushed.  Current epochs are
        pushed immediately.
        """
        with self._lock:
            for index, group in enumerate(self._groups):
                gateway.set_epoch(index, group.epoch)
            self._gateways.append(gateway)

    def audit(self) -> dict[int, list[Finding]]:
        """Run the consistency doctor on every live primary.

        An empty list per shard means no orphaned sub-promises, no
        escrow drift, no index damage — the fleet-level acceptance check
        for the gateway's compensation logic.
        """
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
            # The first primary's scope is the shard's plain name, the
            # one scoped crash schedules ("shard-3") are written against.
            return f"shard-{index}"
        return f"shard-{index}i{incarnation}"

    def _primary_wal_path(self, index: int) -> str | None:
        if self._wal_dir is None:
            return None
        return os.path.join(self._wal_dir, f"shard-{index}.wal")

    def _follower_wal_path(self, index: int, incarnation: int) -> str:
        assert self._wal_dir is not None
        return os.path.join(
            self._wal_dir, f"shard-{index}-r{incarnation}.wal"
        )

    def _boot_group(self, index: int) -> ReplicaGroup:
        # Shard i listens on base_port + i; a base of 0 puts every
        # shard on its own ephemeral port, as ``serve --port 0`` does.
        port = self._base_port + index if self._base_port else 0
        # The primary is the group's first incarnation (scope
        # "shard-N", follower logs count from r1) even though its
        # followers are listening before it boots, so the provisioning
        # records reach them in the boot's own full sync.
        scope = self._next_scope(index)
        followers = [
            self._boot_follower(index, epoch=0)
            for _ in range(self._replicas)
        ]
        primary = self._boot_primary(
            index, 0, scope, self._primary_wal_path(index), port, followers
        )
        return ReplicaGroup(
            index=index, epoch=0, primary=primary, followers=followers
        )

    def _boot_primary(
        self,
        index: int,
        epoch: int,
        scope: str,
        wal_path: str | None,
        port: int,
        followers: list[Replica],
    ) -> Replica:
        deployment, server, sender = self._seat_primary(
            index, epoch, scope, wal_path, followers, port=port
        )
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
        server.ping_info = self._ping_info(index, replica)
        return replica

    def _reboot_primary(self, group: ReplicaGroup) -> None:
        """Restart a dead primary that has no follower to succeed it.

        Same epoch (nothing was promoted, so nothing needs fencing),
        same WAL, same port: attached gateways keep their transports and
        only need the shard's breaker nudged half-open.
        """
        old = group.primary
        group.primary = self._boot_primary(
            group.index, group.epoch, self._next_scope(group.index),
            old.wal_path, old.address[1], group.followers,
        )
        for gateway in self._gateways:
            gateway.reset_breaker(group.index)

    def _seat_primary(
        self,
        index: int,
        epoch: int,
        scope: str,
        wal_path: str | None,
        followers: list[Replica],
        server: PromiseServer | None = None,
        port: int = 0,
    ) -> tuple[Deployment, PromiseServer, ReplicationSender | None]:
        """Boot a deployment off ``wal_path`` and put it in office.

        The one road to a serving primary: first boot and crash restart
        get a new server on ``port``, a promotion hands over the
        follower's listening ``server``.  All three recover through the
        same code, which is the restart invariant stated once — whatever
        the log holds (promises, escrow, journaled replies) is what the
        new primary serves.  A replicating fleet then opens a stream at
        ``epoch`` to ``followers`` and closes the ack gate behind it.
        """
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
        server = host_deployment(
            deployment,
            self.endpoint,
            server,
            host=self._host,
            port=port,
            admission=(
                self._admission(index) if self._admission is not None else None
            ),
            workers=self._workers,
        )
        wal = deployment.store.wal
        sender = None
        if self._replicas > 0:
            sender = ReplicationSender(
                group=self._group_name(index),
                epoch=epoch,
                wal=wal,
                sender_name=f"{self.endpoint}-s{index}",
                metrics=server.metrics,
            )
            for follower in followers:
                sender.add_follower(follower.log_address, follower.name)
            sender.full_sync_all()
            wal.subscribe(sender.observe)
            server.gate = sender.gate
        if self._history is not None:
            self._history.attach(index, wal)
        server.epoch = epoch
        return deployment, server, sender

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
        server = PromiseServer(
            host=self._host, port=0, workers=self._workers
        )
        receiver = ReplicationReceiver(
            group=self._group_name(index),
            wal_path=wal_path,
            epoch=epoch,
            fsync=self._fsync,
            fault_scope=scope,
            metrics=server.metrics,
        )
        server.epoch = epoch
        runner = ThreadedServer(server)
        address = runner.start()
        # Looked up per frame, so the receiver's handler can be swapped
        # on a live follower.
        log_address = runner.serve_frames(lambda frame: receiver.handle(frame))
        replica = Replica(
            index=index,
            name=f"{self.endpoint}-s{index}f{incarnation}",
            scope=scope,
            server=server,
            runner=runner,
            address=address,
            wal_path=wal_path,
            receiver=receiver,
            log_address=log_address,
        )
        server.ping_info = self._ping_info(index, replica)
        return replica

    def _ping_info(self, index: int, replica: Replica):
        """Liveness payload of one process, whatever its role is now
        (a promoted follower keeps answering through this closure)."""

        def info() -> dict[str, object]:
            receiver = replica.receiver
            return {
                "role": "primary" if receiver is None else "follower",
                "group": self._group_name(index),
                "epoch": receiver.epoch
                if receiver is not None
                else replica.server.epoch,
                "applied_lsn": replica.applied_lsn(),
                "durable": replica.durable,
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
    the outage.  So does a pong reporting ``durable: False``: a primary
    whose log latched on a failed fsync answers pings but no request.
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
        message = Message(
            message_id=f"hb:{self._counter}",
            sender="heartbeat-detector",
            recipient=PING_ENDPOINT,
        )
        with NetworkTransport(
            address, timeout=max(0.25, self.interval), retry=RetryPolicy.none()
        ) as transport:
            try:
                reply = transport.send(message)
            except ProtocolError:  # includes TransportFailure, RequestTimeout
                return False
        if reply.faults:
            return False
        info = reply.action_outcome.value if reply.action_outcome else None
        return not (isinstance(info, dict) and info.get("durable") is False)
