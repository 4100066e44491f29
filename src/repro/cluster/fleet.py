"""Lifecycle of an in-process shard fleet: boot, kill, restart, audit.

:class:`ClusterFleet` stands up *N* complete deployments — each with its
own store, write-ahead log, recovery path and
:class:`~repro.net.server.PromiseServer` on its own port — and presents
them as the fleet a :class:`~repro.cluster.gateway.ClusterGateway`
routes over.  Every shard serves the **same endpoint name** (clients
address "shop", not "shop-s3"), while manager id pools are unique per
shard (``shop-s3:prm-1``) so two shards can never mint the same promise
id.

Shards are independent failure domains:

* :meth:`kill` drops one shard's listener and closes its WAL — its
  siblings keep serving, exactly the partial-failure mode the gateway's
  compensation logic exists for;
* :meth:`restart` brings the shard back **on the same port**, recovering
  promises, escrow and the reply journal from its own WAL, so a gateway
  retrying a pre-crash sub-message gets the journaled reply rather than
  a double grant;
* each shard's store carries a scoped fault tag (``shard-3``), so the
  crash-point machinery (:mod:`repro.faults`) can kill exactly one shard
  of a single-process fleet;
* :meth:`audit` runs the consistency :class:`~repro.tools.doctor.Doctor`
  over every shard — the per-shard half of proving no cross-shard
  request left an orphaned sub-promise behind.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Sequence

from ..net.server import NET_REPLY_JOURNAL_TABLE, PromiseServer, ThreadedServer
from ..net.transport import NetworkTransport
from ..obs.metrics import wal_observer
from ..obs.trace import SpanRecorder
from ..protocol.retry import RetryPolicy
from ..recovery import ReplyJournal
from ..faults.history import HistoryRecorder
from ..resilience.admission import AdmissionController
from ..resilience.breaker import CircuitBreaker
from ..services.base import ApplicationService
from ..services.deployment import Deployment
from ..storage.group_commit import GroupCommitConfig
from ..tools.doctor import Doctor, Finding
from .gateway import ClusterGateway
from .partition import PartitionMap

#: Provisioner callback: wire services/strategies and seed resources on
#: one freshly built shard deployment.  Called on first boot *and* on
#: restart — use ``deployment.recovered`` to skip re-seeding.
Provisioner = Callable[[Deployment, int, PartitionMap], None]

#: Admission factory: build one shard's admission controller (or return
#: ``None`` for no admission control).  Called per boot and per restart,
#: so a restarted shard starts with a fresh (full) token bucket.
AdmissionFactory = Callable[[int], "AdmissionController | None"]


@dataclass
class Shard:
    """One member of the fleet (live or killed)."""

    index: int
    deployment: Deployment
    server: PromiseServer
    runner: ThreadedServer
    address: tuple[str, int]
    wal_path: str | None

    @property
    def alive(self) -> bool:
        """True while the shard's listener is up."""
        return self.runner is not None and self.runner._thread is not None


class ClusterFleet:
    """Boot and manage N single-shard promise managers as one fleet."""

    def __init__(
        self,
        shards: int,
        endpoint: str = "shop",
        provision: Provisioner | None = None,
        wal_dir: str | None = None,
        fsync: bool = False,
        auto_checkpoint_every: int | None = None,
        host: str = "127.0.0.1",
        ring: PartitionMap | None = None,
        base_port: int | None = None,
        admission: AdmissionFactory | None = None,
        workers: int = 0,
        group_commit: "GroupCommitConfig | None" = None,
        history: "HistoryRecorder | None" = None,
    ) -> None:
        self.endpoint = endpoint
        self.ring = ring or PartitionMap(shards)
        if self.ring.shards != shards:
            raise ValueError(
                f"partition map covers {self.ring.shards} shards, fleet has {shards}"
            )
        self._count = shards
        self._provision = provision
        self._wal_dir = wal_dir
        self._fsync = fsync
        self._auto_checkpoint_every = auto_checkpoint_every
        self._host = host
        self._base_port = base_port
        self._admission = admission
        #: Parallel-dispatch worker count per shard server (0 = serial)
        #: and the shared group-commit tuning for every shard's WAL.
        self._workers = workers
        self._group_commit = group_commit
        #: Optional isolation auditor: every shard's WAL is attached at
        #: boot and re-attached on restart (which prunes the lost tail).
        self._history = history
        self._shards: list[Shard] = []
        self._started = False
        #: Gateways built by :meth:`gateway`, notified on restart so a
        #: recovered shard's breaker is probed immediately.
        self._gateways: list[ClusterGateway] = []

    # ----------------------------------------------------------- lifecycle

    def start(self) -> list[tuple[str, int]]:
        """Boot every shard; returns their bound addresses."""
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        for index in range(self._count):
            port = 0 if self._base_port is None else self._base_port + index
            self._shards.append(self._boot(index, port=port))
        return self.addresses()

    def stop(self) -> None:
        """Stop every live shard and close its deployment."""
        for shard in self._shards:
            if shard.alive:
                shard.runner.stop()
            shard.deployment.close()
        self._shards = []
        self._started = False
        self._gateways = []

    def __enter__(self) -> "ClusterFleet":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def kill(self, index: int) -> None:
        """Take one shard down: stop its listener, close its WAL.

        The rest of the fleet keeps serving; in-flight requests to this
        shard fail with transport errors, which is the point.
        """
        shard = self._shards[index]
        if shard.alive:
            shard.runner.stop()
        shard.deployment.close()

    def restart(self, index: int) -> tuple[str, int]:
        """Bring a killed shard back on its original port, from its WAL.

        Every gateway built by :meth:`gateway` gets the shard's circuit
        breaker forced half-open: the shard is healthy again, and
        leaving the breaker open would fast-fail it for the rest of the
        open window even though requests would now succeed.
        """
        old = self._shards[index]
        if old.alive:
            raise RuntimeError(f"shard {index} is still running")
        replacement = self._boot(index, port=old.address[1])
        self._shards[index] = replacement
        for gateway in self._gateways:
            gateway.reset_breaker(index)
        return replacement.address

    # ------------------------------------------------------------- access

    def addresses(self) -> list[tuple[str, int]]:
        """Bound ``(host, port)`` of every shard, in shard order."""
        return [shard.address for shard in self._shards]

    def shard(self, index: int) -> Shard:
        """One shard's handle (deployment, server, address)."""
        return self._shards[index]

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
        pipelined: bool = False,
    ) -> ClusterGateway:
        """A routing gateway over this fleet's (current) addresses.

        Transports target the shards' ports, which survive
        kill/restart, so one gateway spans shard lifetimes.

        ``breaker_threshold`` (consecutive failures) turns on one
        circuit breaker per shard; a dead shard then fails fast at the
        gateway instead of consuming every request's retry schedule.

        ``pipelined`` makes each shard leg a pipelined connection:
        scatter-gather legs from concurrent gateway callers share one
        socket per shard with many requests in flight, instead of
        serialising on per-connection pool checkout.
        """
        transports = [
            NetworkTransport(
                address,
                timeout=timeout,
                retry=retry or RetryPolicy.network(),
                pipelined=pipelined,
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
        self._gateways.append(gateway)
        return gateway

    def audit(self) -> dict[int, list[Finding]]:
        """Run the consistency doctor on every live shard.

        An empty list per shard means no orphaned sub-promises, no
        escrow drift, no index damage — the fleet-level acceptance check
        for the gateway's compensation logic.
        """
        findings: dict[int, list[Finding]] = {}
        for shard in self._shards:
            if shard.alive:
                findings[shard.index] = Doctor(shard.deployment.manager).check()
        return findings

    def live_promises(self) -> dict[int, int]:
        """Count of active promises per live shard (orphan hunting)."""
        counts: dict[int, int] = {}
        for shard in self._shards:
            if shard.alive:
                counts[shard.index] = len(
                    shard.deployment.manager.active_promises()
                )
        return counts

    # ----------------------------------------------------------- internals

    def _boot(self, index: int, port: int) -> Shard:
        wal_path = self._wal_path(index)
        deployment = Deployment(
            name=self.endpoint,
            manager_name=f"{self.endpoint}-s{index}",
            fault_scope=f"shard-{index}",
            counter_offers=True,
            wal_path=wal_path,
            fsync=self._fsync,
            auto_checkpoint_every=self._auto_checkpoint_every,
            group_commit=self._group_commit,
        )
        if self._provision is not None:
            self._provision(deployment, index, self.ring)
        if deployment.recovered:
            deployment.recover()
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
            workers=self._workers,
        )
        # Each shard's server owns the shard's registry and span ring;
        # WAL appends land there too, so one ``_metrics`` scrape covers
        # the shard's whole stack (server, admission, storage).
        deployment.store.wal.subscribe(wal_observer(server.metrics))
        deployment.store.wal.set_metrics(server.metrics)
        deployment.manager.metrics = server.metrics
        if self._history is not None:
            self._history.attach(index, deployment.store.wal)
        server.attach_store(deployment.store)
        server.register(
            self.endpoint,
            deployment.endpoint.handle,
            keys=deployment.endpoint.dispatch_keys,
        )
        runner = ThreadedServer(server)
        address = runner.start()
        return Shard(
            index=index,
            deployment=deployment,
            server=server,
            runner=runner,
            address=address,
            wal_path=wal_path,
        )

    def _wal_path(self, index: int) -> str | None:
        if self._wal_dir is None:
            return None
        return os.path.join(self._wal_dir, f"shard-{index}.wal")


def provision_products(
    products: int,
    stock_per_product: int,
    services: Sequence[type] | None = None,
) -> Provisioner:
    """A provisioner seeding ``product-i`` pools onto their ring shards.

    Each shard creates (and routes to the pool strategy) only the pools
    the shared :class:`~repro.cluster.partition.PartitionMap` places on
    it, so a gateway built over the same map agrees on every placement
    without any pin exchange.  Pools are not re-seeded when the shard
    recovered them from its WAL.
    """
    from ..services.merchant import MerchantService

    service_types = list(services) if services is not None else [MerchantService]

    def provision(
        deployment: Deployment, index: int, ring: PartitionMap
    ) -> None:
        for service_type in service_types:
            service = service_type()
            assert isinstance(service, ApplicationService)
            deployment.add_service(service)
        owned = [
            f"product-{number}"
            for number in range(products)
            if ring.shard_of(f"product-{number}") == index
        ]
        if owned:
            deployment.use_pool_strategy(*owned)
        if not deployment.recovered:
            with deployment.seed() as txn:
                for pool_id in owned:
                    deployment.resources.create_pool(
                        txn, pool_id, stock_per_product
                    )

    return provision
