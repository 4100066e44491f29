"""What one shard is made of: its resources, and the server it sits behind.

The fleet (:class:`repro.replication.ReplicatedFleet`) decides *when* a
shard's deployment is built — first boot, crash restart, promotion of a
follower — and this module holds the two things every one of those
occasions shares:

* the callbacks a fleet is configured with (:data:`Provisioner`,
  :data:`AdmissionFactory`) and the stock provisioner
  :func:`provision_products`, which seeds each shard with exactly the
  pools the shared :class:`~repro.cluster.partition.PartitionMap` places
  on it;
* :func:`host_deployment`, the one statement of "a deployment behind a
  :class:`~repro.net.server.PromiseServer`": admission control, one
  metrics registry for the whole process, the store's mutex and
  durability barrier, and the endpoint handler with its dispatch keys.
  ``repro serve``, a fleet primary's boot and a follower's promotion all
  call it, so a restarted, promoted or standalone server cannot differ
  in how it dispatches.  The one durable reply journal is the
  manager's, written inside each effect's transaction; the server adds
  none.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..net.server import NET_REPLY_JOURNAL_TABLE, PromiseServer
from ..obs.metrics import wal_observer
from ..recovery import ReplyJournal
from ..resilience.admission import AdmissionController
from ..services.base import ApplicationService
from ..services.deployment import Deployment
from .partition import PartitionMap

#: Provisioner callback: wire services/strategies and seed resources on
#: one freshly built shard deployment.  Called on first boot *and* on
#: restart — use ``deployment.recovered`` to skip re-seeding.
Provisioner = Callable[[Deployment, int, PartitionMap], None]

#: Admission factory: build one shard's admission controller (or return
#: ``None`` for no admission control).  Called per boot, restart and
#: promotion, so every incarnation starts with a fresh (full) token
#: bucket.
AdmissionFactory = Callable[[int], "AdmissionController | None"]


def host_deployment(
    deployment: Deployment,
    endpoint: str,
    server: PromiseServer | None = None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    admission: AdmissionController | None = None,
    workers: int = 0,
) -> PromiseServer:
    """Put ``deployment`` behind a server and return that server.

    Without ``server`` a new one is built on ``host:port`` with
    ``workers`` dispatch threads; a promotion passes the follower's
    already-listening server instead, which keeps its address and worker
    pool.  Either way the server ends up with the admission controller,
    the store's transaction mutex, request scope and durability barrier,
    and the
    endpoint registered with its dispatch keys; a client retrying across
    a restart or a failover re-enters the handler, which renders the
    original reply from the manager's journal row.  (A log an older
    build wrote also holds whole envelopes; those are read into the
    dedup cache, and nothing writes that table any more.)

    The server's registry becomes the deployment's too: WAL appends,
    barrier batches and the manager's check widths land beside the
    request counters, so one ``_metrics`` scrape (``repro top``) covers
    the whole process.
    """
    if server is None:
        server = PromiseServer(
            host=host,
            port=port,
            metrics=admission.metrics if admission is not None else None,
            workers=workers,
        )
    if NET_REPLY_JOURNAL_TABLE in deployment.store.tables():
        server.attach_journal(
            ReplyJournal(deployment.store, table=NET_REPLY_JOURNAL_TABLE)
        )
    server.attach_admission(admission)
    wal = deployment.store.wal
    wal.subscribe(wal_observer(server.metrics))
    wal.set_metrics(server.metrics)
    deployment.manager.metrics = server.metrics
    server.attach_store(deployment.store)
    server.register(
        endpoint,
        deployment.endpoint.handle,
        keys=deployment.endpoint.dispatch_keys,
    )
    return server


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
