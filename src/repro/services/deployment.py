"""One-call wiring of a complete promise-enabled deployment.

Assembles the full Figure-2 stack — store, resource manager, strategy
registry, promise manager, application services, protocol endpoint and
transport — so examples, tests and benchmarks can stand a system up in a
few lines:

.. code-block:: python

    deployment = Deployment(name="shop")
    deployment.add_service(MerchantService())
    deployment.use_pool_strategy("pink_widgets")
    with deployment.seed() as txn:
        deployment.resources.create_pool(txn, "pink_widgets", 100)
    client = deployment.client("alice")
    client.request_promise("shop", [P("quantity('pink_widgets') >= 5")], 10)
"""

from __future__ import annotations

from ..core.clock import LogicalClock
from ..core.manager import PromiseManager
from ..obs.metrics import MetricsRegistry, wal_observer
from ..protocol.client import PromiseClient
from ..recovery import RecoveryReport, recover
from ..protocol.endpoint import PromiseEndpoint
from ..protocol.transport import InProcessTransport
from ..resources.manager import ResourceManager
from ..storage.group_commit import GroupCommitConfig
from ..storage.store import Store
from ..storage.transactions import Transaction
from ..strategies.allocated_tags import AllocatedTagsStrategy
from ..strategies.delegation import DelegationStrategy, UpstreamPromiseMaker
from ..strategies.registry import StrategyRegistry
from ..strategies.resource_pool import ResourcePoolStrategy
from ..strategies.tentative import TentativeAllocationStrategy
from .base import ApplicationService, ServiceRegistry


class Deployment:
    """A fully wired promise-enabled service deployment."""

    def __init__(
        self,
        name: str = "app",
        clock: LogicalClock | None = None,
        transport: InProcessTransport | None = None,
        max_duration: int | None = None,
        counter_offers: bool = False,
        wal_path: str | None = None,
        fsync: bool = False,
        auto_checkpoint_every: int | None = None,
        manager_name: str | None = None,
        fault_scope: str | None = None,
        metrics: MetricsRegistry | None = None,
        group_commit: "GroupCommitConfig | None" = None,
    ) -> None:
        # ``manager_name`` separates the endpoint name clients address
        # (shared by every shard of a cluster) from the name seeding the
        # manager's id pools (which must be unique per shard, or two
        # shards would mint the same promise ids).  ``fault_scope``
        # likewise tags this deployment's store and WAL for scoped crash
        # injection, so a fleet test can kill one shard and leave its
        # siblings' disks live.
        # ``metrics`` (optional) hooks this deployment's WAL into a
        # shared registry (``wal.appends`` / ``wal.commits`` /
        # ``wal.checkpoints``), gives the promise manager somewhere to
        # report check width and the live-promise count, and routes
        # recovery audits through it.  ``group_commit`` is accepted and
        # ignored (the WAL has one write path), for callers not yet moved
        # off it.
        self.name = name
        self.clock = clock or LogicalClock()
        self.metrics = metrics
        self.store = Store(
            wal_path=wal_path,
            fsync=fsync,
            auto_checkpoint_every=auto_checkpoint_every,
            fault_scope=fault_scope,
        )
        if metrics is not None:
            self.store.wal.set_metrics(metrics)
        self.resources = ResourceManager(self.store)
        self.registry = StrategyRegistry()
        self.manager = PromiseManager(
            store=self.store,
            resources=self.resources,
            clock=self.clock,
            registry=self.registry,
            name=manager_name or name,
            max_duration=max_duration,
            counter_offers=counter_offers,
            metrics=metrics,
        )
        if metrics is not None:
            self.store.wal.subscribe(wal_observer(metrics))
        self.services = ServiceRegistry()
        self.transport = transport or InProcessTransport()
        self.endpoint = PromiseEndpoint(
            self.manager, self.services.resolver(), name=name
        )
        self.transport.register(name, self.endpoint.handle)
        self._pool_strategy: ResourcePoolStrategy | None = None
        self._tags_strategy: AllocatedTagsStrategy | None = None
        self._tentative_strategy: TentativeAllocationStrategy | None = None
        self.recovery_report: RecoveryReport | None = None
        self._closed = False

    # ------------------------------------------------------------- wiring

    def add_service(self, service: ApplicationService) -> ApplicationService:
        """Register a service and let it create its tables."""
        self.services.register(service)
        service.setup(self.store)
        return service

    def client(self, client_name: str) -> PromiseClient:
        """A protocol client stub talking to this deployment."""
        return PromiseClient(client_name, self.transport)

    def seed(self) -> Transaction:
        """A transaction for populating initial resource state."""
        return self.store.begin()

    @property
    def recovered(self) -> bool:
        """True when the store replayed an existing WAL on startup.

        Callers use this to skip re-seeding resources that the log
        already holds.
        """
        return self.store.recovered

    def recover(self, *, repair: bool = True) -> RecoveryReport:
        """Restore runtime state after a restart from an existing WAL.

        Call this *after* wiring services and strategies — the
        expired-while-down sweep dispatches each promise's ``on_expire``
        through the strategy registry, so escrowed resources only flow
        back if the owning strategy is registered again.  The report is
        also kept on :attr:`recovery_report` for later inspection.
        """
        report = recover(self.manager, repair=repair, registry=self.metrics)
        self.recovery_report = report
        return report

    def close(self) -> None:
        """Release the store's WAL file handle (idempotent).

        Safe to call any number of times, and from ``finally`` blocks
        racing an earlier explicit close — the second and later calls are
        no-ops, so tests and the CLI can always pair every Deployment
        with a close without tracking who closed it first.
        """
        if self._closed:
            return
        self._closed = True
        self.store.close()

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ---------------------------------------------------- strategy routing

    def use_pool_strategy(self, *pool_ids: str) -> ResourcePoolStrategy:
        """Route these pools to escrow-style resource pooling (§5)."""
        if self._pool_strategy is None:
            self._pool_strategy = ResourcePoolStrategy()
        self.registry.assign_many(pool_ids, self._pool_strategy)
        return self._pool_strategy

    def use_tags_strategy(self, *resource_ids: str) -> AllocatedTagsStrategy:
        """Route these instances/collections to allocated tags (§5)."""
        if self._tags_strategy is None:
            self._tags_strategy = AllocatedTagsStrategy()
        self.registry.assign_many(resource_ids, self._tags_strategy)
        return self._tags_strategy

    def use_tentative_strategy(
        self, *collection_ids: str
    ) -> TentativeAllocationStrategy:
        """Route these collections to tentative allocation (§5)."""
        if self._tentative_strategy is None:
            self._tentative_strategy = TentativeAllocationStrategy()
        self.registry.assign_many(collection_ids, self._tentative_strategy)
        return self._tentative_strategy

    def use_delegation(
        self,
        upstream: UpstreamPromiseMaker,
        *resource_ids: str,
        delegate_as: str | None = None,
    ) -> DelegationStrategy:
        """Route these resources to an upstream promise maker (§5)."""
        strategy = DelegationStrategy(
            upstream, delegate_as=delegate_as or self.name
        )
        self.registry.assign_many(resource_ids, strategy)
        return strategy
