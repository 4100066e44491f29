"""The long-duration locking baseline.

"Conventional database locking provides the semantic effect of ensuring
that data is not altered between the time a condition is checked and the
time it is needed ... but the locking mechanism assumes an environment
where activities run very quickly and all participants can be trusted to
hold locks.  These assumptions are inflexible and not suited for data
under high contention or for today's service-based applications." (§9)

Each client takes exclusive locks on every pool it needs and *holds them
across its entire work phase* — the semantics distributed ACID
transactions would impose on a long-running business process.  The costs
the paper predicts appear directly in the metrics: clients serialise on
hot pools (``wait`` ticks), multi-resource orders deadlock
(``deadlock``/``retry`` counters), and latency inflates — whereas the
promise regime rejects unfulfillable requests immediately and never
blocks or deadlocks (§9).

Lock acquisition order is deliberately randomised per client: autonomous
services composed ad hoc have no global resource-ordering convention to
rely on, which is precisely why deadlock is endemic in this regime.
"""

from __future__ import annotations

import itertools

from ..resources.manager import InsufficientResources
from ..sim.metrics import Metrics
from ..sim.random import RandomStream
from ..sim.workload import OrderJob
from ..storage.errors import DeadlockDetected
from ..storage.locks import LockMode, LockStatus
from .common import Regime, World

MAX_RETRIES = 3
"""Attempts per order before the client gives up after deadlocks."""


class LockingRegime(Regime):
    """Hold exclusive locks across the whole business process."""

    name = "locking"

    def __init__(self) -> None:
        self._lock_txn_ids = itertools.count(1)

    def client_process(self, world: World, job: OrderJob, metrics: Metrics):
        start = world.sim.now
        shuffler = RandomStream(
            hash((world.spec.seed, job.client_id)) & 0x7FFFFFFF, "lock-order"
        )
        backoff = RandomStream(
            hash((world.spec.seed, job.client_id)) & 0x7FFFFFFF, "backoff"
        )

        for attempt in range(1 + MAX_RETRIES):
            if attempt:
                metrics.count("retry")
                yield backoff.uniform_int(1, 4 * attempt)
            txn_id = next(self._lock_txn_ids)
            lock_order = shuffler.shuffle(
                [pool_id for pool_id, __ in job.demands]
            )
            try:
                deadlocked = False
                for pool_id in lock_order:
                    status = world.locks.acquire(
                        txn_id, pool_id, LockMode.EXCLUSIVE
                    )
                    while status is LockStatus.WAITING and (
                        pool_id not in world.locks.locks_held(txn_id)
                    ):
                        metrics.observe("wait", 1)
                        yield 1
                        status = LockStatus.WAITING  # re-test holder set
            except DeadlockDetected:
                metrics.count("deadlock")
                world.locks.release_all(txn_id)
                deadlocked = True
            if deadlocked:
                continue

            # Locks held: the check is now reliable for the whole process.
            with world.store.begin() as txn:
                available = all(
                    world.resources.pool(txn, pool_id).available >= quantity
                    for pool_id, quantity in job.demands
                )
            if not available:
                world.locks.release_all(txn_id)
                metrics.count("early_reject")
                return

            # Work while holding every lock — the §9 autonomy problem.
            yield job.work_ticks

            txn = world.store.begin()
            try:
                for pool_id, quantity in job.demands:
                    world.resources.remove_stock(txn, pool_id, quantity)
            except InsufficientResources:  # pragma: no cover - locks prevent it
                txn.abort()
                world.locks.release_all(txn_id)
                metrics.count("late_failure")
                metrics.observe("wasted_work", job.work_ticks)
                return
            txn.commit()
            world.locks.release_all(txn_id)
            metrics.count("success")
            metrics.count("units_sold", job.total_quantity)
            metrics.observe("latency", world.sim.now - start)
            return

        metrics.count("aborted_after_retries")
        metrics.observe("wasted_work", job.work_ticks)
