"""The four workloads: what is built, what one unit of load does, what
must be true afterwards.

A *pair* is one promise lifecycle: a granting exchange, then a settling
exchange.  Every workload is a closed loop from one generator over one
client connection — the paper's clients are business processes that
each wait for a reply (§2, Figure 1).  The seed picks the pool order,
which pairs go cross-shard and the standing promises' quantities; the
program under test sees only the generated messages.

Each workload owns the objects it builds, which is what lets
:mod:`benchmarks.perf.layers` wrap their public methods for the traced
run without editing the program.
"""

from __future__ import annotations

import os
import random
import re
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster import ClusterGateway, PartitionMap, provision_products
from repro.core.environment import Environment
from repro.core.parser import P
from repro.core.promise import PromiseRequest
from repro.net import (
    NetworkTransport,
    PipelinedClient,
    PromiseServer,
    ThreadedServer,
)
from repro.net.server import NET_REPLY_JOURNAL_TABLE
from repro.obs.metrics import MetricsRegistry
from repro.protocol.client import PromiseClient
from repro.protocol.errors import ProtocolError, RequestTimeout, TransportFailure
from repro.protocol.messages import Message
from repro.protocol.retry import RetryPolicy
from repro.protocol.soap import SoapCodec
from repro.recovery import ReplyJournal
from repro.replication import ReplicatedFleet
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService
from repro.storage.group_commit import GroupCommitConfig
from repro.storage.wal import WriteAheadLog

ENDPOINT = "shop"
POOLS = tuple(f"product-{n}" for n in range(16))
STOCK = 10_000_000
#: The bench calls ``manager.vacuum()`` every this many pairs, between
#: timed exchanges, so the dead-row trail stays bounded.
VACUUM_EVERY = 64

CLIENT_ERRORS = (TransportFailure, RequestTimeout, ProtocolError)

GROUP_COMMIT = GroupCommitConfig(max_batch=64, max_hold=0.002, fsync=True)
PIPELINE_WORKERS = 8
PIPELINE_WINDOW = 8

STANDING_PROMISES = 128
STANDING_DURATION = 10**6
SCARCE_POOL = "scarce"
SCARCE_UNITS = 4
#: Every this many iterations ``standing_orders`` also asks for a unit
#: of the fully promised pool, which must be refused: 1 request in 9.
SCARCE_EVERY = 8
ORDER_UNITS = 2

FLEET_SHARDS = 2
FLEET_REPLICAS = 2
#: One pair in this many carries predicates on pools of two shards.
CROSS_EVERY = 4


@dataclass
class Samples:
    """What the load loop observed during one measured window."""

    grant_ms: list[float] = field(default_factory=list)
    settle_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    requests: int = 0
    rejected: int = 0

    def exchange(
        self, bucket: list[float], started: float, ok: bool
    ) -> None:
        """Count one exchange; only correct ones contribute a latency."""
        self.attempted += 1
        if ok:
            bucket.append((time.perf_counter() - started) * 1000.0)
        else:
            self.failed += 1


def quantity(pool: str, amount: int) -> tuple:
    """The one-predicate tuple ``quantity(pool) >= amount``."""
    return (P(f"quantity('{pool}') >= {amount}"),)


def pool_counters(deployment: Deployment) -> dict[str, tuple[int, int]]:
    """``pool -> (available, allocated)`` of every pool in a deployment."""
    with deployment.store.begin() as txn:
        return {
            pool.pool_id: (pool.available, pool.allocated)
            for pool in deployment.resources.pools(txn)
        }


class Workload:
    """Base: one merchant deployment behind one TCP server."""

    name = ""
    #: Pairs completed by one call of :meth:`unit`.
    pairs_per_unit = 1
    #: True when exchanges run one at a time, so the per-layer rows of
    #: the traced run stack up to the pair's wall time.
    one_at_a_time = True
    workers = 0
    group_commit: GroupCommitConfig | None = None
    #: Peak memory is read when this many pairs have completed since
    #: set-up (warm-up included), not when the window ends: the WAL keeps
    #: its records in memory, so memory at the end of a fixed *time*
    #: would grow with every gain in speed.  About two thirds of what a
    #: full run completes on the reference host.
    memory_mark_pairs = 5000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.order = list(POOLS)
        self.rng.shuffle(self.order)
        self.predicates = {pool: quantity(pool, 1) for pool in POOLS}
        self.index = 0
        self.pairs_done = 0
        self.shop: Deployment | None = None
        self.server: PromiseServer | None = None
        self.runner: ThreadedServer | None = None
        self.journal: ReplyJournal | None = None
        self.transport: NetworkTransport | None = None
        self.client: PromiseClient | None = None
        self.root = ""
        #: Units that left each pool for good (sold or consumed).
        self.sold: dict[str, int] = {pool: 0 for pool in POOLS}

    # ------------------------------------------------------------ set-up

    def build(self, root: str) -> None:
        """Stand the system up and complete one round trip."""
        self.root = root
        self.shop = self._deployment(os.path.join(root, "shop.wal"))
        self._seed(self.shop)
        self.journal = ReplyJournal(
            self.shop.store, table=NET_REPLY_JOURNAL_TABLE
        )
        self.server = PromiseServer(
            reply_journal=self.journal, workers=self.workers
        )
        # Group-commit counters (``wal.batch.*``) land in the server's
        # registry; a no-op for the per-append WAL.
        self.shop.store.wal.set_metrics(self.server.metrics)
        if self.workers:
            self.server.attach_store(self.shop.store)
            self.server.register(
                ENDPOINT,
                self.shop.endpoint.handle,
                keys=self.shop.endpoint.dispatch_keys,
            )
        else:
            self.server.register(ENDPOINT, self.shop.endpoint.handle)
        self.runner = ThreadedServer(self.server)
        self.address = self.runner.start()
        self.connect()
        self.unit(Samples())

    def _deployment(self, wal_path: str) -> Deployment:
        """The wiring shared by the live deployment and its reopen."""
        shop = Deployment(
            name=ENDPOINT,
            wal_path=wal_path,
            fsync=True,
            group_commit=self.group_commit,
        )
        shop.add_service(MerchantService())
        shop.use_pool_strategy(*self.pool_ids())
        return shop

    def pool_ids(self) -> tuple[str, ...]:
        return POOLS

    def _seed(self, shop: Deployment) -> None:
        with shop.seed() as txn:
            for pool in POOLS:
                shop.resources.create_pool(txn, pool, STOCK)

    def connect(self) -> None:
        self.transport = NetworkTransport(self.address)
        self.client = PromiseClient("bench", self.transport)

    def close(self) -> None:
        """Stop every thread and release every socket and file."""
        if self.transport is not None:
            self.transport.close()
        if self.runner is not None:
            self.runner.stop()
        if self.shop is not None:
            self.shop.close()

    # -------------------------------------------------------------- load

    def unit(self, samples: Samples) -> None:
        raise NotImplementedError

    def next_pool(self) -> str:
        pool = self.order[self.index % len(self.order)]
        self.index += 1
        return pool

    def grant(
        self, samples: Samples, predicates: tuple, expect_grant: bool = True
    ) -> str | None:
        """One timed promise-request exchange; the promise id if granted.

        The exchange is correct when the outcome is the designed one: a
        grant, or — ``expect_grant=False`` — a rejection.
        """
        assert self.client is not None
        samples.requests += 1
        promise_id = None
        correct = False
        started = time.perf_counter()
        try:
            response = self.client.request_promise(ENDPOINT, predicates, 3600)
            promise_id = response.promise_id if response.accepted else None
            correct = (promise_id is not None) == expect_grant
        except CLIENT_ERRORS:
            pass
        samples.exchange(samples.grant_ms, started, correct)
        if correct and not expect_grant:
            samples.rejected += 1
        return promise_id

    def release(self, samples: Samples, promise_id: str) -> None:
        """One timed pure-release exchange."""
        assert self.client is not None
        started = time.perf_counter()
        try:
            correct = not self.client.release(ENDPOINT, promise_id)
        except CLIENT_ERRORS:
            correct = False
        samples.exchange(samples.settle_ms, started, correct)

    def vacuum_if_due(self) -> None:
        if self.pairs_done % VACUUM_EVERY == 0:
            self.housekeeping()

    def housekeeping(self) -> None:
        """Vacuum the promise table, between timed exchanges."""
        assert self.shop is not None
        with self.shop.store.mutex:
            self.shop.manager.vacuum()

    # ----------------------------------------------------------- reading

    def deployments(self) -> list[Deployment]:
        return [deployment for _, deployment, _ in self.fronts()]

    def wals(self) -> dict[str, WriteAheadLog]:
        """Every WAL of the run, by file name."""
        assert self.shop is not None
        return {"shop.wal": self.shop.store.wal}

    def primary_wals(self) -> list[WriteAheadLog]:
        return [deployment.store.wal for deployment in self.deployments()]

    def registries(self) -> dict[str, list[MetricsRegistry]]:
        """The program's own registries: ``front`` client-facing
        servers, ``back`` follower servers, ``client`` the calling side."""
        return {
            "front": [server.metrics for server, _, _ in self.fronts()],
            "back": [server.metrics for server, _ in self.followers()],
            "client": self.client_registries(),
        }

    def client_registries(self) -> list[MetricsRegistry]:
        assert self.transport is not None
        return [self.transport.client.metrics]

    def fronts(self) -> list[tuple[PromiseServer, Deployment, object]]:
        """``(server, deployment, replication sender or None)`` of every
        client-facing process."""
        assert self.server is not None and self.shop is not None
        return [(self.server, self.shop, None)]

    def followers(self) -> list[tuple[PromiseServer, object]]:
        """``(server, replication receiver)`` of every follower."""
        return []

    def sample_envelopes(self) -> list[str]:
        """The XML of one pair's requests and replies, as sent."""
        assert self.transport is not None
        self.unit(Samples())
        return self.transport.wire_log[-4:]

    def live_promises(self) -> int:
        total = 0
        for deployment in self.deployments():
            with deployment.store.mutex:
                total += len(deployment.manager.active_promises())
        return total

    def settle(self) -> None:
        """Make every buffered WAL line reach its file."""
        for deployment in self.deployments():
            deployment.store.wait_durable()

    # ------------------------------------------------------ verification

    def expected_live(self) -> int:
        return 0

    def expected_counters(self) -> dict[str, tuple[int, int]]:
        return {pool: (STOCK - self.sold[pool], 0) for pool in POOLS}

    def verify(self) -> list[str]:
        """Final-state mismatches of the live system (empty = clean)."""
        problems = []
        live = self.live_promises()
        if live != self.expected_live():
            problems.append(
                f"live promises: {live}, expected {self.expected_live()}"
            )
        counters: dict[str, tuple[int, int]] = {}
        for deployment in self.deployments():
            counters.update(pool_counters(deployment))
        problems += compare_counters(counters, self.expected_counters())
        return problems

    def reopen(self) -> tuple[float, int, list[str]]:
        """Recover every primary WAL in a fresh deployment.

        Returns ``(seconds, records replayed, mismatches)``.  Call after
        :meth:`close`.  This is the read side of the WAL and the
        durability check: the recovered counters and live set must be
        the ones the live system ended with.
        """
        started = time.perf_counter()
        fresh = self._deployment(os.path.join(self.root, "shop.wal"))
        try:
            report = fresh.recover()
            elapsed = time.perf_counter() - started
            problems = [f"recovery: {finding}" for finding in report.findings]
            if report.promises_active != self.expected_live():
                problems.append(
                    f"recovered live promises: {report.promises_active}, "
                    f"expected {self.expected_live()}"
                )
            problems += compare_counters(
                pool_counters(fresh), self.expected_counters(), "recovered "
            )
            return elapsed, report.wal_records, problems
        finally:
            fresh.close()


def compare_counters(
    found: dict[str, tuple[int, int]],
    expected: dict[str, tuple[int, int]],
    prefix: str = "",
) -> list[str]:
    return [
        f"{prefix}pool {pool}: (available, allocated) = {found.get(pool)}, "
        f"expected {want}"
        for pool, want in sorted(expected.items())
        if found.get(pool) != want
    ]


# --------------------------------------------------------------- serial


class SerialPairs(Workload):
    """Grant one unit, release it, one blocking exchange at a time."""

    name = "serial_pairs"

    def unit(self, samples: Samples) -> None:
        promise_id = self.grant(samples, self.predicates[self.next_pool()])
        if promise_id is None:
            return
        self.release(samples, promise_id)
        self.pairs_done += 1
        self.vacuum_if_due()


# ------------------------------------------------------------ pipelined

_MID = b"__MESSAGE_ID__"
_RID = b"__REQUEST_ID__"
_PID = b"__PROMISE_ID__"
_PROMISE_ID = re.compile(
    rb'promise-response result="accepted"[^>]*\bpromise="([^"]+)"'
)


class PipelinedPairs(Workload):
    """Windows of grants in flight at once, then their releases (F8's
    driver) into the keyed-dispatch, group-commit server mode.

    Envelopes are cut from templates encoded once during set-up — the
    client codec is bypassed, so the server's mode is what is measured.
    """

    name = "pipelined_pairs"
    memory_mark_pairs = 3200
    pairs_per_unit = PIPELINE_WINDOW
    one_at_a_time = False
    workers = PIPELINE_WORKERS
    group_commit = GROUP_COMMIT
    pipeline: PipelinedClient | None = None

    def connect(self) -> None:
        codec = SoapCodec()
        self.grant_templates = {
            pool: codec.encode(
                Message(
                    message_id=_MID.decode(),
                    sender="bench",
                    recipient=ENDPOINT,
                    promise_requests=(
                        PromiseRequest(
                            _RID.decode(),
                            self.predicates[pool],
                            3600,
                            client_id="bench",
                        ),
                    ),
                )
            ).encode()
            for pool in POOLS
        }
        self.release_template = codec.encode(
            Message(
                message_id=_MID.decode(),
                sender="bench",
                recipient=ENDPOINT,
                environment=Environment.of(
                    _PID.decode(), release=(_PID.decode(),)
                ),
            )
        ).encode()
        self.pipeline = PipelinedClient(
            self.address, timeout=60.0, max_outstanding=2 * PIPELINE_WINDOW
        )

    def close(self) -> None:
        if self.pipeline is not None:
            self.pipeline.close()
        super().close()

    def client_registries(self) -> list[MetricsRegistry]:
        return [self.pipeline.metrics]

    def sample_envelopes(self) -> list[str]:
        pool = self.next_pool()
        number = str(self.index).encode()
        grant = (
            self.grant_templates[pool]
            .replace(_MID, b"m-" + number)
            .replace(_RID, b"r-" + number)
        )
        granted = self.pipeline.request(grant)
        promise_id = _granted_id(granted)
        assert promise_id is not None
        release = self.release_template.replace(
            _MID, b"rel-" + promise_id
        ).replace(_PID, promise_id)
        released = self.pipeline.request(release)
        return [
            envelope.decode() for envelope in (grant, granted, release, released)
        ]

    def _send(self, payload: bytes) -> tuple[float, list[float], object]:
        """Submit one envelope; the reader thread stamps its completion."""
        finished: list[float] = []
        started = time.perf_counter()
        future = self.pipeline.submit(payload)
        future.add_done_callback(
            lambda _: finished.append(time.perf_counter())
        )
        return started, finished, future

    def _collect(
        self,
        samples: Samples,
        bucket: list[float],
        sent: tuple[float, list[float], object],
        check: Callable[[bytes], object],
    ) -> object:
        started, finished, future = sent
        samples.attempted += 1
        try:
            verdict = check(future.result(timeout=60))  # type: ignore[attr-defined]
        except (*CLIENT_ERRORS, TimeoutError):
            verdict = None
        if verdict:
            # The waiter can wake before the done-callback has run.
            done = finished[0] if finished else time.perf_counter()
            bucket.append((done - started) * 1000.0)
        else:
            samples.failed += 1
        return verdict

    def unit(self, samples: Samples) -> None:
        grants = []
        for _ in range(PIPELINE_WINDOW):
            pool = self.next_pool()
            number = str(self.index).encode()
            grants.append(
                self._send(
                    self.grant_templates[pool]
                    .replace(_MID, b"m-" + number)
                    .replace(_RID, b"r-" + number)
                )
            )
        samples.requests += len(grants)
        promise_ids = [
            self._collect(samples, samples.grant_ms, sent, _granted_id)
            for sent in grants
        ]
        releases = [
            self._send(
                self.release_template.replace(
                    _MID, b"rel-" + promise_id
                ).replace(_PID, promise_id)
            )
            for promise_id in promise_ids
            if promise_id
        ]
        for sent in releases:
            if self._collect(samples, samples.settle_ms, sent, _no_fault):
                self.pairs_done += 1
        self.housekeeping()


def _granted_id(reply: bytes) -> bytes | None:
    match = _PROMISE_ID.search(reply)
    return match.group(1) if match else None


def _no_fault(reply: bytes) -> bool:
    return b"<fault" not in reply


# ------------------------------------------------------------- standing


class StandingOrders(Workload):
    """Check + act with 128 promises standing: Figure 1's last step.

    Each iteration is granted ``quantity(pool) >= 2`` and then sells 2
    units under that promise with release-on-success, so the manager's
    O(live) sweep runs on the grant *and* after the action.  The sale
    takes 2 units from the open pool and the release consumes the 2
    promised ones: 4 units leave the pool per iteration.
    """

    name = "standing_orders"
    memory_mark_pairs = 350

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.predicates = {pool: quantity(pool, ORDER_UNITS) for pool in POOLS}
        self.scarce = quantity(SCARCE_POOL, 1)
        self.standing = [
            (POOLS[n % len(POOLS)], self.rng.randint(1, 3))
            for n in range(STANDING_PROMISES)
        ]
        self.escrow = {pool: 0 for pool in POOLS}
        for pool, amount in self.standing:
            self.escrow[pool] += amount

    def pool_ids(self) -> tuple[str, ...]:
        return POOLS + (SCARCE_POOL,)

    def _seed(self, shop: Deployment) -> None:
        super()._seed(shop)
        with shop.seed() as txn:
            shop.resources.create_pool(txn, SCARCE_POOL, SCARCE_UNITS)
        for pool, amount in self.standing + [(SCARCE_POOL, SCARCE_UNITS)]:
            response = shop.manager.request_promise_for(
                quantity(pool, amount), STANDING_DURATION, client_id="standing"
            )
            if not response.accepted:
                raise RuntimeError(f"standing promise refused: {response.reason}")

    def expected_live(self) -> int:
        return STANDING_PROMISES + 1

    def expected_counters(self) -> dict[str, tuple[int, int]]:
        counters = {
            pool: (STOCK - self.escrow[pool] - self.sold[pool], self.escrow[pool])
            for pool in POOLS
        }
        counters[SCARCE_POOL] = (0, SCARCE_UNITS)
        return counters

    def unit(self, samples: Samples) -> None:
        assert self.client is not None
        pool = self.next_pool()
        promise_id = self.grant(samples, self.predicates[pool])
        if promise_id is None:
            return
        started = time.perf_counter()
        try:
            outcome = self.client.call(
                ENDPOINT,
                "merchant",
                "sell",
                {"product": pool, "quantity": ORDER_UNITS},
                environment=Environment.of(promise_id, release=(promise_id,)),
            )
            sold = outcome.success and promise_id in outcome.released
        except CLIENT_ERRORS:
            sold = False
        samples.exchange(samples.settle_ms, started, sold)
        if sold:
            self.sold[pool] += 2 * ORDER_UNITS
        self.pairs_done += 1
        if self.pairs_done % SCARCE_EVERY == 0:
            self.grant(samples, self.scarce, expect_grant=False)
        self.vacuum_if_due()


# ----------------------------------------------------------- replicated


class ReplicatedCross(Workload):
    """A 2-shard, 2-follower replicated fleet behind a routing gateway;
    one pair in four spans both shards."""

    name = "replicated_cross"
    memory_mark_pairs = 400

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.ring = PartitionMap(FLEET_SHARDS)
        for number, pool in enumerate(POOLS):
            self.ring.pin(pool, number % FLEET_SHARDS)
        by_shard = [
            [pool for pool in self.order if self.ring.shard_of(pool) == shard]
            for shard in range(FLEET_SHARDS)
        ]
        self.cross_predicates = [
            quantity(left, 1) + quantity(right, 1)
            for left, right in zip(*by_shard)
        ]
        #: Which pair of each block of CROSS_EVERY goes cross-shard.
        self.cross_slots = [
            self.rng.randrange(CROSS_EVERY) for _ in range(64)
        ]
        self.issued = 0
        self.fleet: ReplicatedFleet | None = None
        self.gateway: ClusterGateway | None = None
        self.shard_transports: list[NetworkTransport] = []

    def build(self, root: str) -> None:
        self.root = root
        self.fleet = ReplicatedFleet(
            FLEET_SHARDS,
            replicas=FLEET_REPLICAS,
            endpoint=ENDPOINT,
            provision=provision_products(len(POOLS), STOCK),
            wal_dir=root,
            fsync=True,
            ring=self.ring,
        )
        self.fleet.start()
        self.connect()
        self.unit(Samples())

    def connect(self) -> None:
        assert self.fleet is not None
        self.shard_transports = [
            NetworkTransport(
                address, timeout=5.0, retry=RetryPolicy.network()
            )
            for address in self.fleet.addresses()
        ]
        self.gateway = ClusterGateway(
            self.shard_transports, ring=self.ring, name="cluster"
        )
        self.fleet.attach(self.gateway)
        self.client = PromiseClient("bench", self.gateway)

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.close()
        for transport in self.shard_transports:
            transport.close()
        if self.fleet is not None:
            self.fleet.stop()

    def is_cross(self, pair: int) -> bool:
        block, slot = divmod(pair, CROSS_EVERY)
        return self.cross_slots[block % len(self.cross_slots)] == slot

    def unit(self, samples: Samples) -> None:
        if self.is_cross(self.issued):
            predicates = self.cross_predicates[
                self.index % len(self.cross_predicates)
            ]
            self.index += 1
        else:
            predicates = self.predicates[self.next_pool()]
        self.issued += 1
        promise_id = self.grant(samples, predicates)
        if promise_id is None:
            return
        self.release(samples, promise_id)
        self.pairs_done += 1
        self.vacuum_if_due()

    def housekeeping(self) -> None:
        for deployment in self.deployments():
            deployment.manager.vacuum()

    def wals(self) -> dict[str, WriteAheadLog]:
        assert self.fleet is not None
        found = {}
        for index in range(FLEET_SHARDS):
            group = self.fleet.group(index)
            assert group.primary.deployment is not None
            found[os.path.basename(group.primary.wal_path)] = (
                group.primary.deployment.store.wal
            )
            for follower in group.followers:
                assert follower.receiver is not None
                found[os.path.basename(follower.wal_path)] = (
                    follower.receiver.wal
                )
        return found

    def client_registries(self) -> list[MetricsRegistry]:
        assert self.gateway is not None
        return [self.gateway.metrics] + [
            transport.client.metrics for transport in self.shard_transports
        ]

    def fronts(self) -> list[tuple[PromiseServer, Deployment, object]]:
        assert self.fleet is not None
        primaries = [self.fleet.shard(index) for index in range(FLEET_SHARDS)]
        return [
            (primary.server, primary.deployment, primary.sender)  # type: ignore[misc]
            for primary in primaries
        ]

    def followers(self) -> list[tuple[PromiseServer, object]]:
        assert self.fleet is not None
        return [
            (follower.server, follower.receiver)
            for index in range(FLEET_SHARDS)
            for follower in self.fleet.group(index).followers
        ]

    def sample_envelopes(self) -> list[str]:
        while len(self.shard_transports[0].wire_log) < 4:
            self.unit(Samples())
        return self.shard_transports[0].wire_log[-4:]

    def verify(self) -> list[str]:
        assert self.fleet is not None
        problems = super().verify()
        for shard, findings in self.fleet.audit().items():
            problems += [f"shard {shard} audit: {finding}" for finding in findings]
        for index in range(FLEET_SHARDS):
            group = self.fleet.group(index)
            last = group.primary.applied_lsn()
            for follower in group.followers:
                if follower.applied_lsn() != last:
                    problems.append(
                        f"{follower.name} holds lsn {follower.applied_lsn()}, "
                        f"its primary {last}"
                    )
        return problems

    def reopen(self) -> tuple[float, int, list[str]]:
        """Recover each primary's WAL and one follower copy per group —
        the file a promotion would boot from."""
        elapsed = 0.0
        records = 0
        problems: list[str] = []
        provision = provision_products(len(POOLS), STOCK)
        expected = self.expected_counters()
        for index in range(FLEET_SHARDS):
            owned = {
                pool: want
                for pool, want in expected.items()
                if self.ring.shard_of(pool) == index
            }
            for wal_name in (f"shard-{index}.wal", f"shard-{index}-r1.wal"):
                started = time.perf_counter()
                fresh = Deployment(
                    name=ENDPOINT,
                    manager_name=f"{ENDPOINT}-s{index}",
                    counter_offers=True,
                    wal_path=os.path.join(self.root, wal_name),
                    fsync=True,
                )
                try:
                    provision(fresh, index, self.ring)
                    report = fresh.recover()
                    took = time.perf_counter() - started
                    problems += [
                        f"{wal_name} recovery: {finding}"
                        for finding in report.findings
                    ]
                    if report.promises_active:
                        problems.append(
                            f"{wal_name}: {report.promises_active} live "
                            "promises recovered, expected 0"
                        )
                    problems += compare_counters(
                        pool_counters(fresh), owned, f"{wal_name} "
                    )
                    if wal_name.endswith(f"shard-{index}.wal"):
                        elapsed += took
                        records += report.wal_records
                finally:
                    fresh.close()
        return elapsed, records, problems


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (SerialPairs, PipelinedPairs, StandingOrders, ReplicatedCross)
}
