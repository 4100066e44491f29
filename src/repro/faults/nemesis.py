"""Seeded chaos nemesis: randomized fault schedules over a live fleet.

The crash-point matrix and the fleet fault tests each exercise one
hand-picked failure; the nemesis composes *all* of the substrate's fault
classes — socket request/reply drops, scoped crash points, full shard
kill/restarts and admission overload bursts — into a seeded randomized
schedule interleaved with a grant/release workload, then audits the
end state against the invariants the paper's protocol promises:

* **no over-grant** — after every held promise is released, every pool
  is back to its seeded stock with zero allocation;
* **at-most-once** — redelivered messages (the drops force them) never
  execute twice: the same audit catches a double grant as leftover
  allocation, and a double release as over-full availability (the pool
  record itself rejects it);
* **doctor-clean** — every shard's consistency doctor finds nothing;
* **no stranded compensations** — the gateway's pending queue drains to
  zero once the fleet is healthy.

A run also *proves its own coverage*: the report records, per fault
class, how many injections actually fired (a planned drop consumed, a
crash schedule tripped, a server shed), and any class that never fired
by the end is force-fired deterministically, so a green run cannot be
green because the chaos silently missed.

Crash probes deserve their footnote: a scoped crash point freezes the
victim's disk, after which the shard keeps serving from memory but
persists nothing.  The nemesis therefore probes through the gateway
(the client's redelivery reads the grant back from the durable reply
journal) and then immediately kills, disarms and restarts the victim —
anything the frozen shard did in memory after the crash is discarded,
exactly like a real process dying, instead of lingering as state that a
later restart would silently resurrect.

This module is deliberately *not* exported from :mod:`repro.faults`:
it imports the cluster and net layers, which themselves import
:mod:`repro.faults.crashpoints`, so an eager re-export would be
circular.  Import it as ``repro.faults.nemesis``.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace

from ..cluster.gateway import ClusterGateway
from ..cluster.partition import PartitionMap
from ..cluster.provision import provision_products
from ..core.parser import P
from ..net.transport import NetworkTransport
from ..obs.trace import SpanRecorder
from ..protocol.client import PromiseClient
from ..protocol.errors import ProtocolError, RequestTimeout, TransportFailure
from ..protocol.messages import Message
from ..protocol.retry import RetryPolicy
from ..replication import HeartbeatDetector, ReplicatedFleet
from ..resilience.admission import KIND_CHECK, AdmissionController
from ..resilience.breaker import CircuitBreaker
from .crashpoints import clear, install
from .history import HistoryRecorder, audit_history

FAULT_REQUEST_DROP = "request-drop"
FAULT_REPLY_DROP = "reply-drop"
FAULT_CRASH_POINT = "crash-point"
FAULT_KILL_RESTART = "kill-restart"
FAULT_OVERLOAD_BURST = "overload-burst"
FAULT_KILL_PRIMARY = "kill-primary"
FAULT_PARTITION_PRIMARY = "partition-primary"

#: Every fault class an unreplicated run injects; the report tracks
#: each separately.
FAULT_CLASSES: tuple[str, ...] = (
    FAULT_REQUEST_DROP,
    FAULT_REPLY_DROP,
    FAULT_CRASH_POINT,
    FAULT_KILL_RESTART,
    FAULT_OVERLOAD_BURST,
)

#: Additional classes a replicated run (``replicas > 0``) injects.
#: Both target a group's *primary* mid-traffic and audit the two
#: failover invariants: journaled replies survive promotion, and a
#: grant never executes on both sides of an epoch bump.
REPLICA_FAULT_CLASSES: tuple[str, ...] = (
    FAULT_KILL_PRIMARY,
    FAULT_PARTITION_PRIMARY,
)

#: Every third step injects the next scheduled fault; the rest operate.
FAULT_EVERY = 3

#: Crash points a probe can reach with a single-shard grant.  Both sit
#: after the grant committed, so the redelivery path (not a plain
#: retry-from-scratch) is what recovers the promise id.
CRASH_PROBE_POINTS: tuple[str, ...] = (
    "manager.after-grant-before-reply",
    "endpoint.before-reply",
)

class _RecordingGateway:
    """Client-side tap remembering the last message put on the wire.

    When a grant ultimately fails client-side (retry budget spent, or a
    breaker cut the redelivery short), the client cannot know whether
    the server granted.  §6's answer is redelivery: re-sending the
    *same* message id later is a read against the reply journal, not a
    second grant.  The nemesis drains these in-doubt messages once the
    fleet is healthy and releases whatever they reveal.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.last: "Message | None" = None

    def send(self, message):
        self.last = message
        return self.inner.send(message)


#: Benign faults a release may report during chaos: the promise is
#: already gone (released end-state by other means), or one of its
#: shards was unreachable — in which case the gateway queued the
#: sub-release as a pending compensation and the drain's flush applies
#: it once the shard is back.
_GONE_FAULTS = (
    "unknown-promise",
    "promise-expired",
    "cluster-shard-unreachable",
    "cluster-compensation-pending",
)


@dataclass
class NemesisReport:
    """What one seeded run did, injected, and (crucially) proved."""

    seed: int
    steps: int = 0
    operations: dict[str, int] = field(default_factory=dict)
    injected: dict[str, int] = field(default_factory=dict)
    fired: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    duplicates_served: int = 0
    shed: int = 0
    #: Spans the trace-history audit re-verified (0 = audit vacuous).
    spans_audited: int = 0
    #: WAL records the offline history checker folded (0 = vacuous).
    history_records: int = 0

    @property
    def ok(self) -> bool:
        """No invariant violations and every fault class actually fired.

        The run's active classes are exactly the keys the nemesis
        seeded into :attr:`fired` — an unreplicated run is not failed
        for never killing a primary it does not have.
        """
        classes = self.fired or {name: 0 for name in FAULT_CLASSES}
        return not self.violations and all(
            count > 0 for count in classes.values()
        )

    def summary(self) -> dict[str, object]:
        """JSON-serialisable view for the CLI and benchmarks."""
        return {
            "seed": self.seed,
            "steps": self.steps,
            "ok": self.ok,
            "operations": dict(self.operations),
            "faults_injected": dict(self.injected),
            "faults_fired": dict(self.fired),
            "violations": list(self.violations),
            "duplicates_served": self.duplicates_served,
            "shed": self.shed,
            "spans_audited": self.spans_audited,
            "history_records": self.history_records,
        }


class ChaosNemesis:
    """Drive one seeded chaos run against a WAL-backed shard fleet."""

    def __init__(
        self,
        seed: int,
        wal_dir: str | None = None,
        shards: int = 3,
        products: int = 9,
        stock: int = 20,
        steps: int = 30,
        time_budget: float | None = None,
        replicas: int = 0,
        heartbeat_interval: float = 0.1,
    ) -> None:
        if shards < 2:
            raise ValueError("chaos needs at least two shards to partition")
        self.seed = seed
        self.shards = shards
        self.products = products
        self.stock = stock
        self.steps = steps
        self.time_budget = time_budget
        #: Followers per shard.  > 0 runs a heartbeat detector over the
        #: fleet and adds the primary-targeting fault classes to the
        #: schedule.
        self.replicas = replicas
        self.heartbeat_interval = heartbeat_interval
        self.fault_classes: tuple[str, ...] = FAULT_CLASSES + (
            REPLICA_FAULT_CLASSES if replicas > 0 else ()
        )
        self._wal_dir = wal_dir
        self._rng = random.Random(seed)
        self._ring = PartitionMap(shards)
        self._held: list[str] = []
        self._in_doubt: list[Message] = []
        self._recorder: _RecordingGateway | None = None
        #: Records the client/gateway halves of every trace; shard
        #: servers keep their own rings.  The span audit reads both.
        self.tracer = SpanRecorder(capacity=16384)
        #: Taps every shard WAL; its offline fold is the third auditor
        #: (no-over-grant and at-most-once proven from history alone).
        self.history = HistoryRecorder()
        self._admissions: dict[int, AdmissionController] = {}
        self._message_count = 0
        self.report = NemesisReport(seed=seed)
        for name in self.fault_classes:
            self.report.injected[name] = 0
            self.report.fired[name] = 0

    # --------------------------------------------------------------- run

    def run(self) -> NemesisReport:
        """Boot the fleet, run the schedule, drain, audit, report."""
        owned_dir = self._wal_dir is None
        wal_dir = self._wal_dir or tempfile.mkdtemp(prefix="nemesis-")
        clear()
        ring = self._ring
        fleet = ReplicatedFleet(
            self.shards,
            replicas=self.replicas,
            provision=provision_products(self.products, self.stock),
            ring=ring,
            wal_dir=wal_dir,
            admission=self._admission_factory,
            history=self.history,
        )
        fleet.start()
        detector = None
        if self.replicas > 0:
            detector = HeartbeatDetector(
                fleet, interval=self.heartbeat_interval, miss_threshold=3
            ).start()
        transports = [
            NetworkTransport(address, timeout=2.0, retry=RetryPolicy.none())
            for address in fleet.addresses()
        ]
        breakers = [
            CircuitBreaker(
                f"chaos-s{index}", failure_threshold=4, reset_timeout=0.2
            )
            for index in range(self.shards)
        ]
        gateway = ClusterGateway(
            transports,
            ring=ring,
            breakers=breakers,
            pending_limit=64,
            tracer=self.tracer,
        )
        fleet.attach(gateway)
        self._recorder = _RecordingGateway(gateway)
        client = PromiseClient(
            "nemesis",
            self._recorder,
            retry=RetryPolicy(max_attempts=5, base_delay=0.05, max_delay=0.3),
            deadline=10.0,
            tracer=self.tracer,
        )
        started = time.monotonic()
        try:
            schedule = self._fault_schedule()
            for step in range(self.steps):
                if (
                    self.time_budget is not None
                    and time.monotonic() - started > self.time_budget
                ):
                    break
                self.report.steps += 1
                if step % FAULT_EVERY == 0 and schedule:
                    self._inject(schedule.pop(0), fleet, gateway, client)
                else:
                    self._operate(fleet, client)
            self._ensure_fired(fleet, gateway, client)
            self._drain(fleet, gateway, client)
            self._audit(fleet, gateway)
            servers = [fleet.shard(i).server for i in range(self.shards)]
            self.report.duplicates_served = sum(
                server.metrics.value("server.duplicates_served")
                for server in servers
            )
            self.report.shed = sum(
                server.metrics.value("server.shed") for server in servers
            )
        finally:
            clear()
            if detector is not None:
                detector.stop()
            self.history.detach_all()
            gateway.close()
            fleet.stop()
            if owned_dir:
                shutil.rmtree(wal_dir, ignore_errors=True)
        return self.report

    # --------------------------------------------------------- workload

    def _operate(self, fleet: ReplicatedFleet, client: PromiseClient) -> None:
        choice = self._rng.random()
        if choice < 0.4 or not self._held:
            if self._rng.random() < 0.6:
                self._grant(client, [self._pick_product()])
            else:
                self._grant(client, self._pick_cross_pair(fleet.ring))
        else:
            self._release(client, self._held.pop(self._rng.randrange(len(self._held))))

    def _grant(self, client: PromiseClient, products: list[str]) -> None:
        self._count_op("grant")
        predicates = [
            P(f"quantity('{product}') >= {self._rng.randint(1, 2)}")
            for product in products
        ]
        try:
            response = client.request_promise("shop", predicates, 60)
        except (TransportFailure, RequestTimeout, ProtocolError):
            self._count_op("grant-failed")
            # The server may have granted without us learning the id;
            # keep the exact wire message so the drain can redeliver it
            # and release whatever it reveals.
            last = self._recorder.last if self._recorder else None
            if last is not None and last.promise_requests:
                self._in_doubt.append(replace(last, deadline=None))
            return
        if response.accepted and response.promise_id:
            self._held.append(response.promise_id)

    def _release(self, client: PromiseClient, promise_id: str) -> bool:
        self._count_op("release")
        try:
            faults = client.release("shop", promise_id)
        except (TransportFailure, RequestTimeout, ProtocolError):
            self._held.append(promise_id)  # try again during the drain
            self._count_op("release-failed")
            return False
        bad = [
            fault
            for fault in faults
            if not any(gone in fault for gone in _GONE_FAULTS)
        ]
        if bad:
            self.report.violations.append(
                f"release of {promise_id} faulted: {bad}"
            )
        return True

    def _pick_product(self, shard: int | None = None) -> str:
        candidates = [f"product-{n}" for n in range(self.products)]
        if shard is not None:
            candidates = [
                p for p in candidates if self._ring.shard_of(p) == shard
            ] or candidates
        return self._rng.choice(candidates)

    def _pick_cross_pair(self, ring: PartitionMap) -> list[str]:
        first = self._pick_product()
        home = ring.shard_of(first)
        others = [
            f"product-{n}"
            for n in range(self.products)
            if ring.shard_of(f"product-{n}") != home
        ]
        if not others:
            return [first]
        return [first, self._rng.choice(others)]

    # ---------------------------------------------------------- injection

    def _fault_schedule(self) -> list[str]:
        rounds = max(1, self.steps // FAULT_EVERY)
        schedule: list[str] = []
        while len(schedule) < rounds:
            batch = list(self.fault_classes)
            self._rng.shuffle(batch)
            schedule.extend(batch)
        return schedule[:rounds]

    def _inject(
        self,
        fault: str,
        fleet: ReplicatedFleet,
        gateway: ClusterGateway,
        client: PromiseClient,
    ) -> None:
        self.report.injected[fault] += 1
        victim = self._rng.randrange(self.shards)
        if fault == FAULT_REQUEST_DROP:
            self._inject_drop(fault, victim, gateway, client, reply=False)
        elif fault == FAULT_REPLY_DROP:
            self._inject_drop(fault, victim, gateway, client, reply=True)
        elif fault == FAULT_CRASH_POINT:
            self._inject_crash(victim, fleet, gateway, client)
        elif fault == FAULT_KILL_RESTART:
            self._inject_kill(victim, fleet, gateway, client)
        elif fault == FAULT_OVERLOAD_BURST:
            self._inject_overload(victim, fleet, client)
        elif fault == FAULT_KILL_PRIMARY:
            self._inject_kill_primary(victim, fleet, gateway, client)
        elif fault == FAULT_PARTITION_PRIMARY:
            self._inject_partition(victim, fleet, gateway, client)

    def _inject_drop(
        self,
        fault: str,
        victim: int,
        gateway: ClusterGateway,
        client: PromiseClient,
        reply: bool,
    ) -> None:
        # Read the victim's transport *through* the gateway: a replica
        # failover remaps it, and the constructor-time list goes stale.
        transport = gateway.transport(victim)
        metrics = transport.metrics
        dropped = (
            "transport.dropped_replies" if reply else "transport.dropped_requests"
        )
        before = metrics.value(dropped)
        plan = (
            transport.plan_reply_drop if reply else transport.plan_request_drop
        )
        plan(int(metrics.value("transport.sent")) + 1)
        # A grant homed on the victim consumes the plan; the client's
        # redelivery (same message id) is what §6 exists for.
        self._grant(client, [self._pick_product(shard=victim)])
        if metrics.value(dropped) > before:
            self.report.fired[fault] += 1

    def _inject_crash(
        self,
        victim: int,
        fleet: ReplicatedFleet,
        gateway: ClusterGateway,
        client: PromiseClient,
    ) -> None:
        point = self._rng.choice(CRASH_PROBE_POINTS)
        schedule = install(point, scope=fleet.primary_scope(victim))
        try:
            self._grant(client, [self._pick_product(shard=victim)])
        finally:
            fired = schedule.fired
            clear()
        if fired:
            self.report.fired[FAULT_CRASH_POINT] += 1
        # The frozen shard has been serving from memory since the crash
        # fired; kill it NOW so nothing non-durable survives, then bring
        # it back from its WAL like a real restart would.
        fleet.kill(victim)
        fleet.restart(victim)
        self._flush(gateway)

    def _inject_kill(
        self,
        victim: int,
        fleet: ReplicatedFleet,
        gateway: ClusterGateway,
        client: PromiseClient,
    ) -> None:
        fleet.kill(victim)
        self.report.fired[FAULT_KILL_RESTART] += 1
        for _ in range(2):
            self._operate(fleet, client)
        fleet.restart(victim)
        self._flush(gateway)

    def _inject_overload(
        self, victim: int, fleet: ReplicatedFleet, client: PromiseClient
    ) -> None:
        admission = self._admissions.get(victim)
        server_metrics = fleet.shard(victim).server.metrics
        before = server_metrics.value("server.shed")
        if admission is not None:
            # Drain the victim's bucket so the next real check sheds.
            for _ in range(int(admission.burst) + 1):
                if not admission.admit(KIND_CHECK):
                    break
        self._grant(client, [self._pick_product(shard=victim)])
        if server_metrics.value("server.shed") > before:
            self.report.fired[FAULT_OVERLOAD_BURST] += 1

    def _inject_kill_primary(
        self,
        victim: int,
        fleet: ReplicatedFleet,
        gateway: ClusterGateway,
        client: PromiseClient,
    ) -> None:
        """Kill a primary mid-grant; audit both failover invariants.

        Stage one acks a grant (G1) and keeps its exact wire message;
        stage two arms a scoped crash between commit and reply and
        attempts a second grant (G2), whose commit ships to the
        followers but whose ack the client never sees.  After the
        detector promotes a follower, redelivering G1 must return the
        *original* promise id (journaled replies survive failover) and
        redelivering G2 twice must return one id both times (no double
        grant across epochs) — either mismatch is a recorded violation,
        not just a failed run.
        """
        epoch_before = fleet.epoch(victim)
        g1_message, g1_id = self._acked_grant(victim, client)
        point = "manager.after-grant-before-reply"
        schedule = install(point, scope=fleet.primary_scope(victim))
        g2_message = None
        try:
            self._count_op("grant")
            try:
                client.request_promise(
                    "shop",
                    [P(f"quantity('{self._pick_product(shard=victim)}') >= 1")],
                    60,
                )
            except (TransportFailure, RequestTimeout, ProtocolError):
                self._count_op("grant-failed")
            last = self._recorder.last if self._recorder else None
            if last is not None and last.promise_requests:
                g2_message = replace(last, deadline=None)
        finally:
            crashed_mid_grant = schedule.fired
            clear()
        fleet.kill(victim)
        if not fleet.await_failover(victim, beyond_epoch=epoch_before, timeout=15.0):
            fleet.restart(victim)  # detector missed: force the promotion
        promoted = fleet.epoch(victim) > epoch_before
        if crashed_mid_grant and promoted:
            self.report.fired[FAULT_KILL_PRIMARY] += 1
        if g1_message is not None and g1_id is not None:
            revealed = self._redeliver_ids(gateway, g1_message, attempts=2)
            if revealed and all(r == g1_id for r in revealed):
                self._release(client, g1_id)
            else:
                self.report.violations.append(
                    f"journaled reply lost in failover: grant "
                    f"{g1_message.message_id} was {g1_id}, redelivery "
                    f"returned {revealed}"
                )
        if g2_message is not None:
            revealed = self._redeliver_ids(gateway, g2_message, attempts=2)
            if len(set(revealed)) > 1:
                self.report.violations.append(
                    f"double grant across epochs: redeliveries of "
                    f"{g2_message.message_id} returned {revealed}"
                )
            for promise_id in set(revealed):
                self._release(client, promise_id)
        fleet.restart(victim)  # rejoin the corpse as a fresh follower
        self._flush(gateway)

    def _inject_partition(
        self,
        victim: int,
        fleet: ReplicatedFleet,
        gateway: ClusterGateway,
        client: PromiseClient,
    ) -> None:
        """Partition a primary from its followers mid-traffic.

        The cut primary keeps running and keeps accepting TCP — the
        replication gate is what stops it acking, so the grant attempt
        lands in doubt.  The detector treats the partition as missed
        heartbeats and promotes; healing retires the zombie and rejoins
        it.  The in-doubt grant resolves during the drain against the
        *new* primary, and the final stock audit catches any grant that
        leaked on both sides.
        """
        epoch_before = fleet.epoch(victim)
        fleet.partition(victim)
        self._grant(client, [self._pick_product(shard=victim)])
        if not fleet.await_failover(victim, beyond_epoch=epoch_before, timeout=15.0):
            fleet.failover(victim)
        if fleet.epoch(victim) > epoch_before:
            self.report.fired[FAULT_PARTITION_PRIMARY] += 1
        fleet.heal(victim)
        self._flush(gateway)

    def _acked_grant(
        self, victim: int, client: PromiseClient
    ) -> tuple[Message | None, str | None]:
        """One successful grant homed on ``victim``: (wire message, id)."""
        self._count_op("grant")
        product = self._pick_product(shard=victim)
        try:
            response = client.request_promise(
                "shop", [P(f"quantity('{product}') >= 1")], 60
            )
        except (TransportFailure, RequestTimeout, ProtocolError):
            self._count_op("grant-failed")
            last = self._recorder.last if self._recorder else None
            if last is not None and last.promise_requests:
                self._in_doubt.append(replace(last, deadline=None))
            return None, None
        last = self._recorder.last if self._recorder else None
        if response.accepted and response.promise_id and last is not None:
            return replace(last, deadline=None), response.promise_id
        return None, None

    def _redeliver_ids(
        self, gateway: ClusterGateway, message: Message, attempts: int
    ) -> list[str]:
        """Redeliver the same wire message N times; collect granted ids."""
        revealed: list[str] = []
        for _ in range(attempts):
            reply = None
            for _ in range(4):
                try:
                    reply = gateway.send(message)
                    break
                except (TransportFailure, RequestTimeout, ProtocolError):
                    time.sleep(0.1)
            if reply is None:
                self.report.violations.append(
                    f"redelivery of {message.message_id} unresolvable"
                )
                continue
            for response in reply.promise_responses:
                if response.accepted and response.promise_id:
                    revealed.append(response.promise_id)
        return revealed

    def _ensure_fired(
        self,
        fleet: ReplicatedFleet,
        gateway: ClusterGateway,
        client: PromiseClient,
    ) -> None:
        """Force-fire any class the randomized schedule missed.

        Coverage is part of the contract: a run that never actually
        dropped a reply proves nothing about redelivery.
        """
        for fault in self.fault_classes:
            attempts = 0
            while self.report.fired[fault] == 0 and attempts < 3:
                attempts += 1
                self.report.injected[fault] += 1
                victim = attempts % self.shards
                if fault == FAULT_REQUEST_DROP:
                    self._inject_drop(fault, victim, gateway, client, reply=False)
                elif fault == FAULT_REPLY_DROP:
                    self._inject_drop(fault, victim, gateway, client, reply=True)
                elif fault == FAULT_CRASH_POINT:
                    self._inject_crash(victim, fleet, gateway, client)
                elif fault == FAULT_KILL_RESTART:
                    self._inject_kill(victim, fleet, gateway, client)
                elif fault == FAULT_OVERLOAD_BURST:
                    self._inject_overload(victim, fleet, client)
                elif fault == FAULT_KILL_PRIMARY:
                    self._inject_kill_primary(victim, fleet, gateway, client)
                elif fault == FAULT_PARTITION_PRIMARY:
                    self._inject_partition(victim, fleet, gateway, client)
            if self.report.fired[fault] == 0:
                self.report.violations.append(
                    f"fault class {fault!r} never fired"
                )

    # ------------------------------------------------------------- drain

    def _drain(
        self,
        fleet: ReplicatedFleet,
        gateway: ClusterGateway,
        client: PromiseClient,
    ) -> None:
        clear()
        for index in range(self.shards):
            if not fleet.shard(index).alive:
                fleet.restart(index)
        time.sleep(0.25)  # let half-open breakers admit their probes
        self._resolve_in_doubt(gateway, client)
        for _ in range(3):
            if not self._held:
                break
            retry = list(self._held)
            self._held = []
            for promise_id in retry:
                self._release(client, promise_id)
            if self._held:
                time.sleep(0.2)
        for promise_id in self._held:
            self.report.violations.append(
                f"promise {promise_id} could not be released"
            )
        self._flush(gateway, attempts=5)

    def _resolve_in_doubt(
        self, gateway: ClusterGateway, client: PromiseClient
    ) -> None:
        """Redeliver abandoned grant messages; release what they reveal.

        Same message id as the original attempt, so a server that did
        execute it replays the journaled reply instead of granting
        again — redelivery is how a §6 client settles its own doubt.
        """
        for message in self._in_doubt:
            reply = None
            for _ in range(3):
                try:
                    reply = gateway.send(message)
                    break
                except (TransportFailure, RequestTimeout, ProtocolError):
                    time.sleep(0.1)
            if reply is None:
                self.report.violations.append(
                    f"in-doubt grant {message.message_id} unresolvable"
                )
                continue
            for response in reply.promise_responses:
                if response.accepted and response.promise_id:
                    self._release(client, response.promise_id)
        self._in_doubt = []

    def _flush(self, gateway: ClusterGateway, attempts: int = 2) -> None:
        for _ in range(attempts):
            if gateway.pending_compensations == 0:
                return
            gateway.flush_pending()
            if gateway.pending_compensations:
                time.sleep(0.1)

    # ------------------------------------------------------------- audits

    def _audit(self, fleet: ReplicatedFleet, gateway: ClusterGateway) -> None:
        self.report.violations.extend(audit_fleet(fleet, self.stock))
        if gateway.pending_compensations:
            self.report.violations.append(
                f"{gateway.pending_compensations} compensations still pending"
            )
        spans = self._collect_spans(fleet)
        self.report.spans_audited = len(spans)
        self.report.violations.extend(audit_spans(spans))
        self.report.history_records = self.history.events_recorded
        self.report.violations.extend(audit_history(self.history))

    def _collect_spans(self, fleet: ReplicatedFleet) -> list[dict]:
        """Every span the run produced, from every recorder that has one.

        The nemesis recorder holds the client/gateway halves; each shard
        server holds its own dispatch spans.  In a replicated run a
        deposed primary's ring matters most — the whole point of the
        trace audit is to see executions on *both* sides of an epoch
        bump, and the pre-failover side lives only in the deposed
        process's recorder.
        """
        spans = [span.to_dict() for span in self.tracer.spans()]
        for index in range(self.shards):
            group = fleet.group(index)
            for replica in [group.primary] + group.followers + group.deposed:
                spans.extend(
                    span.to_dict() for span in replica.server.tracer.spans()
                )
        return spans

    # ---------------------------------------------------------- internals

    def _admission_factory(self, index: int) -> AdmissionController:
        controller = AdmissionController(
            max_queue=32, rate=30.0, burst=6.0, reserve=1.0
        )
        self._admissions[index] = controller
        return controller

    def _count_op(self, name: str) -> None:
        self.report.operations[name] = self.report.operations.get(name, 0) + 1


def audit_spans(spans: list[dict]) -> list[str]:
    """Re-verify at-most-once execution from exported trace history alone.

    Every executed, acknowledged ``server.dispatch`` span carries the
    message id, the admission kind and the serving epoch.  At-most-once
    therefore has a purely observational restatement: no message id may
    own two such spans — *ever*, including across a failover.  A check
    executed and acknowledged at epoch 0 and again at epoch 1 is exactly
    the double grant the epoch fence exists to prevent, and it is
    visible here with no server state needed.

    Spans whose acknowledgement was withheld (``fenced`` outcome on a
    deposed primary) or lost to a crash are excluded: their execution
    was never promised to the client, so the journalled replay on the
    survivor is the protocol working, not a violation.
    """
    seen: set[str] = set()
    acknowledged: dict[str, list[dict]] = {}
    for span in spans:
        span_id = str(span.get("span_id", ""))
        if span_id in seen:
            continue  # the same span scraped via two paths
        seen.add(span_id)
        if span.get("name") != "server.dispatch":
            continue
        attributes = span.get("attributes") or {}
        if not attributes.get("executed"):
            continue
        if span.get("outcome") != "ok":
            continue
        message_id = attributes.get("message_id")
        if not message_id:
            continue
        acknowledged.setdefault(str(message_id), []).append(span)
    violations: list[str] = []
    for message_id, hits in sorted(acknowledged.items()):
        if len(hits) < 2:
            continue
        epochs = sorted(
            {str((hit.get("attributes") or {}).get("epoch")) for hit in hits}
        )
        kind = (hits[0].get("attributes") or {}).get("kind", "?")
        where = (
            f"across epochs {'/'.join(epochs)}"
            if len(epochs) > 1
            else f"at epoch {epochs[0]}"
        )
        violations.append(
            f"span audit: {kind} message {message_id} executed and "
            f"acknowledged {len(hits)} times {where}"
        )
    return violations


def audit_fleet(fleet: ReplicatedFleet, stock: int) -> list[str]:
    """End-state invariant audit of a nemesis run (and of a planted leak).

    With every promise released, over-grant, double-execution and lost
    release all leave the same fingerprint: a pool whose availability or
    allocation differs from its seeded state.
    """
    violations: list[str] = []
    for index, count in fleet.live_promises().items():
        if count:
            violations.append(f"shard {index} holds {count} live promises")
    for index, findings in fleet.audit().items():
        for finding in findings:
            violations.append(f"shard {index} doctor: {finding}")
    for index in range(len(fleet)):
        shard = fleet.shard(index)
        if not shard.alive:
            violations.append(f"shard {index} is not alive at audit time")
            continue
        deployment = shard.deployment
        with deployment.store.transaction() as txn:
            for pool in deployment.resources.pools(txn):
                if pool.available != stock or pool.allocated != 0:
                    violations.append(
                        f"pool {pool.pool_id} on shard {index}: "
                        f"available={pool.available} allocated={pool.allocated}"
                        f" (expected available={stock} allocated=0)"
                    )
    return violations
