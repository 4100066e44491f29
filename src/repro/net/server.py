"""Asyncio TCP server hosting promise-protocol endpoints.

The networked face of Figure 2's promise manager: any number of
registered handlers (the same ``Handler`` contract
:class:`~repro.protocol.transport.InProcessTransport` uses — typically
:meth:`PromiseEndpoint.handle <repro.protocol.endpoint.PromiseEndpoint.handle>`)
are served over length-prefixed SOAP frames on a TCP socket.

Three properties carry §6's semantics onto the wire:

* **Duplicate suppression** — every reply is cached by request message
  id (:class:`~repro.protocol.correlation.ReplyCache`), and a request
  whose id is already *in flight* awaits the original execution instead
  of racing it.  A client that retries after a lost reply therefore
  gets the original reply byte-for-byte and the handler runs at most
  once, no matter how the redelivery interleaves with the original.
  The cache is all the server keeps: the one *durable* reply is the row
  the promise manager journals inside the effect's own transaction, and
  a duplicate that misses the cache (restart, promotion) re-enters the
  handler, hits that row and renders the same envelope again.
* **Fault containment** — unknown endpoints and handler crashes turn
  into ``transport:``-prefixed faults in an otherwise well-formed reply
  envelope, so one bad request never takes a connection (or the
  server) down.
* **Closed gate, no reply** — a request runs *execute → ack gate →
  durability barrier*: everything the handler logged is one ship unit
  (:attr:`PromiseServer.request_scope`) that the gate puts on a follower
  before anything is released.  **No reply — fresh or cached — leaves a
  primary whose gate is closed**: :attr:`PromiseServer.gate` is asked
  before the dedup lookups, so a deposed primary's stale cache is never
  served.

Dispatch has one path: each frame gets its own task, and each request
is submitted to a :class:`~repro.net.executor.KeyedExecutor` with the
resource keys it touches.  ``workers`` only sizes that executor.  With
``workers=0`` (the default) it is inline: the handler runs on the event
loop before ``submit`` returns, so requests execute one at a time in
arrival order, mirroring the paper's single promise manager ordering
all checks.  With ``workers>0`` requests touching disjoint resource
keys execute concurrently on worker threads (transactions serialised
by the store's mutex, durability waits overlapped outside it so
concurrent commits share one barrier), while requests sharing a key —
or whose footprint the key function cannot determine — keep strict
FIFO order.  Dedup, in-flight coalescing and admission control stay on
the event loop either way.

:class:`ThreadedServer` runs the event loop on a daemon thread so
blocking clients, benchmarks and the CLI can host a server in-process.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import threading
import time

from dataclasses import replace as dc_replace
from typing import TYPE_CHECKING, Callable

from ..faults.crashpoints import SimulatedCrash
from ..obs.metrics import MetricsRegistry
from ..obs.trace import ActiveSpan, SpanRecorder
from ..protocol.correlation import ReplyCache
from ..protocol.messages import ActionOutcomePayload, Message
from ..protocol.soap import SoapCodec
from ..protocol.transport import DEFAULT_DEDUP_CAPACITY, Handler
from ..recovery import ReplyJournal
from ..resilience.admission import AdmissionController, classify
from .executor import KeyedExecutor
from .framing import (
    DEFAULT_MAX_FRAME_SIZE,
    FrameError,
    encode_frame,
    read_frame_async,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..storage.store import Store

#: Per-endpoint key function for parallel dispatch: maps a decoded
#: request to the set of resource keys it touches, or ``None`` when the
#: footprint cannot be determined (which degrades that request to a
#: global ordering barrier — correct, never racy).
KeyFunction = Callable[[Message], "frozenset[str] | set[str] | None"]

#: Faults generated by the transport layer itself (as opposed to the
#: endpoint's application-level faults) carry this prefix, so clients
#: can map them back onto the protocol's exception types.
TRANSPORT_FAULT_PREFIX = "transport:"

#: Legacy, read-only: the table older builds journalled whole reply
#: envelopes in, by message id, in a transaction after the handler's.
#: Nothing writes it any more; a log that holds one has its rows read
#: into the dedup cache (:meth:`PromiseServer.attach_journal`).
NET_REPLY_JOURNAL_TABLE = "net_reply_journal"

#: Reserved recipient name for failure-detector liveness probes.  Pings
#: bypass the reply cache and admission control: they are pure liveness
#: signals, and one cache entry per heartbeat would drown real replies.
PING_ENDPOINT = "_ping"

#: Reserved recipient returning this server's metrics-registry snapshot.
#: Like pings, scrapes bypass dedup and admission control:
#: an operator must be able to see *into* an overloaded server, and a
#: scrape reply is worthless a second time (no §6 state to redeliver).
METRICS_ENDPOINT = "_metrics"

#: Reserved recipient returning this server's recorded spans (optionally
#: filtered by trace id).  Same bypass rules as ``_metrics``.
SPANS_ENDPOINT = "_spans"


class PromiseServer:
    """Host registered handlers on an asyncio TCP listener."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        codec: SoapCodec | None = None,
        max_frame_size: int = DEFAULT_MAX_FRAME_SIZE,
        dedup_capacity: int = DEFAULT_DEDUP_CAPACITY,
        dedup_max_bytes: int | None = None,
        reply_journal: ReplyJournal | None = None,
        admission: AdmissionController | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: SpanRecorder | None = None,
        workers: int = 0,
    ) -> None:
        self._host = host
        self._port = port
        self._codec = codec or SoapCodec()
        self._max_frame_size = max_frame_size
        #: Worker-thread count of the dispatch executor; 0 runs every
        #: handler inline on the event loop.
        self._workers = workers
        self._executor: KeyedExecutor | None = None
        #: Metrics registry every ``server.*`` counter lives in; shared
        #: with the admission controller / WAL when a fleet wires one.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.attach_admission(admission)
        #: Span sink for traced requests.  Always present (bounded ring,
        #: costs nothing for untraced traffic) so the ``_spans``
        #: endpoint can serve scrapes on any server.
        self.tracer = tracer if tracer is not None else SpanRecorder()
        self._handlers: dict[str, Handler] = {}
        self._key_fns: dict[str, KeyFunction] = {}
        #: Serialises handler transactions across worker threads.  The
        #: store's in-memory structures are not thread-safe, so parallel
        #: dispatch holds this while executing and overlaps only the
        #: durability wait outside it.  :meth:`attach_store` replaces it
        #: with the store's own mutex so other store users (gateways,
        #: recovery sweeps) share the same exclusion.
        self.txn_mutex: threading.RLock = threading.RLock()
        #: Durability barrier invoked after the ack gate and before a
        #: reply is released — ``store.wait_durable`` once
        #: :meth:`attach_store` ran.
        self.durability: Callable[[], None] | None = None
        self._replies: ReplyCache[bytes] = ReplyCache(
            dedup_capacity, max_bytes=dedup_max_bytes
        )
        if reply_journal is not None:
            self.attach_journal(reply_journal)
        self._inflight: dict[str, asyncio.Future[bytes]] = {}
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        # itertools.count: a single opcode per draw, so worker threads
        # and the event loop can mint fault/scrape ids without a lock.
        self._reply_ids = itertools.count(1)
        #: Replica-group fencing token.  ``None`` (standalone servers)
        #: disables epoch checks entirely; a replicated fleet sets it and
        #: bumps it on promotion.  A request stamped with a *newer* epoch
        #: than ours proves this node has been deposed — routing moved on
        #: without it — and must not execute anything.
        self.epoch: int | None = None
        #: Replication write gate.  When set, it is consulted before a
        #: request is answered in any way — from the dedup cache as much
        #: as by executing it — and again once it has executed;
        #: a non-``None`` reason (``"fenced by
        #: epoch 3"``, ``"no follower caught up"``) turns the reply into
        #: a retryable transport fault instead of an ack, so a primary
        #: that cannot replicate stops acknowledging writes clients
        #: would lose on failover.
        self.gate: Callable[[], str | None] | None = None
        #: What a request's handler runs inside: the store log's
        #: request scope once :meth:`attach_store` ran, so the request's
        #: commits wait for :attr:`durability` (one barrier) and a
        #: replication sender leaves them to the one ship :attr:`gate`
        #: makes.
        self.request_scope: Callable[
            [], contextlib.AbstractContextManager[None]
        ] = contextlib.nullcontext
        #: Extra liveness payload merged into ping replies (applied LSN,
        #: role) so the failure detector can pick promotion candidates.
        self.ping_info: Callable[[], dict[str, object]] | None = None

    # ------------------------------------------------------------- wiring

    def attach_journal(self, journal: ReplyJournal) -> None:
        """Read a legacy envelope journal into the dedup cache.

        A log written by a build that journalled envelopes holds replies
        whose ids were drawn from a counter; serving those from the
        cache keeps a pre-upgrade message id answered with its original
        bytes.  Read-only: nothing is ever recorded through ``journal``.
        """
        for message_id, payload in journal.entries_alone():
            if isinstance(payload, str):
                self._replies.put(message_id, payload.encode("utf-8"))

    def attach_admission(self, admission: "AdmissionController | None") -> None:
        """Install (or remove) the overload-shedding controller.

        A follower server starts without one, and gets the real
        controller only when a promotion turns it into a primary serving
        client requests.  The controller then counts into this server's
        registry, so its ``admission.*`` counters show in the one
        ``_metrics`` scrape whichever registry it was built with.
        """
        self._admission = admission
        if admission is not None:
            admission.metrics = self.metrics

    def attach_store(self, store: "Store") -> None:
        """Adopt a store's transaction mutex, request scope and barrier.

        Handler transactions serialise on ``store.mutex``; they run in
        the store log's request scope, so their commits are hardened
        by the one ``store.wait_durable`` each request ends with,
        outside the mutex — concurrent requests' commits share it.
        """
        self.txn_mutex = store.mutex
        self.request_scope = store.wal.request_scope
        self.durability = store.wait_durable

    def register(
        self,
        endpoint: str,
        handler: Handler,
        keys: KeyFunction | None = None,
    ) -> None:
        """Expose ``handler`` under the endpoint name ``endpoint``.

        ``keys`` (optional) maps each decoded request to the resource
        keys it touches, enabling disjoint-key concurrency when the
        server has workers; endpoints without one are dispatched as
        global barriers (serial order preserved).
        """
        self._handlers[endpoint] = handler
        if keys is not None:
            self._key_fns[endpoint] = keys
        else:
            self._key_fns.pop(endpoint, None)

    @property
    def workers(self) -> int:
        """Configured dispatch worker count (0 = inline on the loop)."""
        return self._workers

    def _keys_for(self, message: Message) -> frozenset[str] | None:
        """Resource keys for ``message``, or ``None`` (global barrier)."""
        key_fn = self._key_fns.get(message.recipient)
        if key_fn is None:
            return None
        try:
            keys = key_fn(message)
        except Exception:  # noqa: BLE001 - never let keying break dispatch
            return None
        if keys is None:
            return None
        return frozenset(keys)

    def endpoints(self) -> list[str]:
        """Names of all registered endpoints."""
        return sorted(self._handlers)

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; only valid after :meth:`start`."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    # ---------------------------------------------------------- lifecycle

    async def start(self) -> tuple[str, int]:
        """Bind the listener and return the bound address."""
        if self._server is not None:
            raise RuntimeError("server already started")
        if self._executor is None:
            self._executor = KeyedExecutor(
                self._workers, metrics=self.metrics, name="dispatch"
            )
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._port
        )
        return self.address

    async def serve_forever(self) -> None:
        """Run until cancelled (the usual body of a server process)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, then drain connections."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        for task in list(self._connections):
            task.cancel()
        await asyncio.gather(*self._connections, return_exceptions=True)
        self._server = None
        if self._executor is not None:
            # Waits, on the loop, for jobs still on a worker: none of
            # them needs the loop (`_process` never touches it).
            self._executor.close()
            self._executor = None

    # --------------------------------------------------------- connections

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.inc("server.connections")
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        try:
            await self._read_loop(reader, writer)
        except asyncio.CancelledError:
            pass
        except FrameError:
            self.metrics.inc("server.malformed")
        except ConnectionError:
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """The connection's read loop: one task per frame.

        The loop never awaits a dispatch, so a pipelining client gets
        all its outstanding requests into the keyed executor at once
        (the inline one runs them in arrival order, as tasks start in
        creation order); replies go back in completion order and are
        correlated by message id on the client side.  Outstanding tasks
        are awaited on clean EOF (the client deserves every reply it
        paid for) and cancelled when the connection task itself is
        cancelled.
        """
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                payload = await read_frame_async(reader, self._max_frame_size)
                if payload is None:
                    break
                self.metrics.inc("server.bytes_in", len(payload))
                self.metrics.inc("server.requests")
                task = asyncio.create_task(self._serve_one(payload, writer))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except asyncio.CancelledError:
            for task in list(tasks):
                task.cancel()
            raise
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)

    async def _serve_one(
        self, payload: bytes, writer: asyncio.StreamWriter
    ) -> None:
        """Dispatch one frame and write its reply frame."""
        try:
            reply = await self._dispatch(payload)
        except SimulatedCrash:
            # The simulated process death: stop replying on this
            # connection.
            writer.close()
            return
        except Exception:  # noqa: BLE001 - never kill the read loop
            self.metrics.inc("server.transport_faults")
            writer.close()
            return
        if reply is None:
            writer.close()  # undecodable request: drop the connection
            return
        frame = encode_frame(reply, self._max_frame_size)
        self.metrics.inc("server.bytes_out", len(reply))
        self.metrics.inc("server.replies")
        try:
            writer.write(frame)
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # client went away; nothing left to tell it

    # ----------------------------------------------------------- dispatch

    async def _dispatch(self, payload: bytes) -> bytes | None:
        """Decode, dedup, execute, encode — §8's receive path."""
        try:
            message = self._codec.decode(payload.decode("utf-8"))
        except Exception:  # noqa: BLE001 - undecodable bytes of any kind
            # An envelope we cannot parse carries no message id to
            # correlate a fault reply with; closing the connection is
            # the only honest signal.
            self.metrics.inc("server.malformed")
            return None

        # Liveness probes and observability scrapes short-circuit the
        # whole pipeline: no dedup, no admission — they
        # must keep answering precisely when the pipeline is in trouble.
        if message.recipient == PING_ENDPOINT:
            return self._pong(message)
        if message.recipient == METRICS_ENDPOINT:
            return self._metrics_reply(message)
        if message.recipient == SPANS_ENDPOINT:
            return self._spans_reply(message)

        started = time.perf_counter()
        try:
            if message.trace is None:
                return await self._dispatch_message(message, None)
            with self.tracer.span(
                "server.dispatch",
                parent=message.trace,
                endpoint=message.recipient,
                message_id=message.message_id,
                kind=classify(message),
                deadline_remaining=message.deadline,
                epoch=self.epoch,
            ) as span:
                return await self._dispatch_message(message, span)
        finally:
            self.metrics.observe(
                "server.dispatch_seconds", time.perf_counter() - started
            )

    async def _dispatch_message(
        self, message: Message, span: ActiveSpan | None
    ) -> bytes:
        """The §8 receive pipeline for one decoded request.

        ``span`` (when the request carried a trace context) records the
        branch taken — duplicate, fenced, shed, executed — so the trace
        history alone can replay the server's decisions.
        """
        message_id = message.message_id

        # A request whose end-to-end budget is already spent gets the
        # cheapest possible treatment: nobody is waiting for the answer,
        # so doing the isolation check would be pure waste.  Not cached:
        # these replies carry no §6 state worth redelivering.
        if message.deadline is not None and message.deadline <= 0:
            self.metrics.inc("server.deadline_rejected")
            if span is not None:
                span.set_outcome("deadline-rejected")
            return self._encode_fault(
                message, f"{TRANSPORT_FAULT_PREFIX}deadline-expired: "
                "request budget spent before dispatch"
            )

        # No reply of any kind leaves a primary whose gate is closed:
        # asked before the dedup lookups, because a cached reply is
        # state too — this node may be a deposed primary whose cache
        # went stale.
        if self.gate is not None:
            reason = self.gate()
            if reason is not None:
                self.metrics.inc("server.fenced")
                if span is not None:
                    span.set_outcome("fenced")
                    span.annotate(gate_reason=reason)
                return self._encode_fault(
                    message, f"{TRANSPORT_FAULT_PREFIX}fenced: {reason}"
                )

        # A duplicate of a request still executing must wait for that
        # execution, not start a second one.
        pending = self._inflight.get(message_id)
        if pending is not None:
            self.metrics.inc("server.duplicates_served")
            if span is not None:
                span.set_outcome("duplicate")
            return await pending

        cached = self._replies.get(message_id)
        if cached is not None:
            self.metrics.inc("server.duplicates_served")
            if span is not None:
                span.set_outcome("duplicate")
            return cached

        # Epoch fencing runs after dedup but before any new execution:
        # with the gate open, a cached reply is on a follower and safe
        # to repeat whatever the request is stamped with.  A request
        # stamped with a newer epoch than ours means a promotion
        # happened that this node has not seen: it is the deposed
        # primary, and a write here would be the split-brain the epoch
        # exists to prevent.  Older stamps are accepted — the *current*
        # primary is authoritative and a client retrying pre-failover
        # bytes must keep hitting the dedup path above.
        if (
            self.epoch is not None
            and message.epoch is not None
            and message.epoch > self.epoch
        ):
            self.metrics.inc("server.fenced")
            if span is not None:
                span.set_outcome("fenced")
            return self._encode_fault(
                message,
                f"{TRANSPORT_FAULT_PREFIX}fenced: request epoch "
                f"{message.epoch} > server epoch {self.epoch}",
            )

        # Admission control runs *after* dedup: a duplicate is served
        # from cache for free.  One that misses the cache (restart,
        # promotion) is admitted like any request: shedding it is
        # retryable and still at-most-once, the manager's journal row
        # answers whenever it gets in.  Shed replies are not cached —
        # the whole point of the 503 is that the same message id is
        # welcome to try again later.
        if self._admission is not None:
            kind = classify(message)
            if not self._admission.admit(kind):
                self.metrics.inc("server.shed")
                if span is not None:
                    span.set_outcome("shed")
                return self._encode_fault(
                    message,
                    f"{TRANSPORT_FAULT_PREFIX}overloaded: {kind} shed",
                )

        loop = asyncio.get_running_loop()
        future: asyncio.Future[bytes] = loop.create_future()
        self._inflight[message_id] = future
        self.metrics.gauge("server.inflight").add(1)
        try:
            # The execute → ack-gate → durability pipeline, ordered by
            # the request's resource keys: inline with no workers, else
            # on a worker thread.  All the `_inflight` / cache
            # bookkeeping stays here on the event loop.
            job = self._executor.submit(
                self._keys_for(message), lambda: self._process(message, span)
            )
            if not job.done():  # an inline job costs no trip round the loop
                await asyncio.wrap_future(job)
            reply_bytes, releasable = job.result()
            if releasable:
                # Pinned until the finally below: byte-bound eviction
                # must never drop a reply whose request is still in
                # flight (duplicate waiters may yet be directed at it).
                self._replies.put(message_id, reply_bytes, pinned=True)
            future.set_result(reply_bytes)
            return reply_bytes
        except BaseException:
            # `_process` raised (an fsync error, a gate error, a simulated
            # crash) and this connection drops.  A duplicate awaiting the
            # execution is told to retry: nothing cached, never an empty
            # frame.
            future.set_result(
                self._encode_fault(
                    message,
                    f"{TRANSPORT_FAULT_PREFIX}aborted: the original "
                    "delivery of this request failed",
                )
            )
            raise
        finally:
            del self._inflight[message_id]
            self._replies.unpin(message_id)
            self.metrics.gauge("server.inflight").add(-1)

    def _process(
        self, message: Message, span: ActiveSpan | None
    ) -> tuple[bytes, bool]:
        """*Execute → ack gate → durability* for one request (any thread).

        The handler's own transactions are all that is logged: the reply
        is durable iff its effect committed, in the same COMMIT, and the
        envelope is rendered from it.  Returns
        ``(reply_bytes, releasable)``; ``releasable=False``
        marks a withheld ack (retryable fault, never cached).  Only the
        handler holds :attr:`txn_mutex`; the ack gate's ship and the
        durability barrier run *outside* it, with any number of workers
        — under parallel dispatch concurrent requests then share one
        ship and one write + fsync.
        """
        with self.request_scope():
            if self._admission is not None:
                with self._admission.slot():
                    with self.txn_mutex:
                        reply_bytes = self._execute(message, span)
            else:
                with self.txn_mutex:
                    reply_bytes = self._execute(message, span)
            if span is not None:
                span.annotate(executed=True)
        # Only now is it known whether a follower holds what the request
        # logged: the gate ships it.  If none does, the local commit may
        # be on the losing side of a failover — withhold the ack
        # (retryable fault, not cached) so no client observes state the
        # replica group cannot promise to keep.
        if self.gate is not None:
            reason = self._ack_gate(span)
            if reason is not None:
                self.metrics.inc("server.fenced")
                if span is not None:
                    span.set_outcome("fenced")
                    span.annotate(gate_reason=reason)
                fault = self._encode_fault(
                    message, f"{TRANSPORT_FAULT_PREFIX}fenced: {reason}"
                )
                return fault, False
        if self.durability is not None:
            # Ack barrier: the reply leaves only once every WAL record
            # it depends on is hardened.
            self.durability()
        return reply_bytes, True

    def _ack_gate(self, span: ActiveSpan | None) -> str | None:
        """Consult the replication write gate, recorded as its own span.

        The gate is the replication ack decision: a ``None`` verdict
        means at least one caught-up follower holds the committing LSN
        and the reply may be released.  Traced requests get a
        ``server.ack_gate`` span either way, so the trace tree shows
        where an ack was granted or withheld.
        """
        assert self.gate is not None
        if span is None:
            return self.gate()
        with self.tracer.span(
            "server.ack_gate", parent=span.context, epoch=self.epoch
        ) as gate_span:
            reason = self.gate()
            if reason is not None:
                gate_span.set_outcome("withheld")
                gate_span.annotate(reason=reason)
            return reason

    def _execute(
        self, message: Message, span: ActiveSpan | None = None
    ) -> bytes:
        """Run the handler (or synthesise a transport fault reply)."""
        handler = self._handlers.get(message.recipient)
        if handler is None:
            self.metrics.inc("server.transport_faults")
            reply = self._fault_reply(
                message, f"{TRANSPORT_FAULT_PREFIX}unknown-endpoint: "
                f"{message.recipient}"
            )
        else:
            try:
                if span is None:
                    reply = handler(message)
                else:
                    with self.tracer.span(
                        "server.txn",
                        parent=span.context,
                        endpoint=message.recipient,
                    ) as txn_span:
                        reply = handler(message)
                        if reply.faults:
                            txn_span.set_outcome("fault")
            except SimulatedCrash:
                # Fault injection models the process dying; a fault
                # reply would defeat the crash-matrix tests.  (The txn
                # span was already recorded with a ``crash`` outcome
                # and the crash-point name before the unwind.)
                raise
            except Exception as exc:  # noqa: BLE001 - server boundary
                self.metrics.inc("server.transport_faults")
                reply = self._fault_reply(
                    message,
                    f"{TRANSPORT_FAULT_PREFIX}handler-error: "
                    f"{type(exc).__name__}: {exc}",
                )
        return self._codec.encode(self._stamp(reply)).encode("utf-8")

    def _metrics_reply(self, message: Message) -> bytes:
        """Serve a metrics scrape: the full registry snapshot."""
        self.metrics.inc("server.scrapes")
        reply = message.reply(
            message_id=f"net-server:metrics-{next(self._reply_ids)}",
            action_outcome=ActionOutcomePayload(
                success=True, value=self.metrics.snapshot()
            ),
        )
        return self._codec.encode(self._stamp(reply)).encode("utf-8")

    def _spans_reply(self, message: Message) -> bytes:
        """Serve a span scrape, optionally filtered by trace id.

        The scraper passes the filter as an action parameter
        (``{"trace_id": ...}``); without one, every recorded span in
        the ring comes back.
        """
        self.metrics.inc("server.scrapes")
        trace_id: str | None = None
        if message.action is not None:
            value = message.action.params.get("trace_id")
            if isinstance(value, str) and value:
                trace_id = value
        reply = message.reply(
            message_id=f"net-server:spans-{next(self._reply_ids)}",
            action_outcome=ActionOutcomePayload(
                success=True,
                value=[span.to_dict() for span in self.tracer.spans(trace_id)],
            ),
        )
        return self._codec.encode(self._stamp(reply)).encode("utf-8")

    def _pong(self, message: Message) -> bytes:
        """Answer a liveness probe with this node's epoch and vitals."""
        self.metrics.inc("server.pings")
        info: dict[str, object] = {}
        if self.ping_info is not None:
            info = dict(self.ping_info())
        reply = message.reply(
            message_id=f"net-server:pong-{next(self._reply_ids)}",
            action_outcome=ActionOutcomePayload(success=True, value=info),
        )
        return self._codec.encode(self._stamp(reply)).encode("utf-8")

    def _stamp(self, reply: Message) -> Message:
        """Stamp fresh replies with our epoch (cached bytes stay as-is)."""
        if self.epoch is None or reply.epoch is not None:
            return reply
        return dc_replace(reply, epoch=self.epoch)

    def _fault_reply(self, message: Message, fault: str) -> Message:
        return message.reply(
            message_id=f"net-server:fault-{next(self._reply_ids)}",
            faults=(fault,),
        )

    def _encode_fault(self, message: Message, fault: str) -> bytes:
        return self._codec.encode(
            self._stamp(self._fault_reply(message, fault))
        ).encode("utf-8")


class ThreadedServer:
    """Run a :class:`PromiseServer` on a background event-loop thread.

    Lets blocking code (the CLI, benchmarks, tests) host a server
    in-process::

        server = PromiseServer()
        server.register("shop", endpoint.handle)
        with ThreadedServer(server) as (host, port):
            transport = NetworkTransport((host, port))
            ...

    With ``workers=0`` handlers execute on the event-loop thread; either
    way the §6 reply cache and the in-flight table, both kept on the
    loop, keep execution at-most-once.
    """

    def __init__(self, server: PromiseServer) -> None:
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        #: Listeners :meth:`serve_frames` bound, and their connections.
        self._listeners: list[asyncio.AbstractServer] = []
        self._frame_tasks: set[asyncio.Task] = set()

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._thread is not None

    def start(self) -> tuple[str, int]:
        """Start the loop thread and bind the server; returns address."""
        if self._thread is not None:
            raise RuntimeError("server thread already running")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="promise-server", daemon=True
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(
            self.server.start(), self._loop
        )
        return future.result(timeout=10)

    def serve_frames(self, handler: Callable[[bytes], bytes]) -> tuple[str, int]:
        """Answer frames with ``handler`` on a second listener on this loop.

        Each frame a connection sends is answered by the frame
        ``handler`` returns, in order, on the loop thread: no codec, no
        dedup, no worker and no thread of its own.  A handler that
        raises drops the connection (``server.transport_faults``).  The
        listener binds the server's host on an ephemeral port (returned)
        and closes with :meth:`stop`.
        """
        assert self._loop is not None, "start the server first"

        async def serve(reader, writer) -> None:
            task = asyncio.current_task()
            assert task is not None
            self._frame_tasks.add(task)
            try:
                while (frame := await read_frame_async(reader)) is not None:
                    try:
                        answer = handler(frame)
                    except Exception:  # noqa: BLE001 - a simulated crash too:
                        # it ends this connection, never the loop.
                        self.server.metrics.inc("server.transport_faults")
                        return
                    writer.write(encode_frame(answer))
                    await writer.drain()
            except (ConnectionError, FrameError):
                pass  # the peer went away, or sent bytes that are no frame
            except asyncio.CancelledError:
                # :meth:`stop` ends the connection: return normally, as a
                # cancelled connection task makes Python 3.11's stream
                # callback log ``CancelledError`` as an error.
                pass
            finally:
                self._frame_tasks.discard(task)
                writer.close()

        async def bind() -> tuple[str, int]:
            listener = await asyncio.start_server(
                serve, self.server.address[0], 0
            )
            self._listeners.append(listener)
            return listener.sockets[0].getsockname()[:2]

        return asyncio.run_coroutine_threadsafe(bind(), self._loop).result(
            timeout=10
        )

    async def _close_listeners(self) -> None:
        for listener in self._listeners:
            listener.close()
        for task in list(self._frame_tasks):
            task.cancel()
        await asyncio.gather(*self._frame_tasks, return_exceptions=True)
        self._listeners = []

    def stop(self) -> None:
        """Stop the server and tear the loop thread down."""
        if self._loop is None or self._thread is None:
            return
        asyncio.run_coroutine_threadsafe(
            self._close_listeners(), self._loop
        ).result(timeout=10)
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop
        ).result(timeout=10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()
        self._loop = None
        self._thread = None

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
