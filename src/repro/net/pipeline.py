"""The wire client: one connection, id-correlated replies, one request path.

Callers hand it encoded envelope bytes and get encoded reply bytes
back.  Requests are framed and written as they arrive, a reader thread
drains reply frames as the server produces them, and each reply is
matched to its request by message id — every reply's ``<routing>``
element carries ``correlation="<request message-id>"`` (§6's request
identifier), so a cheap scan of the bytes suffices, and replies may
arrive in *any* order, which is what the server's parallel dispatch
produces.  A caller that waits for each reply before sending the next is
running the same pipeline at a window of one; there is no second,
blocking client.

The invariant §6's redelivery rests on is stated here and nowhere else:
**a message id is on this client's wire at most once at a time, and a
retry re-sends the same bytes.**  ``submit`` refuses an id that is still
pending; an attempt that times out or dies *forgets* its pending entry
before the retry re-submits the identical payload, so the server's reply
cache — not the client — decides whether the handler runs again.  A
reply that arrives for a forgotten id is counted
(``pipeline.orphan_replies``) and dropped.

Connection errors and truncated frames are mapped onto
:class:`~repro.protocol.errors.TransportFailure`, keeping the exception
vocabulary identical to the in-process transport.
"""

from __future__ import annotations

import itertools
import re
import socket
import struct
import threading
import time
from concurrent.futures import Future

from ..obs.metrics import MetricsRegistry
from ..protocol.errors import RequestTimeout, TransportFailure
from ..protocol.retry import RetryPolicy
from ..resilience.breaker import CircuitBreaker
from ..resilience.deadline import remaining_budget
from .framing import DEFAULT_MAX_FRAME_SIZE, encode_frame, read_frame

#: The routing element is the first thing in every envelope's header;
#: these scan it without paying for a full XML decode.
_ROUTING = re.compile(rb"<routing\s[^>]*>")
_MESSAGE_ID = re.compile(rb'message-id="([^"]*)"')
_CORRELATION = re.compile(rb'correlation="([^"]*)"')


def extract_message_id(payload: bytes) -> str | None:
    """The ``message-id`` of an encoded envelope, or ``None``."""
    return _extract(payload, _MESSAGE_ID)


def extract_correlation(payload: bytes) -> str | None:
    """The ``correlation`` of an encoded reply envelope, or ``None``."""
    return _extract(payload, _CORRELATION)


def _extract(payload: bytes, attribute: re.Pattern[bytes]) -> str | None:
    routing = _ROUTING.search(payload)
    if routing is None:
        return None
    found = attribute.search(routing.group(0))
    if found is None or not found.group(1):
        return None
    return found.group(1).decode("utf-8", errors="replace")


class PipelinedClient:
    """Framed request/reply over one TCP connection, many in flight.

    ``request`` is the one request path — ``retry`` policy (default:
    never), overall deadline, ``breaker``, then ``submit`` and wait.
    ``submit`` (a Future per reply, ``wait`` for it) and ``request_many``
    are the raw windowed layer beneath it and never retry.  ``max_outstanding``
    bounds the depth: a full window makes ``submit`` block, which is
    this client's flow control.
    """

    def __init__(
        self,
        address: tuple[str, int],
        timeout: float = 5.0,
        max_frame_size: int = DEFAULT_MAX_FRAME_SIZE,
        max_outstanding: int = 128,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_outstanding < 1:
            raise ValueError("max_outstanding must be at least 1")
        self.address = address
        self.timeout = timeout
        self.max_frame_size = max_frame_size
        self.retry = retry or RetryPolicy.none()
        self.breaker = breaker
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._pending: dict[str, Future[bytes]] = {}
        self._window = threading.BoundedSemaphore(max_outstanding)
        self._closed = False
        self._sock: socket.socket | None = None
        self._reader: threading.Thread | None = None

    # ------------------------------------------------------------- requests

    def request(
        self,
        payload: bytes,
        timeout: float | None = None,
        deadline: object | None = None,
    ) -> bytes:
        """Round-trip ``payload`` and return the reply bytes.

        Retries per the policy on transport failures and timeouts, with
        the identical ``payload`` (hence message id) on every attempt.
        ``timeout`` bounds one attempt; ``deadline`` (``None``, a
        :class:`~repro.resilience.Deadline`, or an absolute monotonic
        timestamp) bounds the whole retry loop — attempt budgets are
        clamped to what remains of it, and backoff sleeps never
        overshoot it.  A configured circuit breaker is consulted before
        every attempt and told its outcome, so a dead server flips it
        open and later requests fail fast with
        :class:`~repro.resilience.CircuitOpen` (not retried).
        """
        if self._closed:
            raise TransportFailure("client is closed")
        self.metrics.inc("client.requests")
        budget = self.timeout if timeout is None else timeout
        attempts = itertools.count()

        def attempt() -> bytes:
            # Counted per request: the policy object (and its own tally)
            # may be shared by every thread and every leg of a gateway.
            if next(attempts):
                self.metrics.inc("client.retries")
            return self._attempt(payload, budget, deadline)

        try:
            return self.retry.run(attempt, deadline=deadline)
        except TransportFailure:
            self.metrics.inc("client.failures")
            raise

    def submit(
        self, payload: bytes, timeout: float | None = None
    ) -> "Future[bytes]":
        """Ship ``payload`` now; the Future resolves with its reply.

        Blocks only when ``max_outstanding`` requests are already in
        flight (at most ``timeout`` seconds, which also bounds the
        connect).  The Future fails with :class:`TransportFailure` if
        the connection dies before the reply arrives.  Whichever way
        this call or the Future ends, the window slot comes back.
        """
        budget = self.timeout if timeout is None else timeout
        message_id = extract_message_id(payload)
        if message_id is None:
            raise TransportFailure("payload carries no message-id to correlate")
        frame = encode_frame(payload, self.max_frame_size)
        if not self._window.acquire(timeout=budget):
            self.metrics.inc("pipeline.window_stalls")
            raise RequestTimeout(
                f"pipeline window full ({len(self._pending)} outstanding)"
            )
        future: Future[bytes] = Future()
        future.add_done_callback(lambda _: self._window.release())
        try:
            with self._lock:
                if self._closed:
                    raise TransportFailure("client is closed")
                if message_id in self._pending:
                    raise TransportFailure(
                        f"message id {message_id!r} already in flight"
                    )
                sock = self._ensure_connected(budget)
                self._pending[message_id] = future
                try:
                    sock.sendall(frame)
                except OSError as exc:
                    error = TransportFailure(f"send failed: {exc}")
                    self._drop_locked(sock, error)
                    raise error from exc
        except BaseException:
            future.cancel()  # never sent, or already failed: free the slot
            raise
        self.metrics.inc("pipeline.submitted")
        self.metrics.inc("client.bytes_sent", len(payload))
        return future

    def request_many(
        self, payloads: list[bytes], timeout: float | None = None
    ) -> list[bytes]:
        """Ship every payload before waiting on any reply.

        Replies come back in *request* order regardless of the order the
        server finished them in — the whole point of correlation.
        """
        budget = self.timeout if timeout is None else timeout
        futures = [self.submit(payload, budget) for payload in payloads]
        return [self.wait(future, budget) for future in futures]

    def send_and_abandon(self, payload: bytes) -> None:
        """Deliver ``payload`` on a throw-away connection, never read.

        The socket-layer reimplementation of the in-process transport's
        *reply drop*: the server receives and executes the request, but
        the reply has nowhere to go.  Used by the deterministic fault
        plans; a subsequent :meth:`request` with the same payload then
        exercises the redelivery path.
        """
        frame = encode_frame(payload, self.max_frame_size)
        sock = self._connect(self.timeout)
        try:
            sock.sendall(frame)
            self.metrics.inc("client.bytes_sent", len(payload))
        finally:
            sock.close()

    @property
    def outstanding(self) -> int:
        """Requests currently awaiting replies."""
        with self._lock:
            return len(self._pending)

    def close(self) -> None:
        """Tear the connection down; unresolved futures fail."""
        with self._lock:
            self._closed = True
            if self._sock is not None:
                self._drop_locked(
                    self._sock,
                    TransportFailure("client closed with request in flight"),
                )
        reader = self._reader
        if reader is not None and reader is not threading.current_thread():
            reader.join(timeout=5)

    def __enter__(self) -> "PipelinedClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------ internals

    def _attempt(
        self, payload: bytes, budget: float, deadline: object | None
    ) -> bytes:
        remaining = remaining_budget(deadline)
        if remaining is not None:
            if remaining <= 0:
                self.metrics.inc("client.timeouts")
                raise RequestTimeout("request deadline elapsed before attempt")
            budget = min(budget, remaining)
        if self.breaker is not None:
            self.breaker.guard()
        started = time.monotonic()
        try:
            future = self.submit(payload, budget)
            # Window wait and connect spent part of this attempt's budget.
            reply = self.wait(future, budget - (time.monotonic() - started))
        except TransportFailure:
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        if self.breaker is not None:
            self.breaker.record_success()
        return reply

    def wait(
        self, future: "Future[bytes]", timeout: float | None = None
    ) -> bytes:
        """The other half of :meth:`submit`: the reply, within ``timeout``
        seconds, or :class:`RequestTimeout` with the id forgotten."""
        budget = self.timeout if timeout is None else timeout
        try:
            return future.result(timeout=budget)
        except TimeoutError:
            pass
        # Forget the id so a retry may put the same bytes on the wire
        # again; the reply, if it ever comes, is an orphan.
        with self._lock:
            self._pending = {
                k: f for k, f in self._pending.items() if f is not future
            }
        if not future.cancel():
            return future.result()  # resolved in the gap after the timeout
        self.metrics.inc("client.timeouts")
        raise RequestTimeout(
            f"no reply from {self.address[0]}:{self.address[1]} "
            f"within {budget:.3f}s"
        )

    def _connect(self, timeout: float) -> socket.socket:
        try:
            sock = socket.create_connection(self.address, timeout=timeout)
        except socket.timeout as exc:
            self.metrics.inc("client.timeouts")
            raise RequestTimeout(
                f"connect to {self.address[0]}:{self.address[1]} timed out"
            ) from exc
        except OSError as exc:
            raise TransportFailure(f"cannot connect: {exc}") from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.metrics.inc("client.connections_opened")
        return sock

    def _ensure_connected(self, timeout: float) -> socket.socket:
        if self._sock is not None:
            return self._sock
        sock = self._connect(timeout)
        # The reader blocks in recv for as long as replies might take —
        # it is close(), not a socket timeout, that ends it — so writes
        # are bounded in the kernel instead: a peer that stops reading
        # fails the send rather than wedging every caller on the lock.
        sock.settimeout(None)
        micros = max(1, int(self.timeout * 1_000_000))
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDTIMEO,
            struct.pack("ll", *divmod(micros, 1_000_000)),
        )
        self._sock = sock
        self._reader = threading.Thread(
            target=self._read_replies, args=(sock,), daemon=True,
            name="pipeline-reader",
        )
        self._reader.start()
        return sock

    def _read_replies(self, sock: socket.socket) -> None:
        error = TransportFailure("server closed the connection")
        while True:
            try:
                reply = read_frame(sock.recv, self.max_frame_size)
            except Exception as exc:  # noqa: BLE001 - reader boundary
                reply, error = None, TransportFailure(f"connection failed: {exc}")
            if reply is None:  # EOF or a broken frame: this socket is done
                with self._lock:
                    self._drop_locked(sock, error)
                return
            self.metrics.inc("client.bytes_received", len(reply))
            correlation = extract_correlation(reply)
            future = None
            if correlation is not None:
                with self._lock:
                    future = self._pending.pop(correlation, None)
            if future is None:
                # A reply we never asked for (or one whose waiter gave
                # up): surfaced as a counter, never an exception — the
                # reader must outlive any single confused frame.
                self.metrics.inc("pipeline.orphan_replies")
                continue
            self.metrics.inc("pipeline.completed")
            if future.set_running_or_notify_cancel():
                future.set_result(reply)

    def _drop_locked(self, sock: socket.socket, error: TransportFailure) -> None:
        """Close ``sock``; if it is the live connection, fail what waits
        on it (lock already held).  A reader catching up on a connection
        already replaced must not touch its successor's requests."""
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        sock.close()
        if sock is not self._sock:
            return
        self._sock = None
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if future.set_running_or_notify_cancel():
                future.set_exception(error)
