"""Keyed executor: per-key FIFO, cross-key concurrency.

What the server dispatches every request through.  Work is submitted
with the set of *resource keys* it touches; the executor guarantees:

* **Same-key FIFO** — two jobs sharing any key run in submission order,
  never concurrently.  A client that pipelines ``grant(stock)`` then
  ``release(stock)`` observes them applied in that order.
* **Disjoint-key concurrency** — jobs whose key sets do not intersect
  may run on different worker threads at the same time, which is what
  lets their commit records share one WAL barrier (write + fsync).
* **Global barrier for unknown footprints** — a job submitted with
  ``keys=None`` (the dispatcher could not determine what it touches:
  an application action, a release of an unknown promise) is ordered
  after *every* job submitted before it and before every job submitted
  after it.  Unknown never races anything; correctness degrades to the
  serial order, not to luck.

With ``workers=0`` the executor is *inline*: :meth:`submit` runs the job
on the calling thread and returns a future already resolved.  For one
submitting thread — the server's event loop — every job finishes before
the next is submitted, so the three rules hold by construction and
nothing is ordered or counted.

With workers, the implementation chains
:class:`concurrent.futures.Future` tails per key.  Each submission
captures the tails of its keys (or of all live keys plus the barrier
tail, for ``None``), registers a countdown over them, and only enters
the thread pool when every predecessor resolved.
Predecessor results and exceptions are irrelevant to ordering — a failed
job releases its successors exactly like a finished one.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

from ..obs.metrics import MetricsRegistry

T = TypeVar("T")

#: Default worker count for a parallel server.  Python's GIL means the
#: win is overlap of *waits* (fsync batches, socket I/O), not raw CPU;
#: a small pool captures nearly all of it.
DEFAULT_WORKERS = 8


class KeyedExecutor:
    """Run callables with per-key FIFO ordering: on a pool, or inline."""

    def __init__(
        self,
        workers: int = DEFAULT_WORKERS,
        metrics: MetricsRegistry | None = None,
        name: str = "keyed-executor",
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        #: ``None`` makes the executor inline (``workers=0``).
        self._pool = (
            ThreadPoolExecutor(max_workers=workers, thread_name_prefix=name)
            if workers
            else None
        )
        self._lock = threading.Lock()
        #: key -> the Future of the last job submitted touching that key.
        self._tails: dict[str, Future] = {}
        #: The last global-barrier job (``keys=None``); every later
        #: submission orders itself after this.
        self._barrier: Future | None = None
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._closed = False

    # ---------------------------------------------------------------- API

    def submit(
        self, keys: Iterable[str] | None, fn: Callable[[], T]
    ) -> "Future[T]":
        """Schedule ``fn`` honouring the ordering contract for ``keys``.

        Returns a Future resolving with ``fn``'s result (or exception).
        ``keys=None`` declares an unknown footprint: a global barrier.
        Inline, ``fn`` has run by the time the Future is returned.
        """
        done: Future[T] = Future()
        if self._pool is None:
            if self._closed:
                raise RuntimeError("executor is closed")
            try:
                done.set_result(fn())
            except BaseException as exc:  # noqa: BLE001 - relayed to waiter
                done.set_exception(exc)
            return done
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            if keys is None:
                predecessors = [
                    tail for tail in self._tails.values() if not tail.done()
                ]
                if self._barrier is not None and not self._barrier.done():
                    predecessors.append(self._barrier)
                # Everything later — keyed or not — must follow us.
                self._barrier = done
                self._tails = {}
                self._metrics.inc("executor.barriers")
            else:
                key_set = set(keys)
                predecessors = [
                    tail
                    for key in key_set
                    if (tail := self._tails.get(key)) is not None
                    and not tail.done()
                ]
                if self._barrier is not None and not self._barrier.done():
                    predecessors.append(self._barrier)
                for key in key_set:
                    self._tails[key] = done
            self._metrics.inc("executor.submitted")
        self._metrics.gauge("executor.queued").add(1)

        def run() -> None:
            if done.cancelled():  # pragma: no cover - shutdown race
                return
            self._metrics.gauge("executor.queued").add(-1)
            self._metrics.gauge("executor.running").add(1)
            try:
                result = fn()
            except BaseException as exc:  # noqa: BLE001 - relayed to waiter
                done.set_exception(exc)
            else:
                done.set_result(result)
            finally:
                self._metrics.gauge("executor.running").add(-1)

        if not predecessors:
            self._pool.submit(run)
        else:
            remaining = len(predecessors)
            count_lock = threading.Lock()

            def on_predecessor(_: Future) -> None:
                nonlocal remaining
                with count_lock:
                    remaining -= 1
                    ready = remaining == 0
                if ready:
                    self._pool.submit(run)

            for predecessor in predecessors:
                predecessor.add_done_callback(on_predecessor)
        return done

    def drain(self, timeout: float = 30.0) -> None:
        """Block until every job submitted so far has finished."""
        with self._lock:
            waiting = list(self._tails.values())
            if self._barrier is not None:
                waiting.append(self._barrier)
        for future in waiting:
            try:
                future.result(timeout=timeout)
            except Exception:  # noqa: BLE001 - drain cares about completion
                pass

    def close(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) wait for the backlog."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if wait:
            self.drain()
        if self._pool is not None:
            self._pool.shutdown(wait=wait)

    def __enter__(self) -> "KeyedExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
