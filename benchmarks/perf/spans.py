"""Spans recorded by the benchmark around calls into the program's layers.

The program is not edited: the benchmark replaces a public method on an
object (or, for the codec and the transport, on the class) with a
wrapper that records ``name, layer, start, end, parent, pair``.  Spans
stay in memory until the run ends.

A span's parent is the innermost span open on the same thread.  A span
that starts on a thread with nothing open — a server handling a request
another thread is waiting for — is linked through the §6 message id:
the waiting span registers the id it sent, and the serving side looks
its parent up by the id it received.  Anything else that runs on that
serving thread before the reply (the reply journal's own transaction)
inherits the same parent.

A layer's *self time* is its spans' duration minus the part of that
interval their children cover; children may overlap (two scatter legs
in flight at once), so covered time is the union of their intervals.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, Sequence


class Span:
    """One timed call."""

    __slots__ = ("name", "layer", "start", "end", "parent", "pair", "thread")

    def __init__(
        self,
        name: str,
        layer: str,
        start: float = 0.0,
        end: float = 0.0,
        parent: "Span | None" = None,
        pair: int = 0,
        thread: int = 0,
    ) -> None:
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.pair = pair
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start


#: ``waits_on(args, kwargs)``: the message id this call sends and then
#: waits for — spans serving that id on other threads become children.
WaitsOn = Callable[[tuple, dict], "str | None"]
#: ``serves(args, kwargs, result)``: the message id this call serves
#: (``result`` is ``None`` when the call raised).
Serves = Callable[[tuple, dict, object], "str | None"]


class Tracer:
    """Records spans while :attr:`enabled`; wrappers pass through otherwise."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: The thread that made the tracer: the load generator's.
        self.load_thread = threading.get_ident()
        self.enabled = False
        #: Pair (or pipelined window) the load loop is working on.
        self.pair = 0
        self._local = threading.local()
        self._waiting: dict[str, Span] = {}
        self._patched: list[tuple[object, str, object, bool]] = []

    # ---------------------------------------------------------- wrapping

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        waits_on: WaitsOn | None = None,
        serves: Serves | None = None,
    ) -> Callable:
        """``fn`` with a span recorded around every call made while enabled."""
        tracer = self
        local = self._local
        waiting = self._waiting
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
                local.adopted = None
            span = Span(name, layer, pair=tracer.pair,
                        thread=threading.get_ident())
            if stack:
                span.parent = stack[-1]
            sent = waits_on(args, kwargs) if waits_on is not None else None
            if sent is not None:
                waiting[sent] = span
            stack.append(span)
            result = None
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = clock()
                stack.pop()
                if sent is not None:
                    waiting.pop(sent, None)
                if span.parent is None:
                    served = (
                        serves(args, kwargs, result)
                        if serves is not None
                        else None
                    )
                    remote = waiting.get(served) if served else None
                    if remote is not None:
                        local.adopted = remote
                    elif local.adopted is not None and local.adopted.end:
                        local.adopted = None  # that request was answered
                    span.parent = local.adopted
                spans.append(span)

        return traced

    def patch(
        self,
        owner: object,
        attribute: str,
        layer: str,
        name: str | None = None,
        waits_on: WaitsOn | None = None,
        serves: Serves | None = None,
    ) -> None:
        """Replace ``owner.attribute`` with its traced wrapper.

        ``owner`` is an instance (the bound method is wrapped and set on
        the instance) or a class (the function is wrapped in place).
        """
        had_own = attribute in vars(owner)
        original = vars(owner)[attribute] if had_own else None
        target = getattr(owner, attribute)
        label = name or f"{layer}.{attribute}"
        setattr(
            owner, attribute, self.wrap(layer, label, target, waits_on, serves)
        )
        self._patched.append((owner, attribute, original, had_own))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attribute, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # ------------------------------------------------------------ export

    def write_jsonl(self, path: str) -> None:
        """One span per line: id, name, layer, start, end, parent, pair."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "layer": span.layer,
                            "start": span.start,
                            "end": span.end,
                            "parent": ids.get(id(span.parent)),
                            "pair": span.pair,
                            "thread": span.thread,
                        }
                    )
                    + "\n"
                )


# ---------------------------------------------------------------- analysis


def covered(
    intervals: Iterable[tuple[float, float]], low: float, high: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if end > low and start < high
    )
    total = 0.0
    reach = low
    for start, end in clipped:
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_seconds(spans: Sequence[Span]) -> list[float]:
    """Self time of each span: duration minus covered child time."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    return [
        span.duration - covered(children.get(id(span), ()), span.start, span.end)
        for span in spans
    ]
