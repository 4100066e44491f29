"""Named crash points and the schedule that arms them.

Production code calls :func:`crash_point` (or :func:`should_crash` when
it wants to perform a *torn* effect, such as writing half a WAL record,
before dying) at the places a real process could be killed.  The calls
are free when nothing is armed — a single ``is None`` check.

A test arms exactly one point via :func:`install` or the :func:`armed`
context manager; when execution reaches it, :class:`SimulatedCrash` is
raised.  From that moment the schedule reports :func:`crashed` truthily
and the write-ahead log *freezes the disk*: any writes attempted by
unwinding ``except``/``finally`` blocks are silently dropped, exactly as
they would be in a process that had already died at the crash point.
Recovery tests then discard the in-memory object graph and rebuild the
system from the log file alone.

**Scopes.**  A schedule may carry a ``scope`` naming one logical
process.  Instrumented call sites report the scope of the component they
belong to (a deployment's ``fault_scope``, plumbed down to its store and
write-ahead log); a scoped schedule fires only at sites reporting that
scope, and once fired it freezes only that scope's disks.  This is what
lets a *fleet* of promise managers share one OS process in tests while
exactly one of them "dies": arming ``("manager.after-grant-before-reply",
scope="shard-1")`` kills shard 1 mid-request and leaves its siblings
running and durable.  An unscoped schedule keeps the original
whole-process semantics: it fires at any site and freezes every disk.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterator

#: Every crash point the substrate instruments, in pipeline order.  The
#: crash-matrix test iterates this list, so adding an instrumentation
#: site here automatically adds it to the recovery matrix.
CRASH_POINTS: tuple[str, ...] = (
    "store.after-begin",            # txn begun, no changes yet
    "store.after-put",              # a row written in memory, txn in flight
    "store.before-commit",          # all changes made, COMMIT not logged
    "store.after-commit",           # COMMIT logged, in-memory finish pending
    "wal.torn-append",              # power loss mid-append: half a record
    "wal.mid-checkpoint",           # snapshot written, os.replace pending
    "wal.after-checkpoint-replace",  # os.replace done, dir fsync pending
    "manager.after-grant-before-reply",   # grant committed, reply never sent
    "manager.after-action-before-release",  # action ran, releases pending
    "manager.after-execute-commit",  # action+release committed, reply lost
    "endpoint.before-reply",        # handler done, reply envelope unsent
)


class SimulatedCrash(RuntimeError):
    """The simulated process death injected at an armed crash point."""

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at {point!r}")
        self.point = point


@dataclass
class CrashSchedule:
    """Arm one named point; crash on its ``hits``-th occurrence.

    With a ``scope``, only call sites reporting that scope count (and
    later freeze); without one, every site counts and every disk
    freezes — the original single-process semantics.
    """

    point: str
    hits: int = 1
    scope: str | None = None
    seen: int = field(default=0, init=False)
    fired: bool = field(default=False, init=False)

    def due(self, name: str, scope: str | None = None) -> bool:
        """Consume one occurrence of ``name``; True when it is time to die."""
        if self.fired or name != self.point:
            return False
        if self.scope is not None and scope != self.scope:
            return False
        self.seen += 1
        if self.seen >= self.hits:
            self.fired = True
            return True
        return False


_schedule: CrashSchedule | None = None


def install(point: str, hits: int = 1, scope: str | None = None) -> CrashSchedule:
    """Arm ``point``; the ``hits``-th occurrence raises SimulatedCrash."""
    global _schedule
    _schedule = CrashSchedule(point, hits, scope)
    return _schedule


def clear() -> None:
    """Disarm everything (the simulated process has been 'restarted')."""
    global _schedule
    _schedule = None


def crashed(scope: str | None = None) -> bool:
    """True once the armed crash has fired for ``scope`` (it is 'dead').

    The WAL consults this, passing its own scope, to drop writes
    attempted by code unwinding past the crash point — a dead process
    writes nothing to disk.  An unscoped fired schedule reports every
    scope dead; a scoped one only its own.
    """
    if _schedule is None or not _schedule.fired:
        return False
    return _schedule.scope is None or _schedule.scope == scope


def crash_point(name: str, scope: str | None = None) -> None:
    """Die here when ``name`` is armed and due; free when nothing is."""
    if _schedule is None:
        return
    if _schedule.due(name, scope):
        raise SimulatedCrash(name)


def should_crash(name: str, scope: str | None = None) -> bool:
    """Like :func:`crash_point`, but lets the caller tear its own effect.

    Returns True when the caller should perform its partial effect (for
    example, write half a WAL record) and then raise
    :class:`SimulatedCrash` itself.
    """
    if _schedule is None:
        return False
    return _schedule.due(name, scope)


@contextlib.contextmanager
def armed(
    point: str, hits: int = 1, scope: str | None = None
) -> Iterator[CrashSchedule]:
    """Arm ``point`` for the duration of the block, disarming on exit."""
    schedule = install(point, hits, scope)
    try:
        yield schedule
    finally:
        clear()
