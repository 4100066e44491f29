"""Deterministic crash-point injection (the exercised-histories harness).

The paper's §4 atomicity guarantees — grant-and-reply as a unit, action
and promise-release as a unit — only mean something if the promise
manager survives a crash between any two steps.  This package lets tests
and benchmarks *schedule* a crash at a named point in the pipeline
(after begin, after a write, just before or after COMMIT, after a grant
but before the reply, mid-checkpoint, ...), observe the simulated
process death, and then restart the manager from its write-ahead log to
verify that recovery restores a state where every invariant holds.
"""

from .crashpoints import (
    CRASH_POINTS,
    CrashSchedule,
    SimulatedCrash,
    armed,
    clear,
    crash_point,
    crashed,
    install,
    should_crash,
)
from .history import HistoryEvent, HistoryRecorder, audit_history

__all__ = [
    "CRASH_POINTS",
    "CrashSchedule",
    "HistoryEvent",
    "HistoryRecorder",
    "SimulatedCrash",
    "armed",
    "audit_history",
    "clear",
    "crash_point",
    "crashed",
    "install",
    "should_crash",
]
