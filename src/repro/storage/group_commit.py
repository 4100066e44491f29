"""The retired group-commit tuning, kept importable and inert.

The WAL has one write path (:mod:`repro.storage.wal`): the committing
thread hardens its own batch, so there is no flusher to tune.  This
dataclass survives only because ``benchmarks/perf`` still builds one and
passes it to ``Store`` / ``Deployment``, which accept and ignore it, and
reads its fields for its report.  Nothing in ``src/`` constructs it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GroupCommitConfig:
    """Accepted and ignored: the fields a benchmark report still reads."""

    max_batch: int = 64
    max_hold: float = 0.002
    fsync: bool = True
