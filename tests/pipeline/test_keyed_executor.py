"""Ordering contract of the keyed executor.

Parallel dispatch is only safe because of three promises: same-key FIFO,
disjoint-key concurrency, and a global barrier for unknown footprints.
Each is proven here directly — by rendezvous (two jobs that can only
both finish if they overlap) and by overlap counters (jobs that must
never overlap), not by timing luck.  The layer's invariant is stated
once, apart from the mechanism, and checked for the inline executor
(``workers=0``) and for pools alike: *two jobs whose footprints
conflict — a shared key, or either one unknown — run in submission
order, the first finished before the second starts.*
"""

from __future__ import annotations

import itertools
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.executor import KeyedExecutor
from repro.obs.metrics import MetricsRegistry

pytestmark = pytest.mark.pipeline

#: A job's footprint: some of three keys, or ``None`` (unknown).
FOOTPRINTS = st.one_of(
    st.none(), st.frozensets(st.sampled_from("abc"), min_size=1, max_size=2)
)


@settings(max_examples=40, deadline=None)
@given(
    workers=st.sampled_from([0, 1, 3]),
    footprints=st.lists(FOOTPRINTS, min_size=2, max_size=10),
)
def test_conflicting_jobs_run_in_submission_order(workers, footprints):
    ticks = itertools.count()
    lock = threading.Lock()
    spans: dict[int, tuple[int, int]] = {}

    def job(index: int):
        def run() -> None:
            with lock:
                started = next(ticks)
            time.sleep(0.001)  # room for a wrongly scheduled job to overlap
            with lock:
                spans[index] = (started, next(ticks))
        return run

    with KeyedExecutor(workers=workers) as executor:
        futures = [
            executor.submit(keys, job(index))
            for index, keys in enumerate(footprints)
        ]
        for future in futures:
            future.result(timeout=5)
    for first, second in itertools.combinations(range(len(footprints)), 2):
        a, b = footprints[first], footprints[second]
        if a is None or b is None or a & b:
            assert spans[first][1] < spans[second][0], (first, second)


def test_inline_executor_runs_each_job_before_submit_returns():
    metrics = MetricsRegistry()
    caller = threading.get_ident()

    def boom():
        raise RuntimeError("handler crashed")

    with KeyedExecutor(workers=0, metrics=metrics) as executor:
        ran = executor.submit({"stock"}, threading.get_ident)
        assert ran.done() and ran.result() == caller
        failed = executor.submit(None, boom)
        assert failed.done()
        with pytest.raises(RuntimeError):
            failed.result()
    # Nothing is queued, ordered or counted: a barrier is free inline.
    assert metrics.value("executor.submitted") == 0
    assert metrics.value("executor.barriers") == 0
    with pytest.raises(RuntimeError):
        executor.submit({"stock"}, lambda: None)
    with pytest.raises(ValueError):
        KeyedExecutor(workers=-1)


def test_same_key_runs_in_submission_order():
    order: list[int] = []
    with KeyedExecutor(workers=4) as executor:
        futures = []
        for index in range(16):
            def job(index=index):
                # Early jobs dawdle; a FIFO violation would let later
                # ones overtake and scramble the order list.
                if index < 4:
                    time.sleep(0.01)
                order.append(index)
            futures.append(executor.submit({"stock"}, job))
        for future in futures:
            future.result(timeout=5)
    assert order == list(range(16))


def test_disjoint_keys_run_concurrently():
    # Rendezvous: each job waits for the other to start.  Serial
    # execution in either order would deadlock; only true overlap (and
    # the timeout below) lets both finish.
    started_a = threading.Event()
    started_b = threading.Event()

    def job_a():
        started_a.set()
        assert started_b.wait(timeout=5)

    def job_b():
        started_b.set()
        assert started_a.wait(timeout=5)

    with KeyedExecutor(workers=4) as executor:
        future_a = executor.submit({"a"}, job_a)
        future_b = executor.submit({"b"}, job_b)
        future_a.result(timeout=5)
        future_b.result(timeout=5)


def test_shared_key_jobs_never_overlap():
    lock = threading.Lock()
    running = 0
    peak = 0

    def job():
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
        time.sleep(0.002)
        with lock:
            running -= 1

    with KeyedExecutor(workers=8) as executor:
        futures = [
            executor.submit({"stock", f"extra-{i % 3}"}, job) for i in range(12)
        ]
        for future in futures:
            future.result(timeout=5)
    assert peak == 1


def test_none_keys_is_a_global_barrier():
    order: list[str] = []

    def slow(tag: str):
        def job():
            time.sleep(0.05)
            order.append(tag)
        return job

    def fast(tag: str):
        def job():
            order.append(tag)
        return job

    with KeyedExecutor(workers=8) as executor:
        before = [
            executor.submit({f"k{i}"}, slow(f"before-{i}")) for i in range(3)
        ]
        barrier = executor.submit(None, fast("barrier"))
        after = executor.submit({"k0"}, fast("after"))
        for future in (*before, barrier, after):
            future.result(timeout=5)
    assert order[3] == "barrier"
    assert order[4] == "after"
    assert sorted(order[:3]) == ["before-0", "before-1", "before-2"]


def test_failed_job_releases_its_successors():
    def boom():
        raise RuntimeError("handler crashed")

    seen: list[str] = []
    with KeyedExecutor(workers=2) as executor:
        failed = executor.submit({"stock"}, boom)
        follower = executor.submit({"stock"}, lambda: seen.append("ran"))
        with pytest.raises(RuntimeError):
            failed.result(timeout=5)
        follower.result(timeout=5)
    assert seen == ["ran"]


def test_submit_after_close_raises():
    executor = KeyedExecutor(workers=1)
    executor.close()
    with pytest.raises(RuntimeError):
        executor.submit({"stock"}, lambda: None)


def test_metrics_count_submissions_and_barriers():
    metrics = MetricsRegistry()
    with KeyedExecutor(workers=2, metrics=metrics) as executor:
        for _ in range(3):
            executor.submit({"a"}, lambda: None).result(timeout=5)
        executor.submit(None, lambda: None).result(timeout=5)
    assert metrics.value("executor.submitted") == 4
    assert metrics.value("executor.barriers") == 1
