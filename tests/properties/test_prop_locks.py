"""Property-based tests for the lock manager's safety invariants, and
for the locks a store transaction remembers it holds."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.storage.errors import (
    DeadlockDetected,
    DuplicateKey,
    KeyNotFound,
    TransactionAborted,
)
from repro.storage.locks import LockManager, LockMode
from repro.storage.store import Store

txn_ids = st.integers(min_value=1, max_value=6)
keys = st.sampled_from(["a", "b", "c"])
modes = st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE])


@st.composite
def lock_scripts(draw):
    steps = []
    for __ in range(draw(st.integers(min_value=1, max_value=40))):
        if draw(st.booleans()):
            steps.append(("acquire", draw(txn_ids), draw(keys), draw(modes)))
        else:
            steps.append(("release", draw(txn_ids), None, None))
    return steps


def check_invariants(locks: LockManager) -> None:
    """Compatibility invariants that must hold after every step."""
    for key in ("a", "b", "c"):
        holders = locks.holders(key)
        exclusive = [t for t, mode in holders.items() if mode is LockMode.EXCLUSIVE]
        if exclusive:
            # An exclusive holder is always alone.
            assert len(holders) == 1, f"X lock shared on {key}: {holders}"


@given(lock_scripts())
@settings(max_examples=300)
def test_no_incompatible_holders_ever(script):
    """Under arbitrary acquire/release interleavings, no two transactions
    ever hold incompatible locks on the same key, and promotions preserve
    that."""
    locks = LockManager()
    for op, txn_id, key, mode in script:
        if op == "acquire":
            try:
                locks.acquire(txn_id, key, mode)
            except DeadlockDetected:
                locks.release_all(txn_id)
        else:
            locks.release_all(txn_id)
        check_invariants(locks)


@given(lock_scripts())
@settings(max_examples=200)
def test_waiters_eventually_drain(script):
    """Releasing every transaction leaves the lock table empty."""
    locks = LockManager()
    seen: set[int] = set()
    for op, txn_id, key, mode in script:
        seen.add(txn_id)
        if op == "acquire":
            try:
                locks.acquire(txn_id, key, mode)
            except DeadlockDetected:
                locks.release_all(txn_id)
        else:
            locks.release_all(txn_id)
    for txn_id in seen:
        locks.release_all(txn_id)
    for key in ("a", "b", "c"):
        assert locks.holders(key) == {}
        assert locks.waiting(key) == []


@given(lock_scripts())
@settings(max_examples=200)
def test_try_acquire_never_blocks_or_deadlocks(script):
    """The non-blocking discipline the promise manager relies on (§9):
    try_acquire grants or fails but never enqueues, so deadlock is
    structurally impossible."""
    locks = LockManager()
    for op, txn_id, key, mode in script:
        if op == "acquire":
            locks.try_acquire(txn_id, key, mode)  # may be False, never raises
            assert not locks.is_waiting(txn_id)
        else:
            locks.release_all(txn_id)
        check_invariants(locks)


# ------------------------------------------------- a transaction's lock memo

TABLE = "t"
SENTINEL = ("__table__", TABLE)
ROW_KEYS = ("a", "b", "c")
S, X = LockMode.SHARED, LockMode.EXCLUSIVE


class LockModel:
    """What strict no-wait 2PL grants, as plain dicts: lock key →
    {slot: mode}, and which rows exist (with each slot's undo of that).

    S is compatible only with S; a holder's upgrade to X succeeds only
    when it is the sole holder; a refused request aborts the requester,
    which undoes its writes and drops every lock it held.
    """

    def __init__(self, present: set[str]) -> None:
        self.holders: dict[tuple, dict[int, LockMode]] = {}
        self.present = set(present)
        self.undo: dict[int, list[tuple[str, bool]]] = {}

    def lock(self, slot: int, key: tuple, mode: LockMode) -> bool:
        holders = self.holders.setdefault(key, {})
        held = holders.get(slot)
        if held is X or held is mode:
            return True
        others = [m for s, m in holders.items() if s != slot]
        if (mode is S and X not in others) or (mode is X and not others):
            holders[slot] = mode
            return True
        self.end(slot, commit=False)
        return False

    def locks_of(self, slot: int) -> dict[tuple, LockMode]:
        return {
            key: holders[slot]
            for key, holders in self.holders.items()
            if slot in holders
        }

    def write(self, slot: int, row: str, present: bool) -> None:
        self.undo.setdefault(slot, []).append((row, row in self.present))
        (self.present.add if present else self.present.discard)(row)

    def rollback(self, slot: int, length: int) -> None:
        undo = self.undo.setdefault(slot, [])
        while len(undo) > length:
            row, was_present = undo.pop()
            (self.present.add if was_present else self.present.discard)(row)

    def end(self, slot: int, commit: bool) -> None:
        if not commit:
            self.rollback(slot, 0)
        self.undo.pop(slot, None)
        for holders in self.holders.values():
            holders.pop(slot, None)


def run_in_store(store: Store, txn, op: str, row: str) -> None:
    if op == "get":
        txn.get_or_none(TABLE, row)
    elif op == "put":
        txn.put(TABLE, row, 1)
    elif op == "insert":
        txn.insert(TABLE, row, 2)
    elif op == "delete":
        txn.delete(TABLE, row)
    elif op == "scan":
        list(txn.scan(TABLE))


def run_in_model(model: LockModel, slot: int, op: str, row: str) -> str | None:
    """The store's lock requests for ``op``, in its order; the error the
    step must raise (``None`` when it must succeed)."""
    if op == "get":
        ok = model.lock(slot, (TABLE, row), S)
    elif op == "put":
        ok = (row in model.present or model.lock(slot, SENTINEL, X)) and model.lock(
            slot, (TABLE, row), X
        )
        if ok:
            model.write(slot, row, True)
    elif op == "insert":
        if not model.lock(slot, (TABLE, row), X):
            return "TransactionAborted"
        if row in model.present:
            return "DuplicateKey"
        ok = model.lock(slot, SENTINEL, X)
        if ok:
            model.write(slot, row, True)
    elif op == "delete":
        ok = model.lock(slot, SENTINEL, X) and model.lock(slot, (TABLE, row), X)
        if ok and row not in model.present:
            return "KeyNotFound"
        if ok:
            model.write(slot, row, False)
    else:
        assert op == "scan"
        ok = model.lock(slot, SENTINEL, S) and all(
            model.lock(slot, (TABLE, key), S) for key in sorted(model.present)
        )
    return None if ok else "TransactionAborted"


memo_steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.sampled_from(
            ["get", "get", "put", "insert", "delete", "scan",
             "savepoint", "rollback", "commit", "abort"]
        ),
        st.sampled_from(ROW_KEYS),
    ),
    min_size=1,
    max_size=40,
)


@given(st.sets(st.sampled_from(ROW_KEYS)), memo_steps)
@settings(max_examples=300, deadline=None)
def test_a_transaction_remembers_exactly_the_locks_it_holds(seeded, script):
    """Two or three interleaved store transactions: after every step each
    live one's remembered locks are exactly what the lock manager says it
    holds, and a step raises :class:`TransactionAborted` exactly when the
    reference model predicts a conflict."""
    store = Store()
    store.create_table(TABLE)
    with store.begin() as txn:
        for row in seeded:
            txn.put(TABLE, row, 0)
    model = LockModel(seeded)
    txns: dict[int, object] = {}
    savepoints: dict[int, list[tuple[object, int]]] = {}
    for slot, op, row in script:
        txn = txns.get(slot)
        if txn is None:
            txn = txns[slot] = store.begin()
            savepoints[slot] = []
        if op in ("commit", "abort"):
            getattr(txn, op)()
            model.end(slot, commit=op == "commit")
            del txns[slot]
        elif op == "savepoint":
            savepoints[slot].append((txn.savepoint(), len(model.undo.get(slot, []))))
        elif op == "rollback":
            if savepoints[slot]:
                mark, length = savepoints[slot][-1]
                txn.rollback_to(mark)
                model.rollback(slot, length)
        else:
            expected = run_in_model(model, slot, op, row)
            raised = None
            try:
                run_in_store(store, txn, op, row)
            except (TransactionAborted, DuplicateKey, KeyNotFound) as error:
                raised = type(error).__name__
            assert raised == expected, (slot, op, row)
            if raised == "TransactionAborted":
                assert not txn.is_active
                del txns[slot]
        for live_slot, live in txns.items():
            remembered = model.locks_of(live_slot)
            assert live.locks == remembered, (slot, op, row)
            for key in {SENTINEL, *((TABLE, r) for r in ROW_KEYS)}:
                held = store.lock_manager.holders(key).get(live.txn_id)
                assert held is live.locks.get(key), (slot, op, row, key)
    for txn in txns.values():
        txn.abort()
    assert store.active_transactions == []
    for key in {SENTINEL, *((TABLE, r) for r in ROW_KEYS)}:
        assert store.lock_manager.holders(key) == {}
    assert store.lock_manager._table == {}
