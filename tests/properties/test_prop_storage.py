"""Property-based tests for the storage substrate."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.storage.store import Store
from repro.storage.wal import LogRecordType

keys = st.text(alphabet="abcde", min_size=1, max_size=3)
values = st.integers(min_value=-100, max_value=100)

STEPS = ["put", "delete", "savepoint", "rollback"]


@st.composite
def transaction_scripts(draw):
    """A list of transactions; each is (steps, commit?) where steps put,
    delete, take a savepoint, or roll back to the latest one."""
    script = []
    for __ in range(draw(st.integers(min_value=1, max_value=8))):
        ops = draw(
            st.lists(
                st.tuples(st.sampled_from(STEPS), keys, values),
                min_size=1,
                max_size=8,
            )
        )
        commits = draw(st.booleans())
        script.append((ops, commits))
    return script


def run_steps(txn, ops, model: dict[str, int]) -> tuple[dict, dict]:
    """Apply ``ops`` through ``txn`` and to a copy of ``model``.

    Returns the model's after-state and the keys the transaction still
    wrote when it ended, in first-write order (a rollback forgets what
    it undid)."""
    shadow, touched = dict(model), {}
    savepoints = []
    for op, key, value in ops:
        if op == "put":
            txn.put("t", key, value)
            shadow[key] = value
            touched.setdefault(key)
        elif op == "delete":
            if txn.exists("t", key):
                txn.delete("t", key)
                touched.setdefault(key)
            shadow.pop(key, None)
        elif op == "savepoint":
            savepoints.append((txn.savepoint(), dict(shadow), dict(touched)))
        elif savepoints:
            mark, kept, written = savepoints[-1]
            txn.rollback_to(mark)
            shadow, touched = dict(kept), dict(written)
    return shadow, touched


@given(transaction_scripts())
@settings(max_examples=150)
def test_store_matches_sequential_model(script):
    """Committed transactions apply atomically and in order; aborted ones
    leave no trace.  Compared against a plain-dict model."""
    store = Store()
    store.create_table("t")
    model: dict[str, int] = {}

    for ops, commits in script:
        txn = store.begin()
        shadow, __ = run_steps(txn, ops, model)
        if commits:
            txn.commit()
            model = shadow
        else:
            txn.abort()

    with store.begin() as check:
        state = dict(check.scan("t"))
    assert state == model


@given(transaction_scripts())
@settings(max_examples=100)
def test_wal_replay_matches_store(tmp_path_factory, script):
    """Recovering from the WAL reproduces exactly the committed state."""
    path = tmp_path_factory.mktemp("wal") / "wal.jsonl"
    store = Store(wal_path=path)
    store.create_table("t")
    model: dict[str, int] = {}
    for ops, commits in script:
        txn = store.begin()
        shadow, __ = run_steps(txn, ops, model)
        if commits:
            txn.commit()
            model = shadow
        else:
            txn.abort()
    with store.begin() as check:
        expected = dict(check.scan("t"))
    assert expected == model

    recovered = Store(wal_path=path)
    with recovered.begin() as check:
        assert dict(check.scan("t")) == expected


@given(transaction_scripts())
@settings(max_examples=100)
def test_a_committed_transaction_is_one_line_of_its_net_writes(script):
    """Each committed transaction that wrote adds exactly one WAL line,
    a COMMIT whose ops are its net writes — every row it still wrote,
    once, in first-write order, with its after-image; an aborted one,
    or one that wrote nothing, adds none."""
    store = Store()
    store.create_table("t")
    wal = store.wal
    model: dict[str, int] = {}
    for ops, commits in script:
        before = list(wal)
        txn = store.begin()
        shadow, touched = run_steps(txn, ops, model)
        if commits:
            txn.commit()
            model = shadow
        else:
            txn.abort()
        added = list(wal)[len(before):]
        if not (commits and touched):
            assert added == []
            continue
        assert len(added) == 1
        (line,) = added
        assert line.record_type is LogRecordType.COMMIT
        assert line.txn_id == txn.txn_id
        assert line.value == [
            ["t", key, shadow[key]] if key in shadow else ["t", key]
            for key in touched
        ]


@given(
    st.lists(
        st.tuples(st.sampled_from(["reserve", "unreserve", "consume", "sell", "stock"]),
                  st.integers(min_value=1, max_value=20)),
        max_size=30,
    )
)
@settings(max_examples=150)
def test_pool_counters_never_negative(operations):
    """Escrow arithmetic invariants: counters stay non-negative and
    conservation holds under arbitrary operation sequences."""
    from repro.resources.manager import InsufficientResources, ResourceManager

    store = Store()
    resources = ResourceManager(store)
    with store.begin() as txn:
        resources.create_pool(txn, "w", 50)

    stocked, sold, consumed = 50, 0, 0
    for op, amount in operations:
        with store.begin() as txn:
            try:
                if op == "reserve":
                    resources.reserve(txn, "w", amount)
                elif op == "unreserve":
                    resources.unreserve(txn, "w", amount)
                elif op == "consume":
                    resources.consume_allocated(txn, "w", amount)
                    consumed += amount
                elif op == "sell":
                    resources.remove_stock(txn, "w", amount)
                    sold += amount
                else:
                    resources.add_stock(txn, "w", amount)
                    stocked += amount
            except InsufficientResources:
                txn.abort()
                continue

    with store.begin() as txn:
        pool = resources.pool(txn, "w")
    assert pool.available >= 0
    assert pool.allocated >= 0
    assert pool.on_hand == stocked - sold - consumed
