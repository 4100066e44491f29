"""The store's row invariant, stated once: rows are immutable values.

    a row reads back as its JSON round trip; nothing a reader holds can
    be changed, at any depth; nothing the writer kept can reach the row;
    rollback restores the very object that was there; a reopened store
    holds the same rows, down to their types.

Whatever freezes rows may be replaced; these must keep passing.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.frozen import FrozenDict, FrozenList, freeze
from repro.storage.store import Store

SCALARS = st.none() | st.booleans() | st.integers() | st.text(max_size=8)

VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)

DICT_MUTATORS = [
    lambda d: d.__setitem__("k", 1),
    lambda d: d.__delitem__("k"),
    lambda d: d.__ior__({"k": 1}),
    lambda d: d.clear(),
    lambda d: d.pop("k", None),
    lambda d: d.popitem(),
    lambda d: d.setdefault("k", 1),
    lambda d: d.update(k=1),
]

LIST_MUTATORS = [
    lambda l: l.__setitem__(0, 1),
    lambda l: l.__setitem__(slice(0, 0), [1]),
    lambda l: l.__delitem__(0),
    lambda l: l.__iadd__([1]),
    lambda l: l.__imul__(2),
    lambda l: l.append(1),
    lambda l: l.extend([1]),
    lambda l: l.insert(0, 1),
    lambda l: l.pop(),
    lambda l: l.remove(1),
    lambda l: l.clear(),
    lambda l: l.sort(),
    lambda l: l.reverse(),
]


def containers(value: object):
    """Every dict and list in ``value``, at every depth."""
    if isinstance(value, dict):
        yield value
        for item in value.values():
            yield from containers(item)
    elif isinstance(value, (list, tuple)):
        if isinstance(value, list):
            yield value
        for item in value:
            yield from containers(item)


def assert_frozen(value: object) -> None:
    """Every mutator of every container in ``value`` raises, and none
    of them changed anything."""
    before = json.dumps(value, sort_keys=True)
    for container in containers(value):
        mutators = DICT_MUTATORS if isinstance(container, dict) else LIST_MUTATORS
        for mutate in mutators:
            with pytest.raises(TypeError):
                mutate(container)
    assert json.dumps(value, sort_keys=True) == before


def same_shape(left: object, right: object) -> bool:
    """Equal, and of the same type at every depth."""
    if type(left) is not type(right):
        return False
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(
            same_shape(left[key], right[key]) for key in left
        )
    if isinstance(left, list):
        return len(left) == len(right) and all(map(same_shape, left, right))
    return left == right


def scribble(value: object) -> None:
    """Change every plain container of a caller's value in place."""
    for container in list(containers(value)):
        if isinstance(container, dict):
            container["scribbled"] = True
        else:
            container.append("scribbled")


def one_row_store(value: object) -> Store:
    store = Store()
    store.create_table("t")
    with store.begin() as txn:
        txn.put("t", "k", value)
    return store


@settings(max_examples=150, deadline=None)
@given(VALUES)
def test_a_row_reads_back_as_its_json_round_trip(value):
    store = one_row_store(value)
    with store.begin() as txn:
        assert txn.get("t", "k") == json.loads(json.dumps(value))


@settings(max_examples=150, deadline=None)
@given(VALUES)
def test_no_reader_can_change_a_row(value):
    store = one_row_store(value)
    with store.begin() as txn:
        read = txn.get("t", "k")
        assert_frozen(read)
        [(__, scanned)] = list(txn.scan("t"))
        assert scanned is read
    snapshot = store.snapshot()
    assert_frozen(snapshot["t"]["k"])
    snapshot["t"]["other"] = 1  # the table mappings are the caller's own
    assert store.row_count("t") == 1


@settings(max_examples=150, deadline=None)
@given(VALUES)
def test_the_writers_value_stays_the_writers(value):
    expected = json.loads(json.dumps(value))
    store = one_row_store(value)
    scribble(value)
    with store.begin() as txn:
        assert txn.get("t", "k") == expected


@settings(max_examples=100, deadline=None)
@given(VALUES, VALUES)
def test_rollback_restores_the_prior_object(first, second):
    store = one_row_store(first)
    with store.begin() as txn:
        prior = txn.get("t", "k")
    txn = store.begin()
    txn.put("t", "k", second)
    txn.put("t", "new", second)
    txn.abort()
    with store.begin() as txn:
        assert txn.get("t", "k") is prior
        assert txn.get_or_none("t", "new") is None


@settings(max_examples=60, deadline=None)
@given(st.lists(VALUES, min_size=1, max_size=4))
def test_a_reopened_store_holds_the_same_rows(values):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "rows.wal"
        store = Store(wal_path=path)
        store.create_table("t")
        with store.begin() as txn:
            for index, value in enumerate(values):
                txn.put("t", str(index), value)
        live = store.snapshot()
        store.close()
        reopened = Store(wal_path=path)
        assert same_shape(reopened.snapshot(), live)
        with reopened.begin() as txn:
            for __, row in txn.scan("t"):
                assert_frozen(row)
        reopened.close()


def test_a_tuple_reads_back_as_the_recovered_type():
    recovered = FrozenList([1, FrozenList([2, FrozenDict({"a": FrozenList([3])})])])
    assert same_shape(freeze((1, (2, {"a": (3,)}))), recovered)


def test_a_row_must_be_json_shaped():
    store = Store()
    store.create_table("t")
    with store.begin() as txn:
        with pytest.raises(TypeError):
            txn.put("t", "k", {"when": object()})
