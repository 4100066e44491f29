"""Read-only JSON-shaped values: what the store keeps as a row.

A row is frozen once, when it is written (:func:`freeze`), and from then
on the store hands the stored object itself to every reader, the undo
log and the WAL record — nothing can change it under any of them, so
none of them copies it.  :class:`FrozenDict` and :class:`FrozenList` are
``dict``/``list`` subclasses whose mutators raise :class:`TypeError`;
everything that only reads (``json.dumps``, ``==`` against plain values,
``isinstance``, iteration, ``dict(row)``, ``{**row, ...}``,
``row.copy()``) behaves as for the plain type.  A writer builds a new
value and puts it.
"""

from __future__ import annotations

from typing import NoReturn


def _immutable(self, *args, **kwargs) -> NoReturn:
    raise TypeError(f"{type(self).__name__} is immutable; build a new value")


class FrozenDict(dict):
    """A ``dict`` whose mutators raise :class:`TypeError`."""

    __slots__ = ()

    __setitem__ = __delitem__ = __ior__ = _immutable
    clear = pop = popitem = setdefault = update = _immutable

    def __reduce__(self):
        # copy and pickle would otherwise refill the copy item by item.
        return (FrozenDict, (dict(self),))


class FrozenList(list):
    """A ``list`` whose mutators raise :class:`TypeError`."""

    __slots__ = ()

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _immutable
    append = extend = insert = pop = remove = clear = _immutable
    sort = reverse = _immutable

    def __reduce__(self):
        return (FrozenList, (list(self),))


_SCALARS = (str, int, float, bool, type(None))
#: Exact types :func:`freeze` returns as they are.
_SHARED = frozenset({*_SCALARS, FrozenDict, FrozenList})


def freeze(value: object) -> object:
    """``value`` as a read-only value, sharing nothing mutable with it.

    One recursive pass: dicts become :class:`FrozenDict`, lists and
    tuples :class:`FrozenList` (the shape a JSON round trip gives them),
    scalars and already-frozen values are returned as they are.  Any
    other type is refused — a row must survive the WAL's JSON encoding.
    """
    kind = type(value)
    if kind in _SHARED:
        return value
    if isinstance(value, dict):
        return FrozenDict({key: freeze(item) for key, item in value.items()})
    if isinstance(value, (list, tuple)):
        return FrozenList([freeze(item) for item in value])
    if isinstance(value, _SCALARS):  # str and int subclasses: enums
        return value
    raise TypeError(f"cannot store a {kind.__name__}: rows are JSON-shaped values")
