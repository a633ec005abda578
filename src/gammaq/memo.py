"""One registry of the in-process memo dicts.

A module creates each of its memos with memo(name, key, value) and fills
and reads the dict it gets back.  clear_memos() empties every registered
memo in place.  A memo registered with a key and a value codec is persistent:
the JSON cache (cache.py) saves and loads it, one file per memo name.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from .partitions import Partition, parse_partition, partition_str
from .tpoly import TPoly, ZERO


class Codec(NamedTuple):
    """A JSON form of some values.  decode inverts encode and raises
    ValueError, TypeError, KeyError or ZeroDivisionError on data it cannot
    read; zero is the value a table cell has when nothing is stored for it."""

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]
    zero: Any = None


class Memo(NamedTuple):
    name: str
    table: dict
    key: Codec | None
    value: Codec | None


_registry: dict[str, Memo] = {}


def memo(name: str, key: Codec | None = None, value: Codec | None = None) -> dict:
    """A new empty memo dict registered under name; pass both codecs, or
    neither for a memo that is never cached on disk."""
    table: dict = {}
    _registry[name] = Memo(name, table, key, value)
    return table


def persistent() -> list[Memo]:
    """The registered memos that have codecs, in registration order."""
    return [m for m in _registry.values() if m.key is not None]


def clear_memos() -> None:
    """Empty every registered memo in place."""
    for m in _registry.values():
        m.table.clear()


def _decode_pair(text: str) -> tuple[Partition, Partition]:
    lam, mu = text.split("|")
    return parse_partition(lam), parse_partition(mu)


# A partition pair as "lam|mu", e.g. "4,1|3,2".
PAIR = Codec(lambda key: f"{partition_str(key[0])}|{partition_str(key[1])}", _decode_pair)

POLY = Codec(TPoly.to_json, TPoly.from_json, ZERO)

INT = Codec(int, int, 0)
