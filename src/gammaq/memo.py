"""One registry of the in-process memo dicts, and the one way to fill them.

A module creates each of its memos with memo() and puts cached(table) on the
function whose results the dict holds; no other code reads or writes a memo
entry.  clear_memos() empties every registered memo in place.  Memos live
only as long as the process: the JSON cache (cache.py) stores the results of
commands, not memo entries.
"""

from __future__ import annotations

from functools import update_wrapper

_registry: list[dict] = []


def memo() -> dict:
    """A new empty memo dict, registered so that clear_memos() reaches it."""
    table: dict = {}
    _registry.append(table)
    return table


def cached(table: dict, key=None):
    """Decorator: answer each call from table, a memo() dict, keyed by the
    argument tuple or by key(*args), and store whatever a miss returns.  None
    marks an absent entry, so the function must never return None; every
    other result, falsy ones included, is stored and served shared."""

    def decorate(fn):
        def lookup(*args):
            k = args if key is None else key(*args)
            result = table.get(k)
            if result is None:
                result = table[k] = fn(*args)
            return result

        return update_wrapper(lookup, fn)

    return decorate


def clear_memos() -> None:
    """Empty every registered memo in place."""
    for table in _registry:
        table.clear()
