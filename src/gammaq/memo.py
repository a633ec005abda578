"""One registry of the in-process memo dicts.

A module creates each of its memos with memo() and fills and reads the dict
it gets back.  clear_memos() empties every registered memo in place.  Memos
live only as long as the process: the JSON cache (cache.py) stores the
results of commands, not memo entries.
"""

from __future__ import annotations

_registry: list[dict] = []


def memo() -> dict:
    """A new empty memo dict, registered so that clear_memos() reaches it."""
    table: dict = {}
    _registry.append(table)
    return table


def clear_memos() -> None:
    """Empty every registered memo in place."""
    for table in _registry:
        table.clear()
