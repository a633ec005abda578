"""Persistent JSON cache for computed values.

Every persistent memo of the registry in memo.py is cached in one file,
<name>.json: today "L" and "Y" (the two recursion memos, keyed "lam|mu",
polynomial-valued) and "vacuum" (the Schur Q and Q-Hall-Littlewood vacuum
vectors, keyed "Q|lam" or "G|lam", ring-element-valued).  Every file carries
VERSION_TAG, which changes whenever the file layout does.  A file that is
missing, carries another tag or kind, or has any malformed key or value is
skipped whole, so such files are recomputed rather than trusted.
"""

from __future__ import annotations

import json
import os

from . import __version__
from .memo import Memo, persistent

VERSION_TAG = f"gammaq-{__version__}-fmt2"


def default_cache_dir() -> str:
    env = os.environ.get("GAMMA_CACHE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "gammaq")


class Cache:
    """Load/save the persistent memos under a directory."""

    def __init__(self, directory: str | None = None, enabled: bool = True):
        self.directory = directory or default_cache_dir()
        self.enabled = enabled

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, f"{name}.json")

    def _read(self, m: Memo) -> dict:
        """The decoded entries of m's file, or {} if it is unusable."""
        try:
            with open(self._path(m.name), "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return {}
        if (
            not isinstance(data, dict)
            or data.get("version") != VERSION_TAG
            or data.get("kind") != m.name
            or not isinstance(data.get("entries"), dict)
        ):
            return {}
        try:
            return {m.key.decode(k): m.value.decode(v) for k, v in data["entries"].items()}
        except (ValueError, TypeError, KeyError):
            return {}

    def load(self) -> None:
        """Seed the memos from disk; skips missing, stale and malformed files."""
        if not self.enabled:
            return
        for m in persistent():
            m.table.update(self._read(m))

    def save(self) -> None:
        """Write every persistent memo; files are rewritten whole."""
        if not self.enabled:
            return
        os.makedirs(self.directory, exist_ok=True)
        for m in persistent():
            entries = {m.key.encode(k): m.value.encode(v) for k, v in m.table.items()}
            payload = {"version": VERSION_TAG, "kind": m.name, "entries": entries}
            with open(self._path(m.name), "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
