"""Persistent JSON cache for computed values.

Every persistent memo of the registry in memo.py is cached in one file,
<name>.json: today "L" and "Y" (the two recursion memos, keyed "lam|mu",
polynomial-valued) and "vacuum" (the Schur Q and Q-Hall-Littlewood vacuum
vectors, keyed "Q|lam" or "G|lam", ring-element-valued).  Every file carries
VERSION_TAG, gammaq-<version>-<fingerprint>: a sha256 over the source of
every module of the package, this one included, so a change to the layout or
to any code retires every file written before.  A file that is missing,
carries another tag or kind, or has any malformed key or value is skipped
whole, so such files are recomputed rather than trusted.

A load is scoped: load(names) reads only the files of the memos a command
uses.  A save writes only the memos that grew since the load; memos are
write-once per key, so a larger memo is a changed one.  Each such file is
merged with the valid entries on disk at the time of the save (a value in
memory wins), written to a temporary file in the cache directory and moved
into place with os.replace, so a reader never sees a partial file and two
processes that fill different entries keep each other's work.  A save that
writes also deletes the files of the retired fmt1 layout, schur_q.json and
qhl.json, when they carry the fmt1 tag; no other file is touched.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable

from . import __version__
from .memo import Memo, persistent


def _fingerprint() -> str:
    """12 hex digits of a sha256 over each module's name and source, by name."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:12]


VERSION_TAG = f"gammaq-{__version__}-{_fingerprint()}"

# The layout before the vacuum vectors shared one file; only 0.1.0 wrote it.
_FMT1_TAG = "gammaq-0.1.0-fmt1"
_FMT1_FILES = ("schur_q.json", "qhl.json")


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
        # memo name -> its size after load; a memo never loaded counts as empty
        self._sizes: dict[str, int] = {}

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
        except (ValueError, TypeError, KeyError, ZeroDivisionError):
            return {}

    def load(self, names: Iterable[str] | None = None) -> None:
        """Seed the named persistent memos (all of them by default) from
        disk; skips missing, stale and malformed files."""
        if not self.enabled:
            return
        for m in persistent():
            if names is None or m.name in names:
                m.table.update(self._read(m))
            self._sizes[m.name] = len(m.table)

    def save(self) -> None:
        """Merge every memo that grew since load into its file on disk."""
        if not self.enabled:
            return
        dirty = [m for m in persistent() if len(m.table) > self._sizes.get(m.name, 0)]
        if not dirty:
            return
        os.makedirs(self.directory, exist_ok=True)
        for m in dirty:
            merged = self._read(m)
            merged.update(m.table)
            self._write(m, merged)
            self._sizes[m.name] = len(m.table)
        self._remove_fmt1_files()

    def _write(self, m: Memo, entries: dict) -> None:
        """Replace m's file atomically."""
        payload = {
            "version": VERSION_TAG,
            "kind": m.name,
            "entries": {m.key.encode(k): m.value.encode(v) for k, v in entries.items()},
        }
        fd, tmp = tempfile.mkstemp(prefix=f".{m.name}.", suffix=".tmp", dir=self.directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, self._path(m.name))
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def _remove_fmt1_files(self) -> None:
        for name in _FMT1_FILES:
            path = os.path.join(self.directory, name)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            except (OSError, ValueError):
                continue
            if isinstance(data, dict) and data.get("version") == _FMT1_TAG:
                with contextlib.suppress(OSError):
                    os.remove(path)
