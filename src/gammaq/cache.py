"""Persistent JSON cache of command results.

lkostka, spin-green and expand each store their result in one file,
<name>.json: L-<n> (the Q-Kostka table), Y-<n> (the spin Green table) and
expand-<family>-<basis>-<lam>; spin-char and verify use no cache.  Every
file is {"version": <tag>, "kind": <name>, "value": <result>}, where the
tag, gammaq-<version>-<fingerprint> from _version_tag(), carries a sha256
over the source of every module of the package, this one included, so a
change to the layout or to any code retires every file written before.  The
tag is computed once, and hashlib imported, when a cache is first used: the
first time an enabled cache reads a file or writes one, so a --no-cache
command never hashes the source.  A file that is missing, carries another
tag or kind, or whose value the command's decoder refuses is ignored whole,
and the result is recomputed rather than trusted.  The recursion memos
(memo.py) are never stored.

load(name, decode) reads one file; save(name, value, encode) writes it
unless that load found it.  A write goes to a temporary file in the cache
directory and is moved into place with os.replace, so a reader never sees a
partial file; two processes that compute the same result write the same
bytes.  A save touches no other file.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable

from . import __version__


def _fingerprint() -> str:
    """12 hex digits of a sha256 over each module's name and source, by name."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:12]


# A plain global, not functools.cache: the benchmark clears every lru_cache
# before each request, and each warm request would then hash the source again.
_tag: str | None = None


def _version_tag() -> str:
    """The tag every cache file carries, computed on the first call."""
    global _tag
    if _tag is None:
        _tag = f"gammaq-{__version__}-{_fingerprint()}"
    return _tag


def default_cache_dir() -> str:
    env = os.environ.get("GAMMA_CACHE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "gammaq")


def _parse(path: str) -> Any:
    """The JSON document in path, or None if it cannot be read or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError):
        return None


class Cache:
    """Load/save command results under a directory."""

    def __init__(self, directory: str | None = None, enabled: bool = True):
        self.directory = directory or default_cache_dir()
        self.enabled = enabled
        self._found = False  # the last load served its file

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, f"{name}.json")

    def load(self, name: str, decode: Callable[[Any], Any]) -> Any:
        """decode() of the value stored under name, or None if the file is
        missing, stale or refused by decode (ValueError, TypeError, KeyError
        or ZeroDivisionError)."""
        self._found = False
        if not self.enabled:
            return None
        data = _parse(self._path(name))
        if not isinstance(data, dict) or data.get("version") != _version_tag() or data.get("kind") != name:
            return None
        try:
            value = decode(data["value"])
        except (ValueError, TypeError, KeyError, ZeroDivisionError):
            return None
        self._found = True
        return value

    def save(self, name: str, value: Any, encode: Callable[[Any], Any]) -> None:
        """Write encode(value) under name, unless the last load found it."""
        if not self.enabled or self._found:
            return
        os.makedirs(self.directory, exist_ok=True)
        payload = {"version": _version_tag(), "kind": name, "value": encode(value)}
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=self.directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, self._path(name))
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
