"""Persistent JSON cache of command results.

lkostka, spin-green and expand --basis p each store their result in one
file, <name>.json: L-<n> (the Q-Kostka table), Y-<n> (the spin Green table)
and expand-<family>-p-<lam>; spin-char, expand --basis Q and verify use no
cache.  Every file is {"version": <tag>, "kind": <name>, "value":
<result>}.  An L or Y value is Table.to_pool's pooled form: n, rows
and cols, values, each distinct cell once as a list of int coefficients
with the zero, [], at index 0, and grid, the index into values of every
cell; an expansion is a list of [partition, coefficient strings] terms.
The tag, gammaq-<version>-<fingerprint> from
_version_tag(), carries a sha256 over the source of every module of the
package, this one included, so a change to the layout or to any code
retires every file written before.  The tag is computed once, and hashlib
imported, when a cache is first used: the first time an enabled cache reads
a file or writes one, so a --no-cache command never hashes the source.

load(name, decode) reads, checks and decodes one file in one guarded step,
and ignores whole, to recompute rather than trust, a file that is missing,
unreadable, not JSON, not a {version, kind, value} object, of another tag or
kind, or whose value decode refuses.  save(name, value, encode) writes the
file unless that load found it, and touches no other: in one write of the
text json.dumps makes with the json module's C encoder, to a temporary file in
the cache directory, moved into place with os.replace, so a reader never
sees a partial file and two processes that compute the same result write the
same bytes.  The temporary file, under a name unique to the process, is
created with mode 0666 less the umask, as open() creates a file, so under
umask 022 every user who shares the directory can read it.  The recursion
memos (memo.py) are never stored.
"""

from __future__ import annotations

import contextlib
import json
import os
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


class Cache:
    """Load/save command results under a directory."""

    def __init__(self, directory: str | None = None, enabled: bool = True):
        self.directory = directory or default_cache_dir()
        self.enabled = enabled
        self._found = False  # the last load served its file

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, f"{name}.json")

    def load(self, name: str, decode: Callable[[Any], Any]) -> Any:
        """decode() of the value stored under name, or None: one try opens,
        parses, checks and decodes the file, and maps OSError, ValueError,
        TypeError, LookupError, ZeroDivisionError and RecursionError to None."""
        self._found = False
        if not self.enabled:
            return None
        try:
            with open(self._path(name), "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if data["version"] != _version_tag() or data["kind"] != name:
                return None
            value = decode(data["value"])
        except (OSError, ValueError, TypeError, LookupError, ZeroDivisionError, RecursionError):
            return None
        self._found = True
        return value

    def save(self, name: str, value: Any, encode: Callable[[Any], Any]) -> None:
        """Write encode(value) under name, unless the last load found it."""
        if not self.enabled or self._found:
            return
        os.makedirs(self.directory, exist_ok=True)
        payload = {"version": _version_tag(), "kind": name, "value": encode(value)}
        tmp = os.path.join(self.directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload, sort_keys=True))
            os.replace(tmp, self._path(name))
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
