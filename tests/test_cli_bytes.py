"""Pins the exact stdout bytes of the table and expand commands.

tests/data/cli_stdout_sha256.json maps each command line (without
--no-cache) to the sha256 of its stdout: lkostka, spin-green and spin-char
for n = 1..7 and expand for every family/basis pair at lambda = (4,2,1),
each in all four formats.  A refactor of the tables, the renderers or the
cache must leave every digest unchanged, cold and warm.
"""

import hashlib
import json
from pathlib import Path

from gammaq.cli import main
from gammaq.memo import clear_memos

DIGESTS = json.loads((Path(__file__).parent / "data" / "cli_stdout_sha256.json").read_text())


def _changed(send):
    changed = []
    for command, digest in DIGESTS.items():
        out = send(command.split())
        if hashlib.sha256(out.encode("utf-8")).hexdigest() != digest:
            changed.append(command)
    return changed


def test_cli_stdout_bytes_are_pinned(capsys):
    def cold(argv):
        assert main(argv + ["--no-cache"]) == 0, argv
        return capsys.readouterr().out

    assert not _changed(cold)
    assert len(DIGESTS) == 100


def test_cli_stdout_bytes_are_pinned_warm(tmp_path, capsys):
    flags = ["--cache-dir", str(tmp_path / "cache")]

    def warm(argv):
        # the first send fills the cache; the second is served from it
        for _ in range(2):
            clear_memos()
            assert main(argv + flags) == 0, argv
            out = capsys.readouterr().out
        clear_memos()
        return out

    assert not _changed(warm)
