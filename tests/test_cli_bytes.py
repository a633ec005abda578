"""Pins the exact stdout bytes of the table and expand commands.

tests/data/cli_stdout_sha256.json maps each command line (without
--no-cache) to the sha256 of its stdout: lkostka, spin-green and spin-char
for n = 1..7 and expand for every family/basis pair at lambda = (4,2,1),
each in all four formats.  A refactor of the tables or the renderers must
leave every digest unchanged.
"""

import hashlib
import json
from pathlib import Path

from gammaq.cli import main

DIGESTS = json.loads((Path(__file__).parent / "data" / "cli_stdout_sha256.json").read_text())


def test_cli_stdout_bytes_are_pinned(capsys):
    changed = []
    for command, digest in DIGESTS.items():
        assert main(command.split() + ["--no-cache"]) == 0, command
        out = capsys.readouterr().out
        if hashlib.sha256(out.encode("utf-8")).hexdigest() != digest:
            changed.append(command)
    assert not changed
    assert len(DIGESTS) == 100
