"""Pins the exact stdout bytes of the table and expand commands.

tests/data/cli_stdout_sha256.json maps each command line (without
--no-cache) to the sha256 of its stdout: lkostka, spin-green and spin-char
for n = 1..7 and expand for every family/basis pair at lambda = (4,2,1),
each in all four formats.  A refactor of the tables, the renderers or the
cache must leave every digest unchanged, cold and warm, these and the
larger ones below.

tests/data/cli_stdout_large_sha256.json pins larger outputs the same way:
lkostka --n 12, spin-green and spin-char --n 10, and expand for every
family/basis pair at lambda = (5,4,2,1), each in all four formats.  These
are the first to print two-digit exponents such as t^{10} and a part ten
times, as in (1^10).

tests/data/verify_stdout_sha256.json does the same for verify: operators
for max-n 1..4, lkostka 1..9, spingreen 1..8 and tables 1..8, with the
per-suite wall times such as "(0.12s)" masked before hashing.
"""

import hashlib
import json
import re
from pathlib import Path

from gammaq.cli import _render_int_table, _render_poly_table, main
from gammaq.memo import clear_memos
from gammaq.qkostka import l_table
from gammaq.spingreen import spin_char_table, y_table

DATA = Path(__file__).parent / "data"
DIGESTS = json.loads((DATA / "cli_stdout_sha256.json").read_text())
LARGE_DIGESTS = json.loads((DATA / "cli_stdout_large_sha256.json").read_text())
VERIFY_DIGESTS = json.loads((DATA / "verify_stdout_sha256.json").read_text())
_TIMING = re.compile(r"\(\d+\.\d+s\)")


def _changed(send, digests=DIGESTS):
    changed = []
    for command, digest in digests.items():
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


def test_large_cli_stdout_bytes_are_pinned(capsys):
    def cold(argv):
        clear_memos()
        assert main(argv + ["--no-cache"]) == 0, argv
        return capsys.readouterr().out

    assert not _changed(cold, LARGE_DIGESTS)
    assert len(LARGE_DIGESTS) == 28


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
    assert not _changed(warm, LARGE_DIGESTS)


def test_json_table_writer_matches_the_json_module():
    # the renderer writes the json format itself; json.dumps is the reference
    tables = [(_render_poly_table, l_table, n) for n in range(15)]
    tables += [(_render_poly_table, y_table, n) for n in range(10)]
    tables += [(_render_int_table, spin_char_table, n) for n in range(13)]
    for render, build, n in tables:
        table = build(n)
        expected = json.dumps(table.to_json(), indent=2) + "\n"
        assert render(table, "json") == expected, (build.__name__, n)


def test_verify_stdout_bytes_are_pinned(capsys):
    def run(argv):
        assert main(argv) == 0, argv
        return _TIMING.sub("(T)", capsys.readouterr().out)

    assert not _changed(run, VERIFY_DIGESTS)
    assert len(VERIFY_DIGESTS) == 29
