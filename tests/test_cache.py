import hashlib
import json
import shutil
from pathlib import Path

import pytest

import gammaq.cache as cache
import gammaq.qkostka as qkostka
import gammaq.spingreen as spingreen
import gammaq.vertexops as vertexops
from gammaq.cache import Cache
from gammaq.cli import main
from gammaq.memo import clear_memos
from gammaq.qkostka import Table, l_table

MEMOS = (qkostka._l_memo, spingreen._y_memo, vertexops._vacuum_memo, vertexops._creation_memo)


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_memos()
    yield
    clear_memos()


def _run(capsys, argv):
    assert main(argv) == 0, argv
    return capsys.readouterr().out


def _files(directory):
    """name -> (bytes, mtime_ns, inode) of every file in directory."""
    if not directory.exists():
        return {}
    return {
        p.name: (p.read_bytes(), p.stat().st_mtime_ns, p.stat().st_ino)
        for p in directory.iterdir()
    }


def _edit(path, edit):
    data = json.loads(path.read_text())
    edit(data["value"])
    path.write_text(json.dumps(data))


# Each command with the one file that caches its result.
COMMANDS = [
    (["lkostka", "--n", "6"], "L-6.json"),
    (["spin-green", "--n", "5"], "Y-5.json"),
    (["expand", "--family", "G", "--lambda", "4,2,1", "--basis", "Q"], "expand-G-Q-4,2,1.json"),
    (["expand", "--family", "Q", "--lambda", "4,2,1", "--basis", "Q"], "expand-Q-Q-4,2,1.json"),
    (["expand", "--family", "G", "--lambda", "4,2,1", "--basis", "p"], "expand-G-p-4,2,1.json"),
    (["expand", "--family", "Q", "--lambda", "4,2,1", "--basis", "p"], "expand-Q-p-4,2,1.json"),
]


@pytest.mark.parametrize("argv, name", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_warm_hit_is_read_only_and_computes_nothing(tmp_path, capsys, argv, name):
    expected = _run(capsys, argv + ["--no-cache"])
    clear_memos()
    assert _run(capsys, argv + ["--cache-dir", str(tmp_path)]) == expected
    before = _files(tmp_path)
    assert set(before) == {name}
    clear_memos()
    assert _run(capsys, argv + ["--cache-dir", str(tmp_path)]) == expected
    assert _files(tmp_path) == before
    assert not any(MEMOS)  # the answer came from the file


@pytest.mark.parametrize("first, second", [("spin-green", "spin-char"), ("spin-char", "spin-green")])
def test_spin_green_and_spin_char_share_the_y_table(tmp_path, capsys, first, second):
    # The Y table in a cache directory both commands use is spin-green's
    # alone: spin-char computes its characters by bar removal, so it neither
    # writes the table nor reads it, even a tampered one.
    cdir = ["--cache-dir", str(tmp_path)]
    expected = {cmd: _run(capsys, [cmd, "--n", "5", "--no-cache"]) for cmd in (first, second)}
    for cmd in (first, second):
        clear_memos()
        before = _files(tmp_path)
        assert _run(capsys, [cmd, "--n", "5"] + cdir) == expected[cmd]
        if cmd == "spin-char":
            assert _files(tmp_path) == before
            assert not spingreen._y_memo  # no Y cell was computed
        else:
            assert [p.name for p in tmp_path.iterdir()] == ["Y-5.json"]
            _edit(tmp_path / "Y-5.json", lambda t: t["entries"][1].__setitem__(0, ["3", "2"]))


def test_cache_round_trip(tmp_path):
    table = l_table(5)
    Cache(str(tmp_path)).save("L-5", table, Table.to_json)
    before = _files(tmp_path)
    warm = Cache(str(tmp_path))
    assert warm.load("L-5", Table.from_json).entries == table.entries
    warm.save("L-5", table, Table.to_json)  # found on load: nothing is written
    assert _files(tmp_path) == before
    assert Cache(str(tmp_path)).load("L-6", Table.from_json) is None


def test_failed_save_keeps_the_old_file(tmp_path, monkeypatch):
    Cache(str(tmp_path)).save("L-3", l_table(3), Table.to_json)
    before = (tmp_path / "L-3.json").read_bytes()

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"version": ')
        raise RuntimeError("disk full")

    monkeypatch.setattr(cache.json, "dump", dump_then_fail)
    with pytest.raises(RuntimeError):
        Cache(str(tmp_path)).save("L-3", l_table(3), Table.to_json)
    assert (tmp_path / "L-3.json").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["L-3.json"]


def test_tampered_cell_is_copied_into_no_later_file(tmp_path, capsys):
    cdir = ["--cache-dir", str(tmp_path)]
    _run(capsys, ["lkostka", "--n", "5"] + cdir)
    _edit(tmp_path / "L-5.json", lambda t: t["entries"][0].__setitem__(1, ["0", "7777"]))
    for argv, _ in COMMANDS + [(["lkostka", "--n", "5"], None)]:
        clear_memos()
        _run(capsys, argv + cdir)
    for lam in ("4,1", "3,2", "5"):
        clear_memos()
        _run(capsys, ["expand", "--family", "G", "--lambda", lam, "--basis", "Q"] + cdir)
    later = [p for p in tmp_path.iterdir() if p.name != "L-5.json"]
    assert len(later) == 9
    assert not [p.name for p in later if "7777" in p.read_text()]


def _recoeff(parts, coeff):
    """An edit that gives the cached term at parts the coefficient coeff."""

    def edit(terms):
        for term in terms:
            if term[0] == parts:
                term[1] = coeff

    return edit


G_P = ["expand", "--family", "G", "--lambda", "3,1", "--basis", "p", "--format", "csv"]
G_Q = ["expand", "--family", "G", "--lambda", "3,2", "--basis", "Q", "--format", "latex"]
# Edits of a cached expansion that no computation can produce.
BAD_EXPANSIONS = [
    (G_P, lambda terms: terms.append([[2, 1, 1], ["1"]])),  # not odd under basis p
    (G_P, lambda terms: terms.append([[3, 1, 1], ["1"]])),  # odd, but of weight 5
    (G_Q, list.clear),  # an empty term list
    (G_P, _recoeff([3, 1], ["0"])),  # a zero coefficient
    (G_P, lambda terms: terms.append([[3, 1], ["7"]])),  # a repeated partition
    (G_Q, _recoeff([3, 2], ["2"])),  # coefficient 2 at lambda under basis Q
    (G_Q, _recoeff([4, 1], ["1/2"])),  # a Q-Kostka coefficient that is not an integer
]


@pytest.mark.parametrize(
    "argv, edit", BAD_EXPANSIONS, ids=[f"term{i}" for i in range(len(BAD_EXPANSIONS))]
)
def test_expansion_with_a_bad_partition_is_dropped(tmp_path, capsys, argv, edit):
    expected = _run(capsys, argv + ["--no-cache"])
    _run(capsys, argv + ["--cache-dir", str(tmp_path)])
    (path,) = tmp_path.iterdir()
    _edit(path, edit)
    clear_memos()
    assert _run(capsys, argv + ["--cache-dir", str(tmp_path)]) == expected


def _set_cell(row, col, value):
    """An edit that stores value in the cached table cell (row, col)."""
    return lambda table: table["entries"][row].__setitem__(col, value)


# Non-integer cells of a cached table; every L and Y value has integer coefficients.
FRACTION_CELLS = [
    (["spin-green", "--n", "3", "--format", "csv"], _set_cell(1, 0, ["-3/2", "2"])),  # Y cell (2,1)|(3)
    (["lkostka", "--n", "5", "--format", "csv"], _set_cell(1, 2, ["1/2", "2"])),  # L cell (4,1)|(3,2)
]


@pytest.mark.parametrize("argv, edit", FRACTION_CELLS, ids=[argv[0] for argv, _ in FRACTION_CELLS])
def test_table_with_a_fraction_cell_is_dropped(tmp_path, capsys, argv, edit):
    expected = _run(capsys, argv + ["--no-cache"])
    _run(capsys, argv + ["--cache-dir", str(tmp_path)])
    (path,) = tmp_path.iterdir()
    _edit(path, edit)
    clear_memos()
    assert _run(capsys, argv + ["--cache-dir", str(tmp_path)]) == expected


def test_unwritable_cache_warns_and_keeps_the_answer(tmp_path, capsys):
    expected = _run(capsys, ["lkostka", "--n", "3", "--no-cache"])
    clear_memos()
    blocker = tmp_path / "not-a-directory"
    blocker.write_bytes(b"keep me")
    assert main(["lkostka", "--n", "3", "--cache-dir", str(blocker)]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err.startswith("warning: ") and captured.err.count("\n") == 1
    assert blocker.read_bytes() == b"keep me"


def _retag(path, tag):
    """Give the file at path another version tag and a wrong first cell."""
    data = json.loads(path.read_text())
    data["version"] = tag
    data["value"]["entries"][0][0] = ["9"]
    path.write_text(json.dumps(data))


def test_file_tagged_by_the_module_list_rule_is_ignored(tmp_path, capsys):
    # The earlier rule hashed seven named modules and tagged files "fmt2".
    named = ("partitions", "tpoly", "gamma", "vertexops", "qkostka", "spingreen", "memo")
    package = Path(cache.__file__).parent
    source = b"".join((package / f"{name}.py").read_bytes() for name in named)
    tag = "gammaq-0.1.0-fmt2-" + hashlib.sha256(source).hexdigest()[:12]
    argv = ["spin-green", "--n", "3", "--format", "csv"]
    expected = _run(capsys, argv + ["--cache-dir", str(tmp_path)])
    _retag(tmp_path / "Y-3.json", tag)
    clear_memos()
    assert _run(capsys, argv + ["--cache-dir", str(tmp_path)]) == expected


def test_fingerprint_covers_every_module(tmp_path, monkeypatch):
    package = Path(cache.__file__).parent
    copy = tmp_path / "gammaq"
    copy.mkdir()
    for path in package.glob("*.py"):
        shutil.copy(path, copy / path.name)
    monkeypatch.setattr(cache, "__file__", str(copy / "cache.py"))
    assert cache._fingerprint() in cache._version_tag()
    seen = {cache._fingerprint()}
    with open(copy / "cli.py", "a", encoding="utf-8") as fh:
        fh.write("\n")
    seen.add(cache._fingerprint())
    (copy / "extra.py").write_text("")
    seen.add(cache._fingerprint())
    assert len(seen) == 3


def test_file_without_source_fingerprint_is_ignored(tmp_path, capsys):
    expected = _run(capsys, ["lkostka", "--n", "3", "--cache-dir", str(tmp_path)])
    _retag(tmp_path / "L-3.json", "gammaq-0.1.0-fmt2")
    clear_memos()
    assert _run(capsys, ["lkostka", "--n", "3", "--cache-dir", str(tmp_path)]) == expected
    assert json.loads((tmp_path / "L-3.json").read_text())["version"] == cache._version_tag()
