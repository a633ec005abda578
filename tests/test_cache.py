import contextlib
import copy
import hashlib
import io
import json
import os
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import gammaq.cache as cache
import gammaq.qkostka as qkostka
import gammaq.spingreen as spingreen
import gammaq.vertexops as vertexops
from gammaq.cache import Cache
from gammaq.cli import main
from gammaq.memo import clear_memos
from gammaq.partitions import enumerate_odd, enumerate_strict
from gammaq.qkostka import Table, l_table
from gammaq.spingreen import y_table
from gammaq.tpoly import TPoly

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


def _value(edit):
    """A file edit, from the parsed file to new file text, that applies edit
    to the stored value in place."""

    def text(data):
        edit(data["value"])
        return json.dumps(data)

    return text


def _edit(path, edit):
    """Apply edit to the value stored in the cache file at path."""
    path.write_text(_value(edit)(json.loads(path.read_text())))


def _set_cell(row, col, value):
    """An edit that appends value to the cached table's pool and points the
    cell (row, col) at it, so no other cell that shared its value changes."""

    def edit(table):
        table["values"].append(value)
        table["grid"][row][col] = len(table["values"]) - 1

    return edit


def _set_index(row, col, index):
    """An edit that stores index as the pool index of the cached table cell
    (row, col)."""
    return lambda table: table["grid"][row].__setitem__(col, index)


# Each command with the one file that caches its result.
COMMANDS = [
    (["lkostka", "--n", "6"], "L-6.json"),
    (["spin-green", "--n", "5"], "Y-5.json"),
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
            _edit(tmp_path / "Y-5.json", _set_cell(1, 0, [3, 2]))


def test_cache_round_trip(tmp_path):
    table = l_table(5)
    Cache(str(tmp_path)).save("L-5", table, Table.to_pool)
    before = _files(tmp_path)
    warm = Cache(str(tmp_path))
    assert warm.load("L-5", Table.from_pool).entries == table.entries
    warm.save("L-5", table, Table.to_pool)  # found on load: nothing is written
    assert _files(tmp_path) == before
    assert Cache(str(tmp_path)).load("L-6", Table.from_pool) is None


@pytest.mark.parametrize(
    "kind, build, columns, top", [("L", l_table, enumerate_strict, 14), ("Y", y_table, enumerate_odd, 10)]
)
def test_pooled_round_trip_stores_each_distinct_cell_once(tmp_path, kind, build, columns, top):
    for n in range(1, top + 1):
        name, table = f"{kind}-{n}", build(n)
        Cache(str(tmp_path)).save(name, table, Table.to_pool)
        stored = json.loads((tmp_path / f"{name}.json").read_text())["value"]
        assert stored["values"][0] == []
        assert len(stored["values"]) == len(set(table.entries.values())) + 1, n
        decoded = Cache(str(tmp_path)).load(name, lambda data: Table.from_pool(data, columns))
        assert decoded.entries == table.entries, n
        shared = {}  # the first decoded object of each value
        assert all(shared.setdefault(v, v) is v for v in decoded.entries.values()), n


def test_pooled_form_holds_integer_polynomials_only():
    with pytest.raises(ValueError):
        Table(1, {((1,), (1,)): TPoly([Fraction(1, 2)])}).to_pool()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_saved_file_gets_the_mode_the_umask_gives(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        Cache(str(tmp_path)).save("L-3", l_table(3), Table.to_pool)
    finally:
        os.umask(old)
    assert (tmp_path / "L-3.json").stat().st_mode & 0o777 == mode
    assert [p.name for p in tmp_path.iterdir()] == ["L-3.json"]


def test_failed_save_keeps_the_old_file(tmp_path, monkeypatch):
    Cache(str(tmp_path)).save("L-3", l_table(3), Table.to_pool)
    before = (tmp_path / "L-3.json").read_bytes()
    fdopen = os.fdopen

    def open_half_writing(*args, **kwargs):
        """A file whose write writes half its text, then fails."""
        fh = fdopen(*args, **kwargs)
        write = fh.write

        def write_half_then_fail(text):
            write(text[: len(text) // 2])
            raise RuntimeError("disk full")

        fh.write = write_half_then_fail
        return fh

    monkeypatch.setattr(cache.os, "fdopen", open_half_writing)
    with pytest.raises(RuntimeError):
        Cache(str(tmp_path)).save("L-3", l_table(3), Table.to_pool)
    assert (tmp_path / "L-3.json").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["L-3.json"]


def test_tampered_cell_is_copied_into_no_later_file(tmp_path, capsys):
    cdir = ["--cache-dir", str(tmp_path)]
    _run(capsys, ["lkostka", "--n", "5"] + cdir)
    _edit(tmp_path / "L-5.json", _set_cell(0, 1, [0, 7777]))
    for argv, _ in COMMANDS + [(["lkostka", "--n", "5"], None)]:
        clear_memos()
        _run(capsys, argv + cdir)
    later = [p for p in tmp_path.iterdir() if p.name != "L-5.json"]
    assert len(later) == 4
    assert not [p.name for p in later if "7777" in p.read_text()]


def _recoeff(parts, coeff):
    """An edit that gives the cached term at parts the coefficient coeff."""

    def edit(terms):
        for term in terms:
            if term[0] == parts:
                term[1] = coeff

    return edit


def _restamp(**fields):
    """A file edit that sets the file's top-level fields and a wrong first cell."""

    def text(data):
        _set_cell(0, 0, [9])(data["value"])
        return json.dumps(dict(data, **fields))

    return text


def _module_list_tag():
    """The tag of the earlier rule, which hashed seven named modules."""
    named = ("partitions", "tpoly", "gamma", "vertexops", "qkostka", "spingreen", "memo")
    package = Path(cache.__file__).parent
    source = b"".join((package / f"{name}.py").read_bytes() for name in named)
    return "gammaq-0.1.0-fmt2-" + hashlib.sha256(source).hexdigest()[:12]


L_1 = ["lkostka", "--n", "1"]
L_3 = ["lkostka", "--n", "3"]
L_5 = ["lkostka", "--n", "5", "--format", "csv"]
Y_3 = ["spin-green", "--n", "3", "--format", "csv"]
G_P = ["expand", "--family", "G", "--lambda", "3,1", "--basis", "p", "--format", "csv"]
# Each row: a command, and an edit of the file it wrote, from the parsed file
# to new file text, after which the command must refuse the file.  A refused
# file is dropped whole, its well-formed cells included.
REFUSED = [
    pytest.param(L_3, lambda data: "[]", id="not an object"),
    pytest.param(L_3, lambda data: "[" * 100000 + "]" * 100000, id="deeply nested"),
    pytest.param(L_3, lambda data: json.dumps(dict(data, value=[])), id="value not a table"),
    pytest.param(L_3, _value(_set_cell(0, 0, "7")), id="cell not a list"),
    pytest.param(L_3, _value(_set_cell(0, 0, [1.5])), id="inexact cell"),
    pytest.param(L_3, _value(_set_cell(0, 0, ["1/0"])), id="zero denominator"),
    pytest.param(L_3, _value(lambda v: v.update(n=4, rows=[[4], [3, 1]], cols=[[4], [3, 1]])),
                 id="wrong weight"),
    # True == 1 passes the command's weight check; only the int check refuses it
    pytest.param(L_1, _value(lambda v: v.update(n=True)), id="bool weight"),
    pytest.param(L_3, _value(lambda v: (v["rows"].reverse(), v["grid"].reverse())),
                 id="rows out of order"),
    pytest.param(L_3, _value(lambda v: [x.reverse() for x in [v["cols"], *v["grid"]]]),
                 id="columns out of order"),
    pytest.param(L_3, _value(lambda v: v["grid"][0].pop()), id="short row"),
    pytest.param(L_3, _value(lambda v: v["grid"].pop()), id="missing row"),
    # the zero cell (2,1)|(3) holds index 0, the one index whose cell is not
    # stored; a falsy stand-in for that index is still checked and refused
    pytest.param(L_3, _value(_set_index(1, 0, "")), id="zero cell as empty string"),
    pytest.param(L_3, _value(_set_index(1, 0, {})), id="zero cell as empty object"),
    pytest.param(L_3, _value(_set_cell(1, 0, 1)), id="cell of a number"),
    pytest.param(L_3, _value(_set_cell(1, 0, [1, None])), id="cell with a null"),
    # an index that does not name a pool value: L-3's pool is [[], [1], [0, 2]],
    # so each of these would read a value if taken as an index
    pytest.param(L_3, _value(_set_index(0, 0, -1)), id="negative index"),
    pytest.param(L_3, _value(_set_index(1, 0, True)), id="bool index"),
    pytest.param(L_3, _value(_set_index(0, 0, 1.0)), id="non-int index"),
    pytest.param(L_3, _value(lambda v: v["grid"][0].__setitem__(0, len(v["values"]))),
                 id="index past the end"),
    # a pool value that is not an int list in normal form
    pytest.param(L_3, _value(_set_cell(0, 0, ["1"])), id="string coefficient"),
    pytest.param(L_3, _value(_set_cell(0, 0, [True])), id="bool coefficient"),
    pytest.param(L_3, _value(_set_cell(0, 0, [1, 0])), id="trailing zero"),
    pytest.param(L_3, _value(lambda v: v["values"][0].append(1)), id="nonzero value at index 0"),
    pytest.param(L_3, _value(lambda v: v["values"].clear()), id="empty pool"),
    # every L and Y value has integer coefficients
    pytest.param(Y_3, _value(_set_cell(1, 0, ["-3/2", "2"])), id="Y fraction cell"),  # (2,1)|(3)
    pytest.param(L_5, _value(_set_cell(1, 2, ["1/2", "2"])), id="L fraction cell"),  # (4,1)|(3,2)
    # terms of an expansion that no computation can produce
    pytest.param(G_P, _value(lambda terms: terms.append([[2, 1, 1], ["1"]])), id="term not odd"),
    pytest.param(G_P, _value(lambda terms: terms.append([[3, 1, 1], ["1"]])), id="term of weight 5"),
    pytest.param(G_P, _value(list.clear), id="empty term list"),
    pytest.param(G_P, _value(_recoeff([3, 1], ["0"])), id="zero coefficient"),
    pytest.param(G_P, _value(lambda terms: terms.append([[3, 1], ["7"]])), id="repeated partition"),
    # a file stamped for another code version or another result
    pytest.param(Y_3, _restamp(version="other"), id="another version"),
    pytest.param(Y_3, _restamp(version=_module_list_tag()), id="module-list tag"),
    pytest.param(L_3, _restamp(version="gammaq-0.1.0-fmt2"), id="no source fingerprint"),
    pytest.param(L_3, _restamp(kind="L-4"), id="another kind"),
    pytest.param(
        Y_3, _value(_set_cell(1, 0, [7])), id="well-formed wrong value",  # true value 2t-2
        marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 3: cached values are not checked on load"),
    ),
]


@pytest.mark.parametrize("argv, edit", REFUSED)
def test_refused_file_is_recomputed_and_rewritten(tmp_path, capsys, argv, edit):
    expected = _run(capsys, argv + ["--no-cache"])
    clear_memos()
    _run(capsys, argv + ["--cache-dir", str(tmp_path)])
    (path,) = tmp_path.iterdir()
    written = path.read_bytes()
    path.write_text(edit(json.loads(written)))
    clear_memos()
    assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr() == (expected, "")
    assert path.read_bytes() == written


def _send(argv):
    """(exit code, stdout, stderr) of main(argv) on fresh memos."""
    clear_memos()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _paths(node, path=()):
    """The path of every node of a parsed JSON document, the root first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_DROP = object()


def _edited(doc, path, value=_DROP) -> bytes:
    """The bytes Cache.save writes for a copy of doc whose node at path is
    value, or is dropped from its object when no value is given."""
    if not path:
        return json.dumps(value, sort_keys=True).encode("utf-8")
    doc = copy.deepcopy(doc)
    parent = _at(doc, path[:-1])
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc, sort_keys=True).encode("utf-8")


# One value of each JSON type, to stand in for a node of another type.
JSON_VALUES = [None, True, 3, 1.5, "3", ["3"], {"n": 3}]


def _damaged(written: bytes):
    """A strategy for the bytes of a damaged copy of the cache file written:
    truncated, one bit flipped, one value of another type, or one key dropped."""
    doc = json.loads(written)
    paths = list(_paths(doc))
    return st.one_of(
        st.integers(0, len(written) - 1).map(lambda k: written[:k]),
        st.tuples(st.integers(0, len(written) - 1), st.integers(0, 7)).map(
            lambda ib: written[: ib[0]] + bytes([written[ib[0]] ^ 1 << ib[1]]) + written[ib[0] + 1 :]
        ),
        st.tuples(st.sampled_from(paths), st.sampled_from(JSON_VALUES))
        .filter(lambda pv: type(_at(doc, pv[0])) is not type(pv[1]))
        .map(lambda pv: _edited(doc, *pv)),
        st.sampled_from([path for path in paths if path and type(path[-1]) is str]).map(
            lambda path: _edited(doc, path)
        ),
    )


@pytest.mark.parametrize("argv", [L_3, Y_3, G_P], ids=["L", "Y", "expand-G-p"])
def test_any_damaged_cache_file_is_refused_or_served_without_error(argv):
    # A refused file is rewritten, and stdout is the --no-cache stdout.  A
    # damaged file that still decodes is served as it stands: a well-formed
    # wrong value is only counted here (ROADMAP item 3 checks values on load).
    code, expected, err = _send(argv + ["--no-cache"])
    assert (code, err) == (0, "")
    with tempfile.TemporaryDirectory() as directory:
        assert _send(argv + ["--cache-dir", directory])[0] == 0
        (path,) = Path(directory).iterdir()
        name, written = path.name, path.read_bytes()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_damaged(written))
    def check(data):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / name
            path.write_bytes(data)
            code, out, err = _send(argv + ["--cache-dir", directory])
            assert (code, err) == (0, ""), data
            if path.read_bytes() == written:
                event("refused and rewritten")
                assert out == expected, data
            else:
                event("served" if out == expected else "served a well-formed wrong value")

    check()


def test_verify_ignores_the_cache(tmp_path, capsys):
    _run(capsys, ["spin-green", "--n", "3", "--cache-dir", str(tmp_path)])
    _edit(tmp_path / "Y-3.json", _set_cell(1, 0, [7]))
    before = (tmp_path / "Y-3.json").read_bytes()
    clear_memos()
    out = _run(capsys, ["verify", "--suite", "tables", "--max-n", "3", "--cache-dir", str(tmp_path)])
    assert "[PASS] golden-table-3" in out
    assert (tmp_path / "Y-3.json").read_bytes() == before


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
