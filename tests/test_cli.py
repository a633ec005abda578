import json

import pytest

import gammaq.qkostka as qkostka
from gammaq.cache import VERSION_TAG, Cache, default_cache_dir
from gammaq.cli import main
from gammaq.golden import golden_y_polys
from gammaq.memo import clear_memos
from gammaq.partitions import enumerate_odd
from gammaq.qkostka import Table, l_table
from gammaq.tpoly import TPoly


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_lkostka_json(capsys):
    code, out = _run(capsys, ["lkostka", "--n", "5", "--no-cache"])
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 5
    assert len(data["rows"]) == len(data["cols"]) == 3
    table = Table.from_json(data)
    assert table.entries == l_table(5).entries  # parse-back round trip
    assert table.entry((4, 1), (3, 2)) == TPoly([0, 2])


def test_spin_green_json_matches_golden(capsys):
    code, out = _run(capsys, ["spin-green", "--n", "3", "--no-cache"])
    assert code == 0
    table = Table.from_json(json.loads(out), enumerate_odd)
    golden = golden_y_polys(3)
    for (lam, mu), poly in golden.items():
        assert table.entry(lam, mu) == poly


def test_spin_char_matrix(capsys):
    code, out = _run(capsys, ["spin-char", "--n", "4", "--no-cache"])
    assert code == 0
    data = json.loads(out)
    assert data["entries"] == [[1, 2], [-1, 4]]


def test_expand_g_in_q_latex(capsys):
    code, out = _run(
        capsys,
        ["expand", "--family", "G", "--lambda", "3,2", "--basis", "Q",
         "--format", "latex", "--no-cache"],
    )
    assert code == 0
    assert out.strip() == "$G_{(3,2)} = Q_{(3,2)} + 2tQ_{(4,1)} + 2t^{2}Q_{(5)}$"


def test_expand_q_in_p(capsys):
    code, out = _run(
        capsys,
        ["expand", "--family", "Q", "--lambda", "1", "--basis", "p", "--no-cache"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [{"partition": [1], "coeff": ["2"]}]


def test_expand_one_row_trivial(capsys):
    code, out = _run(
        capsys,
        ["expand", "--family", "G", "--lambda", "5", "--basis", "Q", "--no-cache"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [{"partition": [5], "coeff": ["1"]}]


def test_formats_smoke(capsys):
    for fmt in ("csv", "latex", "markdown"):
        code, out = _run(capsys, ["spin-green", "--n", "4", "--format", fmt, "--no-cache"])
        assert code == 0 and out
    code, out = _run(capsys, ["spin-char", "--n", "3", "--format", "csv", "--no-cache"])
    assert code == 0
    assert out.splitlines()[0] == "lambda\\mu,3,\"1,1,1\""


def test_latex_layout_is_published_orientation(capsys):
    code, out = _run(capsys, ["spin-green", "--n", "3", "--format", "latex", "--no-cache"])
    assert code == 0
    lines = out.splitlines()
    assert "$\\mu\\backslash\\lambda$ & $(3)$ & $(2,1)$ \\\\" in lines
    assert "$(1^3)$ & $1$ & $2t+1$ \\\\" in lines


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["lkostka"])  # missing --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["spin-green", "--n", "3", "--format", "yaml"])
    assert exc.value.code == 2


def test_verify_has_no_format_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "lkostka", "--max-n", "1", "--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_domain_errors_exit_2(capsys):
    assert main(["lkostka", "--n", "0", "--no-cache"]) == 2
    assert main(["expand", "--family", "G", "--lambda", "3,3", "--basis", "Q",
                 "--no-cache"]) == 2
    assert main(["verify", "--suite", "tables", "--max-n", "0", "--no-cache"]) == 2
    capsys.readouterr()


def test_verify_tables(capsys):
    code, out = _run(capsys, ["verify", "--suite", "tables", "--max-n", "7", "--no-cache"])
    assert code == 0
    assert "suite tables:" in out
    assert "0 failed" in out


def test_verify_small_all(capsys):
    code, out = _run(capsys, ["verify", "--suite", "operators", "--max-n", "2", "--no-cache"])
    assert code == 0
    assert "[PASS] clifford" in out


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, _ = _run(capsys, ["lkostka", "--n", "4", "--out", str(target), "--no-cache"])
    assert code == 0
    assert json.loads(target.read_text())["n"] == 4


def test_determinism(capsys):
    _, first = _run(capsys, ["spin-green", "--n", "6", "--no-cache"])
    _, second = _run(capsys, ["spin-green", "--n", "6", "--no-cache"])
    assert first == second


def test_warm_cold_cache_bit_identity(tmp_path, capsys):
    cdir = str(tmp_path / "cache")
    for n in range(1, 8):
        clear_memos()
        _, cold = _run(capsys, ["spin-green", "--n", str(n), "--cache-dir", cdir])
        clear_memos()
        _, warm = _run(capsys, ["spin-green", "--n", str(n), "--cache-dir", cdir])
        assert cold == warm, n
        clear_memos()
        _, nocache = _run(capsys, ["spin-green", "--n", str(n), "--no-cache"])
        assert cold == nocache, n
    clear_memos()


def test_warm_cold_cache_lkostka(tmp_path, capsys):
    cdir = str(tmp_path / "cache")
    clear_memos()
    _, cold = _run(capsys, ["lkostka", "--n", "7", "--cache-dir", cdir])
    clear_memos()
    _, warm = _run(capsys, ["lkostka", "--n", "7", "--cache-dir", cdir])
    assert cold == warm
    clear_memos()


def test_stale_cache_version_is_ignored(tmp_path, capsys):
    cdir = tmp_path / "cache"
    cdir.mkdir()
    (cdir / "Y.json").write_text('{"version": "other", "kind": "Y", "entries": {"3|3": ["9"]}}')
    clear_memos()
    _, out = _run(capsys, ["spin-green", "--n", "3", "--cache-dir", str(cdir)])
    table = Table.from_json(json.loads(out), enumerate_odd)
    assert table.entry((3,), (3,)) == TPoly([1])
    clear_memos()


def test_cache_roundtrip_seeds_memo(tmp_path):
    cdir = str(tmp_path / "cache")
    clear_memos()
    l_table(5)
    cache = Cache(cdir)
    cache.save()
    clear_memos()
    assert not qkostka._l_memo
    Cache(cdir).load()
    assert qkostka._l_memo[((4, 1), (3, 2))] == TPoly([0, 2])
    clear_memos()


def test_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("GAMMA_CACHE_DIR", str(tmp_path / "envcache"))
    assert default_cache_dir() == str(tmp_path / "envcache")
    monkeypatch.delenv("GAMMA_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == str(tmp_path / "xdg" / "gammaq")


def _edit_cache_file(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


@pytest.mark.parametrize(
    "content",
    [
        "[]",
        json.dumps({"version": VERSION_TAG, "kind": "L", "entries": []}),
        # one bad key drops the whole file, including the well-formed (wrong) cell
        json.dumps({"version": VERSION_TAG, "kind": "L", "entries": {"3|2,1": ["9"], "3,x|2,1": ["1"]}}),
        json.dumps({"version": VERSION_TAG, "kind": "L", "entries": {"3|2,1": "7"}}),
        json.dumps({"version": VERSION_TAG, "kind": "L", "entries": {"3|2,1": ["1.5"]}}),
        json.dumps({"version": VERSION_TAG, "kind": "L", "entries": {"3|2,1": ["1/0"]}}),
    ],
)
def test_malformed_cache_file_is_dropped(tmp_path, capsys, content):
    clear_memos()
    _, expected = _run(capsys, ["lkostka", "--n", "3", "--no-cache"])
    cdir = tmp_path / "cache"
    cdir.mkdir()
    (cdir / "L.json").write_text(content)
    clear_memos()
    code, out = _run(capsys, ["lkostka", "--n", "3", "--cache-dir", str(cdir)])
    assert code == 0
    assert out == expected
    clear_memos()


def test_non_integer_character_exits_1(tmp_path, capsys):
    cdir = tmp_path / "cache"
    clear_memos()
    assert main(["spin-char", "--n", "3", "--cache-dir", str(cdir)]) == 0
    _edit_cache_file(cdir / "Y.json", lambda d: d["entries"].update({"2,1|3": ["1", "5"]}))
    clear_memos()
    code = main(["spin-char", "--n", "3", "--cache-dir", str(cdir)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: non-integer spin character") and err.count("\n") == 1
    clear_memos()


def test_verify_ignores_the_cache(tmp_path, capsys):
    cdir = tmp_path / "cache"
    clear_memos()
    assert main(["spin-green", "--n", "3", "--cache-dir", str(cdir)]) == 0
    _edit_cache_file(cdir / "Y.json", lambda d: d["entries"].update({"2,1|3": ["7"]}))
    before = (cdir / "Y.json").read_text()
    clear_memos()
    code, out = _run(capsys, ["verify", "--suite", "tables", "--max-n", "3", "--cache-dir", str(cdir)])
    assert code == 0
    assert "[PASS] golden-table-3" in out
    assert (cdir / "Y.json").read_text() == before
    clear_memos()
