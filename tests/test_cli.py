import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import gammaq
from gammaq import cli, spingreen
from gammaq.cache import Cache, default_cache_dir
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


def _one_error_line(capsys) -> str:
    """The single stderr line of a refused command, which printed nothing."""
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_usage_errors(capsys):
    for argv, expected in (
        (["lkostka"], "required: --n"),
        (["lkostka", "--n", "x"], "argument --n: invalid int value: 'x'"),
        (["spin-green", "--n", "3", "--format", "yaml"], "invalid choice: 'yaml'"),
        ([], "required: command"),
    ):
        assert main(argv) == 2, argv
        assert expected in _one_error_line(capsys)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lkostka", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gammaq lkostka")


def test_verify_has_no_format_flag(capsys):
    assert main(["verify", "--suite", "lkostka", "--max-n", "1", "--format", "json"]) == 2
    assert "--format" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("3,,1", "argument --lambda: '3,,1' is not a strict partition"),
        ("3,x", "argument --lambda: '3,x' is not a strict partition"),
        ("1,3", "argument --lambda: '1,3' is not a strict partition"),
        # the empty partition has weight 0, refused as --n 0 is
        ("", "argument --lambda: '' has weight 0"),
        ("()", "argument --lambda: '()' has weight 0"),
    ],
)
def test_lambda_errors_name_the_flag_and_the_text(capsys, text, expected):
    assert main(["expand", "--family", "G", "--lambda", text, "--basis", "Q", "--no-cache"]) == 2
    assert expected in _one_error_line(capsys)


# Python's int() also reads these, but the grammar is ASCII decimal digits.
NOT_DIGITS = [" 1_0", "1_0", "+5", "\u0663"]  # the last is ARABIC-INDIC DIGIT THREE


@pytest.mark.parametrize("text", NOT_DIGITS + [pytest.param("9" * 5000, id="5000-digits")])
@pytest.mark.parametrize("argv", [["lkostka"], ["spin-char"], ["verify", "--suite", "tables"]])
def test_counts_are_ascii_digits_only(capsys, argv, text):
    flag = "--max-n" if argv[0] == "verify" else "--n"
    assert main(argv + [flag, text, "--no-cache"]) == 2
    assert f"argument {flag}: invalid int value: {text!r}" in _one_error_line(capsys)


@pytest.mark.parametrize("text", NOT_DIGITS + ["3,1_0", "5, 1"])
def test_lambda_parts_are_ascii_digits_only(capsys, text):
    assert main(["expand", "--family", "Q", "--lambda", text, "--basis", "Q", "--no-cache"]) == 2
    err = _one_error_line(capsys)
    assert f"argument --lambda: {text!r} is not a strict partition" in err
    assert "each part must be ASCII decimal digits" in err


@pytest.mark.parametrize("argv", [["spin-char", "--n", "0"], ["verify", "--max-n", "00"]])
def test_counts_must_be_at_least_1(capsys, argv):
    assert main(argv + ["--no-cache"]) == 2
    assert f"argument {argv[1]}: must be >= 1, not '{argv[2]}'" in _one_error_line(capsys)


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
    for n in range(1, 8):
        clear_memos()
        _, first = _run(capsys, ["spin-green", "--n", str(n), "--no-cache"])
        _, second = _run(capsys, ["spin-green", "--n", str(n), "--no-cache"])
        assert first == second, n
    clear_memos()


def test_warm_cold_cache_bit_identity(tmp_path, capsys):
    for n in range(1, 8):
        cdir = str(tmp_path / f"cache{n}")
        clear_memos()
        _, cold = _run(capsys, ["spin-green", "--n", str(n), "--cache-dir", cdir])
        clear_memos()
        _, warm = _run(capsys, ["spin-green", "--n", str(n), "--cache-dir", cdir])
        # a --no-cache run on the memos the warm run left, then from cleared memos
        _, repeat = _run(capsys, ["spin-green", "--n", str(n), "--no-cache"])
        clear_memos()
        _, nocache = _run(capsys, ["spin-green", "--n", str(n), "--no-cache"])
        assert cold == warm == repeat == nocache, n
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
    clear_memos()
    assert main(["spin-green", "--n", "3", "--cache-dir", str(cdir)]) == 0
    capsys.readouterr()

    def stale(data):
        data["version"] = "other"
        data["value"]["entries"][0][0] = ["9"]

    _edit_cache_file(cdir / "Y-3.json", stale)
    clear_memos()
    _, out = _run(capsys, ["spin-green", "--n", "3", "--cache-dir", str(cdir)])
    table = Table.from_json(json.loads(out), enumerate_odd)
    assert table.entry((3,), (3,)) == TPoly([1])
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


def _value(edit):
    """The file content with edit applied to the stored table."""

    def content(data):
        edit(data["value"])
        return json.dumps(data)

    return content


# Each case maps the good cache file of lkostka --n 3 to a bad one.
MALFORMED = {
    "not an object": lambda data: "[]",
    "deeply nested": lambda data: "[" * 100000 + "]" * 100000,
    "value not a table": lambda data: json.dumps(dict(data, value=[])),
    # each one below drops the whole file, including the well-formed cells
    "cell not a list": _value(lambda v: v["entries"][0].__setitem__(0, "7")),
    "inexact cell": _value(lambda v: v["entries"][0].__setitem__(0, ["1.5"])),
    "zero denominator": _value(lambda v: v["entries"][0].__setitem__(0, ["1/0"])),
    "wrong weight": _value(lambda v: v.update(n=4, rows=[[4], [3, 1]], cols=[[4], [3, 1]])),
    "rows out of order": _value(lambda v: (v["rows"].reverse(), v["entries"].reverse())),
    "columns out of order": _value(lambda v: [x.reverse() for x in [v["cols"], *v["entries"]]]),
    "short row": _value(lambda v: v["entries"][0].pop()),
    "missing row": _value(lambda v: v["entries"].pop()),
}


@pytest.mark.parametrize("malform", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_cache_file_is_dropped(tmp_path, capsys, malform):
    clear_memos()
    _, expected = _run(capsys, ["lkostka", "--n", "3", "--no-cache"])
    Cache(str(tmp_path)).save("L-3", l_table(3), Table.to_json)
    path = tmp_path / "L-3.json"
    path.write_text(malform(json.loads(path.read_text())))
    clear_memos()
    assert main(["lkostka", "--n", "3", "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr() == (expected, "")
    clear_memos()


def test_non_integer_character_exits_1(monkeypatch, capsys):
    # every X0 value 1 makes the character at ((2,1), (3,)) one half
    monkeypatch.setattr(spingreen, "_x0", lambda lam, mu, memo: 1)
    code = main(["spin-char", "--n", "3", "--no-cache"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "error: non-integer spin character 1/2 at ((2, 1), (3,))\n"


def test_verify_ignores_the_cache(tmp_path, capsys):
    cdir = tmp_path / "cache"
    clear_memos()
    assert main(["spin-green", "--n", "3", "--cache-dir", str(cdir)]) == 0
    _edit_cache_file(cdir / "Y-3.json", lambda d: d["value"]["entries"][1].__setitem__(0, ["7"]))
    before = (cdir / "Y-3.json").read_text()
    clear_memos()
    code, out = _run(capsys, ["verify", "--suite", "tables", "--max-n", "3", "--cache-dir", str(cdir)])
    assert code == 0
    assert "[PASS] golden-table-3" in out
    assert (cdir / "Y-3.json").read_text() == before
    clear_memos()


def _fresh_python(code: str, *args: str) -> str:
    """stdout of code run by a fresh interpreter that imports this gammaq."""
    src = str(Path(gammaq.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("GAMMA_CACHE_DIR", None)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
    return out.stdout


def test_cli_import_pulls_in_neither_dataclasses_nor_inspect():
    # dataclasses imports inspect, and the two cost every command several ms
    # of start-up; the package's record types are NamedTuples instead.
    probe = "import sys, gammaq.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _fresh_python(probe) == "[]\n"


def test_table_commands_import_only_the_recursions():
    # verify with its golden tables, the vertex operators and hashlib cost a
    # fresh process about 20 ms of imports that no table command needs
    probe = textwrap.dedent("""
        import contextlib, io, sys
        from gammaq.cli import main
        CHECK_ONLY = {"gammaq.verify", "gammaq.golden", "gammaq.vertexops", "gammaq.gamma", "hashlib"}
        for command in ("lkostka", "spin-green", "spin-char"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([command, "--n", "3", "--no-cache"]) == 0
        print(sorted(CHECK_ONLY & set(sys.modules)))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["expand", "--family", "G", "--lambda", "3,1", "--basis", "p", "--no-cache"]) == 0
        print("gammaq.vertexops" in sys.modules)
    """)
    assert _fresh_python(probe) == "[]\nTrue\n"


def test_spin_char_with_a_cache_dir_imports_no_hashlib(tmp_path):
    # spin-char never opens its cache, so it never computes the fingerprint
    run = "import sys; from gammaq.cli import main; main(sys.argv[1:]); print('hashlib' in sys.modules)"
    out = _fresh_python(run, "spin-char", "--n", "3", "--format", "csv", "--cache-dir", str(tmp_path))
    assert out.endswith("\nFalse\n")
    assert not any(tmp_path.iterdir())


def test_suite_names_are_the_verify_suites():
    from gammaq import verify

    assert cli.SUITE_NAMES == tuple(verify.SUITES)


def test_cache_dir_run_writes_the_source_fingerprint(tmp_path):
    # the fingerprint is computed only when a cache is first used
    from gammaq import cache

    run = "import sys; from gammaq.cli import main; sys.exit(main(sys.argv[1:]))"
    _fresh_python(run, "lkostka", "--n", "3", "--cache-dir", str(tmp_path))
    tag = json.loads((tmp_path / "L-3.json").read_text())["version"]
    assert tag == f"gammaq-{gammaq.__version__}-{cache._fingerprint()}" == cache._version_tag()
