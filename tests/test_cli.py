import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gammaq
from gammaq import cli, spingreen
from gammaq.cache import default_cache_dir
from gammaq.cli import main
from gammaq.memo import clear_memos
from gammaq.partitions import enumerate_strict
from gammaq.qkostka import l_table
from gammaq.spingreen import spin_char_table, y_table
from gammaq.tpoly import ONE, ZERO, TPoly


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
    assert data == l_table(5).to_json()
    assert data["entries"][data["rows"].index([4, 1])][data["cols"].index([3, 2])] == ["0", "2"]


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


@pytest.mark.parametrize("build", [l_table, spin_char_table], ids=["L", "characters"])
def test_each_distinct_cell_is_written_once(build):
    table = build(16)
    written = []

    def spy(value):
        written.append(value)
        return str(value)

    grid = table.layout(spy)
    assert len(written) == len(set(written))
    assert set(written) == {table.zero, *table.entries.values()}
    assert len(set(table.entries.values())) < len(table.entries)  # so some cell is not written again
    assert grid == [[str(table.entry(r, c)) for c in table.cols()] for r in table.rows()]


def _split_latex(p):
    # the LaTeX form by another route: str(p) with each exponent braced by
    # one pass over the text
    out, *powers = str(p).split("t^")
    for rest in powers:
        tail = rest.lstrip("0123456789")
        out += "t^{" + rest[: len(rest) - len(tail)] + "}" + tail
    return out


def test_poly_latex_equals_the_split_form():
    cells = {ZERO, ONE}
    for n in range(17):
        cells.update(l_table(n).entries.values())
    for n in range(11):
        cells.update(y_table(n).entries.values())
    cells.update([
        TPoly([Fraction(-1, 5), Fraction(2, 3)]),
        TPoly([0, 0, Fraction(7, 2), 0, 0, 0, 0, 0, 0, 0, -1]),
        TPoly([Fraction(1, 3)] * 12),
    ])
    assert len(cells) > 300
    for p in cells:
        assert cli._poly_latex(p) == _split_latex(p), p


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
    for command in ("spin-green", "lkostka"):
        for n in range(1, 8):
            cdir = str(tmp_path / f"{command}{n}")
            clear_memos()
            _, cold = _run(capsys, [command, "--n", str(n), "--cache-dir", cdir])
            clear_memos()
            _, warm = _run(capsys, [command, "--n", str(n), "--cache-dir", cdir])
            # a --no-cache run on the memos the warm run left, then from cleared memos
            _, repeat = _run(capsys, [command, "--n", str(n), "--no-cache"])
            clear_memos()
            _, nocache = _run(capsys, [command, "--n", str(n), "--no-cache"])
            assert cold == warm == repeat == nocache, (command, n)
    clear_memos()


def test_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("GAMMA_CACHE_DIR", str(tmp_path / "envcache"))
    assert default_cache_dir() == str(tmp_path / "envcache")
    monkeypatch.delenv("GAMMA_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == str(tmp_path / "xdg" / "gammaq")


def test_non_integer_character_exits_1(monkeypatch, capsys):
    # every lam loses its whole weight as one bar with coefficient 1, so
    # X0(., (3,)) is 1 and the character at ((2,1), (3,)) is one half
    monkeypatch.setattr(spingreen, "_bars", lambda lam, r: [((), 1)])
    code = main(["spin-char", "--n", "3", "--no-cache"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "error: non-integer spin character 1/2 at ((2, 1), (3,))\n"


@pytest.mark.parametrize(
    "command, error",
    [("cmd_spin_green", MemoryError), ("cmd_lkostka", RecursionError("maximum recursion depth exceeded"))],
)
def test_an_exhausted_process_exits_1_with_one_line(monkeypatch, capsys, command, error):
    # raised by a stand-in command: nothing is allocated or recursed for real
    def exhausted(args):
        raise error

    monkeypatch.setattr(cli, command, exhausted)
    name = command[len("cmd_"):].replace("_", "-")
    code = main([name, "--n", "30", "--no-cache"])
    out, err = capsys.readouterr()
    kind = error.__name__ if isinstance(error, type) else type(error).__name__
    assert code == 1 and out == ""
    assert err == f"error: {kind}: the computation is too large for this process\n"


def test_an_internal_index_error_escapes_main(monkeypatch):
    # no input reaches an IndexError, so one is a bug, never a usage error
    def broken(args):
        raise IndexError("list index out of range")

    monkeypatch.setattr(cli, "cmd_spin_char", broken)
    with pytest.raises(IndexError):
        main(["spin-char", "--n", "3", "--no-cache"])


def _fresh_python(code: str, *args: str, **env_vars: str) -> str:
    """stdout of code run by a fresh interpreter that imports this gammaq,
    with env_vars added to its environment."""
    src = str(Path(gammaq.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **env_vars)
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
    # spin-char and expand --basis Q never open their cache, so neither computes the fingerprint
    run = textwrap.dedent("""
        import sys
        from gammaq.cli import main
        cache_dir = ["--cache-dir", sys.argv[1]]
        assert main(["spin-char", "--n", "3", "--format", "csv"] + cache_dir) == 0
        assert main(["expand", "--family", "G", "--lambda", "3,1", "--basis", "Q"] + cache_dir) == 0
        print("hashlib" in sys.modules)
    """)
    assert _fresh_python(run, str(tmp_path)).endswith("\nFalse\n")
    assert not any(tmp_path.iterdir())


def test_suite_names_are_the_verify_suites():
    # cli writes the names out rather than import verify to build its parser
    from gammaq import verify

    assert cli.SUITE_NAMES == tuple(verify.SUITES)


def test_cache_dir_run_writes_the_source_fingerprint(tmp_path):
    # the fingerprint is computed only when a cache is first used
    from gammaq import cache

    run = "import sys; from gammaq.cli import main; sys.exit(main(sys.argv[1:]))"
    _fresh_python(run, "lkostka", "--n", "3", "--cache-dir", str(tmp_path))
    tag = json.loads((tmp_path / "L-3.json").read_text())["version"]
    assert tag == f"gammaq-{gammaq.__version__}-{cache._fingerprint()}" == cache._version_tag()


# ------------------------------------------ many main calls in one process


def _send(argv):
    """(exit code, stdout, stderr) of main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_main_calls_the_cmd_function_bound_when_it_is_called(monkeypatch):
    assert _send(["lkostka", "--n", "2", "--no-cache"])[0] == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_lkostka", lambda args: calls.append(args.n) or 0)
    assert _send(["lkostka", "--n", "3", "--no-cache"]) == (0, "", "")
    assert calls == [3]


def test_main_builds_one_parser_and_build_parser_a_new_one_each_call(monkeypatch):
    assert cli.build_parser() is not cli.build_parser()
    assert _send(["spin-char", "--n", "2", "--no-cache"])[0] == 0

    def second_build():
        raise AssertionError("main built its parser again")

    monkeypatch.setattr(cli, "build_parser", second_build)
    assert _send(["spin-char", "--n", "3", "--no-cache"])[0] == 0


# A grammar of command lines: every flag of every command, each with good
# values and refused ones.  No good count is above 8, and verify always gets
# --max-n of at most 2, since its default of 5 takes seconds.


def _mostly(good, refused):
    """A good value 3 times in 4, else a refused one."""
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(refused) if k == 3 else good)


_BAD_COUNTS = ["0", "00", "-3", "x", "", "1_0", "+5", " 2", "2.0", "\u0663"]
_COUNT = _mostly(st.integers(1, 8).map(str), _BAD_COUNTS)
_FORMAT = _mostly(st.sampled_from(cli.FORMATS), ["yaml", "", "JSON"])
_STRICT = [",".join(map(str, lam)) for k in range(1, 9) for lam in enumerate_strict(k)]
_TABLE_FLAGS = {"--n": _COUNT, "--format": _FORMAT}
_FLAGS = {
    "lkostka": _TABLE_FLAGS,
    "spin-green": _TABLE_FLAGS,
    "spin-char": _TABLE_FLAGS,
    "expand": {
        "--family": _mostly(st.sampled_from("GQ"), ["P", ""]),
        "--lambda": _mostly(st.sampled_from(_STRICT), ["3,,1", "1,3", "3,3", "", "()", "4,x", "-2", "5,"]),
        "--basis": _mostly(st.sampled_from("Qp"), ["s"]),
        "--format": _FORMAT,
    },
    "verify": {
        "--suite": _mostly(st.sampled_from(("all",) + cli.SUITE_NAMES), ["bogus"]),
        "--max-n": _mostly(st.sampled_from(["1", "2"]), _BAD_COUNTS),
    },
}
_STRAYS = ["--bogus", "--format", "-x", "stray", "--n"]


@st.composite
def _argvs(draw, directory):
    rarely = lambda: draw(st.integers(0, 7)) == 7
    command = draw(st.sampled_from(sorted(_FLAGS)))
    groups = [
        [flag, draw(values)]
        for flag, values in _FLAGS[command].items()
        if flag == "--max-n" or not rarely()
    ]
    if rarely():
        groups.append([draw(st.sampled_from(_STRAYS))])
    if rarely():  # a file, or a directory that cannot be opened as one
        groups.append(["--out", draw(st.sampled_from([os.path.join(directory, "out.txt"), directory]))])
    name = draw(st.sampled_from(["bogus", "", command.upper()])) if rarely() else command
    cache = draw(st.sampled_from([["--no-cache"], ["--cache-dir", os.path.join(directory, "cache")]]))
    return [name] + [word for group in draw(st.permutations(groups)) for word in group] + cache


def test_any_command_line_exits_0_1_or_2_with_at_most_one_stderr_line():
    with tempfile.TemporaryDirectory() as directory:

        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(_argvs(directory))
        def check(argv):
            code, _, err = _send(argv)
            assert code in (0, 1, 2), argv
            assert err.count("\n") <= 1 and err[-1:] in ("", "\n"), (argv, err)
            if code == 2:
                assert err.startswith("error: "), (argv, err)

        check()


DIGESTS = json.loads((Path(__file__).parent / "data" / "cli_stdout_sha256.json").read_text())
REFUSED = [
    "spin-green --n 3 --format yaml",
    "lkostka --format csv",
    "expand --family G --lambda 3,,1 --basis Q",
    "spin-char --n 3 --bogus",
]


def test_any_run_order_prints_the_pinned_stdout_and_the_fresh_process_error():
    # each refused line's stderr and exit code as a fresh process prints them
    fresh = "import sys; from gammaq.cli import main; sys.stderr = sys.stdout; print(main(sys.argv[1:]))"
    expected = {line: _fresh_python(fresh, *line.split(), "--no-cache") for line in REFUSED}
    assert all(out.endswith("\n2\n") and out.count("\n") == 2 for out in expected.values()), expected

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(sorted(DIGESTS) + REFUSED), min_size=2, max_size=40))
    def check(lines):
        for line in lines:  # one process, shared memos, no clear_memos()
            code, out, err = _send(line.split() + ["--no-cache"])
            if line in expected:
                assert out == "" and f"{err}{code}\n" == expected[line], line
            else:
                assert (code, err) == (0, ""), line
                assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[line], line

    check()


def test_stdout_does_not_depend_on_the_hash_seed():
    # the seed moves str and bytes hashes, not those of int tuples: this
    # guards output that iterates over a set or dict keyed by strings
    run = textwrap.dedent("""
        import sys
        from gammaq.cli import main
        for line in sys.argv[1:]:
            assert main(line.split() + ["--no-cache"]) == 0, line
    """)
    lines = ["spin-green --n 6", "lkostka --n 7", "spin-char --n 7",
             "expand --family G --lambda 4,2,1 --basis p"]
    first, second = (_fresh_python(run, *lines, PYTHONHASHSEED=seed) for seed in ("0", "12345"))
    assert first == second and first.count("\n") > len(lines)
