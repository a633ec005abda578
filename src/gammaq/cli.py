"""Command-line front end.

Subcommands: lkostka, spin-green, spin-char, expand, verify.
Formats: json (canonical), csv, latex (published table layout), markdown.
Exit codes: 0 success, 1 verification or arithmetic failure, or a computation
that ran out of memory or recursion depth, 2 usage error; every error is one
line on stderr, never a traceback.

main(argv) may be called many times in one process: it builds the parser on
its first call and reuses it, and it finds each command's cmd_* function by
name when it is called.

A table command imports only the recursions it runs: verify and the vertex
operators are imported by the commands that use them.

A table is rendered from its stored cells, not by looking up each slot:
Table.layout starts the grid as the zero text in every slot, writes each
distinct stored value once, and puts its text at the row and column index
of every cell that holds it.  Every polynomial, plain or LaTeX, integral
or not, is written straight from its int coefficients by tpoly's one text
writer.
The json format is written by _json_table, byte for byte what
json.dumps(table.to_json(), indent=2) writes, without the json module's
pure-Python indenting encoder.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from json.encoder import encode_basestring_ascii

from .cache import Cache
from .partitions import (
    Partition,
    check_odd,
    check_strict,
    enumerate_odd,
    enumerate_strict,
    parse_partition,
    partition_str,
)
from .qkostka import Table, expand_g_in_q, l_table
from .spingreen import spin_char_table, y_table
from .tpoly import ONE, TPoly, _text

FORMATS = ("json", "csv", "latex", "markdown")
# The keys of verify.SUITES, written out so that building the parser never
# imports verify; test_cli holds the two equal.
SUITE_NAMES = ("operators", "lkostka", "spingreen", "tables")


# -------------------------------------------------------------- rendering


def _poly_latex(p: TPoly) -> str:
    """str(p) with every exponent braced, as in 2t^{10}+t^{2}."""
    return _text(p._num, p._den, brace=True)


def _part_compact(p: Partition) -> str:
    """Grouped display form: (3,1,1,1) -> (3,1^3)."""
    pieces = []
    i = 0
    while i < len(p):
        j = i
        while j < len(p) and p[j] == p[i]:
            j += 1
        pieces.append(str(p[i]) if j - i == 1 else f"{p[i]}^{j - i}")
        i = j
    return "(" + ",".join(pieces) + ")"


def _grid(fmt: str, rows) -> str:
    """A header row and body rows of strings as csv, markdown or LaTeX."""
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    if fmt == "markdown":
        lines = ["| " + " | ".join(row) + " |" for row in rows]
        lines.insert(1, "|" + "|".join(" --- " for _ in rows[0]) + "|")
        return "\n".join(lines) + "\n"
    if fmt == "latex":
        lines = ["\\begin{tabular}{|" + "c|" * len(rows[0]) + "}", "\\hline"]
        for row in rows:
            lines += [" & ".join(row) + " \\\\", "\\hline"]
        lines.append("\\end{tabular}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt}")


def _json_list(items: list[str], pad: str) -> str:
    """A list of written JSON values laid out as json.dumps(..., indent=2)
    lays it out where its closing bracket is indented by pad."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _json_table(table) -> str:
    """json.dumps(table.to_json(), indent=2) + "\n", written cell by cell:
    the weight is an int, rows and columns are lists of int lists, and each
    cell is an int or a TPoly's to_json() strings."""
    parts = lambda ps: _json_list([_json_list([str(x) for x in p], "    ") for p in ps], "  ")
    pad = " " * 6  # a cell is an item of a row of the entries list

    def cell(v) -> str:
        return str(v) if type(v) is int else _json_list([encode_basestring_ascii(s) for s in v.to_json()], pad)

    grid = [_json_list(row, "    ") for row in table.layout(cell)]
    return '{\n  "n": %d,\n  "rows": %s,\n  "cols": %s,\n  "entries": %s\n}\n' % (
        table.weight,
        parts(table.rows()),
        parts(table.cols()),
        _json_list(grid, "  "),
    )


def _render_table(table, fmt: str) -> str:
    if fmt == "json":
        return _json_table(table)
    transposed = table.columns is enumerate_odd  # the paper's rows are the odd shapes
    if fmt == "latex":
        corner = "$\\mu\\backslash\\lambda$" if transposed else "$\\lambda\\backslash\\mu$"
        label = lambda p: f"${_part_compact(p)}$"
        latex = _poly_latex if type(table.zero) is TPoly else str
        cell = lambda v: f"${latex(v)}$"
    else:
        corner, cell = "lambda\\mu", str
        label = partition_str if fmt == "csv" else _part_compact
    grid = [[corner] + [label(c) for c in table.cols()]]
    grid += [[label(r)] + row for r, row in zip(table.rows(), table.layout(cell))]
    if fmt == "latex" and transposed:
        grid = list(zip(*grid))
    return _grid(fmt, grid)


# Two names for one renderer, one per kind of table: perfbench's tracer
# wraps each of them, by name, as the cli.render span.
def _render_poly_table(table, fmt: str) -> str:
    return _render_table(table, fmt)


def _render_int_table(table, fmt: str) -> str:
    return _render_table(table, fmt)


def _coeff_prefix(c: TPoly) -> str:
    """Coefficient as a multiplier: '' for 1, a monomial with a positive
    coefficient inline, anything else parenthesized."""
    if c == ONE:
        return ""
    num = c._num
    text = _poly_latex(c)
    if num and num[-1] > 0 and not any(num[:-1]):
        return text
    return f"({text})"


def _render_expansion(family: str, lam: Partition, basis: str, terms, fmt: str) -> str:
    ordered = sorted(terms.items(), reverse=True)
    if fmt == "json":
        payload = {
            "family": family,
            "lambda": list(lam),
            "basis": basis,
            "terms": [
                {"partition": list(p), "coeff": c.to_json()} for p, c in ordered
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "latex":
        body = " + ".join(
            f"{_coeff_prefix(c)}{basis}_{{{_part_compact(p)}}}"
            for p, c in reversed(ordered)  # diagonal term first, as published
        )
        return f"${family}_{{{_part_compact(lam)}}} = {body}$\n"
    label, header = (partition_str, "coeff") if fmt == "csv" else (_part_compact, "coefficient")
    return _grid(fmt, [["partition", header]] + [[label(p), str(c)] for p, c in ordered])


# ------------------------------------------------------------------ emit


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cached(args, name, decode, encode, compute):
    """The result cached under name, or compute() saved there.  A cache
    that cannot be written costs the command nothing but one warning line
    on stderr."""
    cache = Cache(directory=args.cache_dir, enabled=not args.no_cache)
    result = cache.load(name, decode)
    if result is None:
        result = compute()
    try:
        cache.save(name, result, encode)
    except OSError as exc:
        print(f"warning: cache not saved: {exc}", file=sys.stderr)
    return result


def _cached_table(args, kind, columns, build) -> Table:
    """The table build(--n), cached as <kind>-<n>; a file of another weight,
    other axes or a ragged grid is refused."""
    def decode(data):
        if data["n"] != args.n:
            raise ValueError(f"cached table of weight {data['n']!r}, not {args.n}")
        return Table.from_pool(data, columns)

    return _cached(args, f"{kind}-{args.n}", decode, Table.to_pool, lambda: build(args.n))


# ------------------------------------------------------------- commands


def cmd_lkostka(args) -> int:
    table = _cached_table(args, "L", enumerate_strict, l_table)
    _emit(_render_poly_table(table, args.format), args.out)
    return 0


def cmd_spin_green(args) -> int:
    table = _cached_table(args, "Y", enumerate_odd, y_table)
    _emit(_render_poly_table(table, args.format), args.out)
    return 0


def cmd_spin_char(args) -> int:
    table = spin_char_table(args.n)
    _emit(_render_int_table(table, args.format), args.out)
    return 0


def cmd_expand(args) -> int:
    lam = args.lam

    def compute():
        from .vertexops import qhl, schur_q

        element = qhl(lam) if args.family == "G" else schur_q(lam)
        return dict(element.terms())

    def decode(value):
        terms = {}
        for parts, coeff in value:
            p, c = check_odd(parts), TPoly.from_json(coeff)
            if sum(p) != sum(lam) or p in terms or c.is_zero:
                raise ValueError(f"cached term {p} is repeated, zero or not of weight {sum(lam)}")
            terms[p] = c
        if not terms:
            raise ValueError("cached expansion is empty")
        return terms

    def encode(terms):
        return [[list(p), c.to_json()] for p, c in terms.items()]

    if args.basis == "Q":  # a column of L, computed in about a millisecond: never cached
        terms = expand_g_in_q(lam) if args.family == "G" else {lam: ONE}
    else:
        terms = _cached(args, f"expand-{args.family}-p-{partition_str(lam)}", decode, encode, compute)
    _emit(_render_expansion(args.family, lam, args.basis, terms, args.format), args.out)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite

    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    lines = []
    any_fatal = False
    for name in names:
        results, elapsed = run_suite(name, args.max_n)
        passed = sum(1 for r in results if r.passed)
        failed = sum(1 for r in results if r.fatal)
        flagged = sum(1 for r in results if r.diagnostic and not r.passed)
        any_fatal = any_fatal or failed > 0
        lines.append(
            f"suite {name}: {len(results)} checks, {passed} passed, "
            f"{failed} failed, {flagged} diagnostics flagged ({elapsed:.2f}s)"
        )
        for r in results:
            tag = "DIAG" if r.diagnostic else ("PASS" if r.passed else "FAIL")
            lines.append(f"  [{tag}] {r.name}: {r.detail}")
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if any_fatal else 0


# -------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and through add_subparsers each subparser, that
    raises ValueError, which main reports as one line and exit 2, instead
    of printing its usage block and exiting."""

    def error(self, message):
        raise ValueError(message)


def _count_arg(text: str) -> int:
    """An --n or --max-n value: a count >= 1 in ASCII decimal digits only."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if not text.strip("0"):
        raise argparse.ArgumentTypeError(f"must be >= 1, not {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _lambda_arg(text: str) -> Partition:
    """The --lambda value: a strict partition of positive weight, as 5,3,1."""
    try:
        lam = check_strict(parse_partition(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a strict partition: {exc}") from None
    if not lam:
        raise argparse.ArgumentTypeError(f"{text!r} has weight 0, but the weight must be >= 1")
    return lam


def _add_common(sub, cache_help: str | None = None) -> None:
    sub.add_argument("--out", metavar="PATH", default=None)
    sub.add_argument("--cache-dir", metavar="PATH", default=None, help=cache_help)
    sub.add_argument("--no-cache", action="store_true", help=cache_help)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gammaq",
        description=(
            "Exact tables of Q-Kostka polynomials, spin Green polynomials and "
            "spin characters of the symmetric group."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    ignored = "accepted and ignored: {} never reads or writes the cache"
    for name, text, cache_help in (
        ("lkostka", "Q-Kostka matrix over strict partitions", None),
        ("spin-green", "spin Green polynomial table", None),
        ("spin-char", "spin character table", ignored.format("spin-char")),
    ):
        p = subs.add_parser(name, help=text)
        p.add_argument("--n", type=_count_arg, required=True)
        p.add_argument("--format", choices=FORMATS, default="json")
        _add_common(p, cache_help)

    p = subs.add_parser("expand", help="expand a basis vector in another basis")
    p.add_argument("--family", choices=("G", "Q"), required=True)
    p.add_argument("--lambda", dest="lam", type=_lambda_arg, required=True, metavar="PARTS")
    p.add_argument("--basis", choices=("Q", "p"), required=True)
    p.add_argument("--format", choices=FORMATS, default="json")
    _add_common(p, "used by --basis p only: --basis Q never reads or writes the cache")

    p = subs.add_parser("verify", help="run verification suites")
    p.add_argument(
        "--suite",
        choices=("all",) + SUITE_NAMES,
        default="all",
    )
    p.add_argument("--max-n", type=_count_arg, default=5, dest="max_n")
    _add_common(p, ignored.format("verify"))

    return parser


_parser = None  # built by the first main call and reused by every later one


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        # looked up by name on each call, so a rebound cmd_* is the one called
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, RecursionError) as exc:
        print(f"error: {type(exc).__name__}: the computation is too large for this process", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
