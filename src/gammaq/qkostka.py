"""Q-Kostka polynomials: transition coefficients from the Q-Hall-Littlewood
basis to the Schur Q-basis, and the one table type every printed table uses.

Two independent routes are provided: l_direct pairs the vertex-operator
vectors, l_recursive peels the largest part of the column index and sums
over horizontal strips.  They agree; the recursion is the fast path.
l_direct imports the vertex operators when it is called, so the tables
never load them.

The recursion runs one column at a time: applying the vertex operator of
mu_1 to G_{mu^(1)} gives the whole column L(., mu) from L(., mu^(1)).  Its
terms depend only on (|mu|, mu_1), so they are listed once per pair, built
from the strips on each (inner, r), which are enumerated once with their
2^a weights.  Every L value is an integer polynomial, so each cell is summed
on one list of int coefficients and becomes a single TPoly.  The column memo
is keyed by mu and maps each row to its nonzero value: a zero cell is never
stored, and a sub-cell that is absent adds nothing.  l_table reads its
entries straight from the columns.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, NamedTuple

from .memo import cached, memo
from .partitions import (
    Partition,
    check_pair,
    check_strict,
    dominance_leq,
    enumerate_strict,
    horizontal_strips,
)
from .tpoly import ONE, TPoly, ZERO

_l_memo: dict[Partition, dict[Partition, TPoly]] = memo()
_strips_memo: dict[tuple[Partition, int], list[tuple[Partition, int]]] = memo()
_transfer_memo: dict[tuple[int, int], list[tuple[Partition, list[tuple[Partition, int, int]]]]] = memo()


def l_direct(lam: Partition, mu: Partition) -> TPoly:
    """Coefficient of the Schur Q-vector at lam in the Q-Hall-Littlewood
    vector at mu, via the bilinear form: 2^{-l(lam)} <G_mu.1, Q_lam.1>."""
    from . import gamma, vertexops  # loaded only for this check route

    lam, mu = check_pair(lam, mu)
    return gamma.pair(vertexops.qhl(mu), vertexops.schur_q(lam)) * Fraction(1, 2 ** len(lam))


def l_recursive(lam: Partition, mu: Partition) -> TPoly:
    """Iterative route: peel mu_1, sum over rows lam_i >= mu_1 and over
    horizontal (lam_i - mu_1)-strips xi on lam with row i removed:

        sum_i sum_xi (-1)^{i-1} 2^{a(xi/lam^(i))} t^{lam_i - mu_1} L(xi, mu^(1))

    The rule runs on whole columns: the column at mu is built from the
    column at mu^(1) and memoized by mu, holding only its nonzero cells, so
    a cell off the support reads as ZERO."""
    lam, mu = check_pair(lam, mu)
    return _l_rec(lam, mu)


@cached(_strips_memo)
def _strips(inner: Partition, r: int) -> list[tuple[Partition, int]]:
    """The horizontal r-strips on inner as (outer, 2^a) pairs, enumerated
    once per (inner, r)."""
    return [(s.outer, 2**s.a_stat) for s in horizontal_strips(inner, r)]


@cached(_transfer_memo)
def _transfer(w: int, h: int) -> list[tuple[Partition, list[tuple[Partition, int, int]]]]:
    """The terms of the recursion for a column index of weight w and first
    part h: each strict lam of weight w with lam_1 >= h, paired with its
    (xi, (-1)^{i-1} 2^a, r) terms, r = lam_i - h.  A row with lam_1 < h has
    no term; the rows come in decreasing lexicographic order, so the list
    stops at the first one."""
    rows = []
    for lam in enumerate_strict(w):
        if lam[0] < h:
            break
        terms = []
        for i, part in enumerate(lam):
            if part < h:
                break  # parts strictly decrease
            r = part - h
            sign = -1 if i % 2 else 1
            terms += [(xi, sign * weight, r) for xi, weight in _strips(lam[:i] + lam[i + 1 :], r)]
        rows.append((lam, terms))
    return rows


@cached(_l_memo, key=lambda mu: mu)
def _column(mu: Partition) -> dict[Partition, TPoly]:
    """The nonzero cells of the column at mu, keyed by row, from the column
    at mu^(1); an absent sub-cell is zero and adds nothing."""
    if not mu:
        return {(): ONE}
    sub = _column(mu[1:])
    column = {}
    for lam, terms in _transfer(sum(mu), mu[0]):
        acc: list[int] = []  # every L value is integral: sum on its coefficient list
        for xi, c, r in terms:
            cell = sub.get(xi)
            if cell is None:
                continue
            num = cell._num
            if len(acc) < r + len(num):
                acc.extend([0] * (r + len(num) - len(acc)))
            for k, x in enumerate(num, r):
                acc[k] += c * x
        value = TPoly._reduce(acc, 1)
        if not value.is_zero:
            column[lam] = value
    return column


def _l_rec(lam: Partition, mu: Partition) -> TPoly:
    """L(lam, mu) read from the memoized column at mu: ZERO off its support."""
    return _column(mu).get(lam, ZERO)


def l_two_row(lam: Partition, mu: Partition) -> TPoly:
    """Closed form for a two-row column index: zero unless mu <= lam in
    dominance, else 2^{1-delta(lam,mu)} t^{lam_1 - mu_1}."""
    lam, mu = check_pair(lam, mu)
    if len(mu) != 2:
        raise ValueError(f"column index must have exactly two parts: {mu}")
    if not dominance_leq(mu, lam):
        return ZERO
    return TPoly.term(1 if lam == mu else 2, lam[0] - mu[0])


def expand_g_in_q(mu: Partition) -> dict[Partition, TPoly]:
    """The nonzero cells of the transition matrix column at mu, from the
    recursion, keyed by row."""
    mu = check_strict(mu)
    # a copy, read through _l_rec: the cell accessor perfbench's tracer counts
    return {lam: _l_rec(lam, mu) for lam in _column(mu)}


class Codec(NamedTuple):
    """The JSON form of a table's cells.  decode inverts encode and raises
    ValueError, TypeError or ZeroDivisionError on data it cannot read; zero
    is the value of a cell that is not stored."""

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]
    zero: Any


POLY = Codec(TPoly.to_json, TPoly.from_int_json, ZERO)  # every L and Y value is integral


def _int_cell(value) -> int:
    """Decode an INT cell: a JSON integer only, so a float is never
    truncated and true, false and strings are refused."""
    if type(value) is not int:
        raise TypeError(f"integer cell must be a JSON integer: {value!r}")
    return value


INT = Codec(int, _int_cell, 0)


class Table(NamedTuple):
    """A matrix over one weight: rows are the strict partitions of weight,
    columns the partitions columns(weight) lists (strict or odd).  Only
    nonzero cells are kept, as build, from_json and l_table make them; cell
    encodes a cell for JSON and gives the value of a cell that is not stored.

    entries is keyed by the canonical axis tuples, so a reader that walks
    rows() and cols() looks each cell up once, as to_json does; entry()
    canonicalizes its keys for callers that pass other sequences.
    from_json decodes each cell once, straight into entries, and skips a
    cell whose JSON is that of the zero value ([] for POLY) undecoded."""

    weight: int
    entries: dict[tuple[Partition, Partition], Any]
    columns: Callable[[int], tuple[Partition, ...]] = enumerate_strict
    cell: Codec = POLY

    @classmethod
    def build(cls, n: int, columns, fn, cell: Codec = POLY) -> "Table":
        """The table of weight n whose cell (lam, mu) is fn(lam, mu)."""
        cells = {(lam, mu): fn(lam, mu) for lam in enumerate_strict(n) for mu in columns(n)}
        return cls(n, {k: v for k, v in cells.items() if v != cell.zero}, columns, cell)

    def rows(self) -> tuple[Partition, ...]:
        return enumerate_strict(self.weight)

    def cols(self) -> tuple[Partition, ...]:
        return self.columns(self.weight)

    def entry(self, lam: Partition, mu: Partition):
        return self.entries.get((tuple(lam), tuple(mu)), self.cell.zero)

    def to_json(self) -> dict:
        rows, cols = self.rows(), self.cols()
        get, encode, zero = self.entries.get, self.cell.encode, self.cell.zero
        return {
            "n": self.weight,
            "rows": [list(r) for r in rows],
            "cols": [list(c) for c in cols],
            "entries": [[encode(get((lam, mu), zero)) for mu in cols] for lam in rows],
        }

    @classmethod
    def from_json(cls, data: dict, columns=enumerate_strict, cell: Codec = POLY) -> "Table":
        """Inverse of to_json.  Raises ValueError unless the rows and
        columns are the enumerated axes of the weight and the entries form
        exactly one value per row and column."""
        n = data["n"]
        if type(n) is not int:
            raise ValueError(f"table weight must be an int: {n!r}")
        rows, cols = enumerate_strict(n), columns(n)
        if data["rows"] != [list(r) for r in rows] or data["cols"] != [list(c) for c in cols]:
            raise ValueError(f"table axes are not those of weight {n}")
        grid = data["entries"]
        if len(grid) != len(rows) or any(len(row) != len(cols) for row in grid):
            raise ValueError(f"table entries are not a {len(rows)} x {len(cols)} grid")
        decode, zero = cell.decode, cell.zero
        empty = cell.encode(zero)  # the JSON of a zero cell, skipped undecoded
        entries = {}
        for lam, row in zip(rows, grid):
            for mu, value in zip(cols, row):
                if value != empty:
                    value = decode(value)
                    if value != zero:
                        entries[lam, mu] = value
        return cls(n, entries, columns, cell)


def l_table(n: int) -> Table:
    """Full matrix over the strict partitions of n >= 0, via the recursion:
    the entries are the stored cells of the columns of weight n, all
    nonzero, so no cell is compared or checked again."""
    return Table(n, {(lam, mu): c for mu in enumerate_strict(n) for lam, c in _column(mu).items()})


