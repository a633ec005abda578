"""Q-Kostka polynomials: transition coefficients from the Q-Hall-Littlewood
basis to the Schur Q-basis, and Table, the one table type: Table.layout lays
a table out as rows of slots for its JSON and for every printed format.

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

from itertools import chain
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
    vector at mu, via the bilinear form: 2^{-l(lam)} <G_mu.1, Q_lam.1>, the
    2^{l(lam)} put into the pairing's denominator in one reduction."""
    from . import gamma, vertexops  # loaded only for this check route

    lam, mu = check_pair(lam, mu)
    form = gamma.pair(vertexops.qhl(mu), vertexops.schur_q(lam))
    return TPoly._reduce(list(form._num), form._den << len(lam))


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
    return [(outer, 2**a) for outer, a in horizontal_strips(inner, r)]


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
    get = _column(mu[1:]).get
    column = {}
    for lam, terms in _transfer(sum(mu), mu[0]):
        acc: list[int] = []  # every L value is integral: sum on its coefficient list
        for xi, c, r in terms:
            cell = get(xi)
            if cell is None:
                continue
            num = cell._num
            if len(acc) < r + len(num):
                acc.extend([0] * (r + len(num) - len(acc)))
            for x in num:
                acc[r] += c * x
                r += 1
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


def _ints(lists) -> bool:
    """Whether every item of every list in lists is an int, and no bool:
    a non-list item of lists fails this or a later check."""
    return set(map(type, chain.from_iterable(lists))) <= {int}


def _cell_json(value):
    """A cell as JSON: a TPoly as its coefficient strings, an int as itself."""
    return value if type(value) is int else value.to_json()


class Table(NamedTuple):
    """A matrix over one weight: rows are the strict partitions of weight,
    columns the partitions columns(weight) lists (strict or odd).  Only
    nonzero cells are kept, as every table builder and from_pool make them;
    zero, ZERO or the characters' 0, is the value of a cell not stored.

    entries is keyed by the canonical axis tuples, as layout reads them;
    entry() canonicalizes its keys for callers that pass other sequences.
    to_json is the canonical JSON of a polynomial table, the CLI's json
    output; the cache stores L and Y in to_pool's form instead, which
    from_pool reads, decoding each distinct cell once."""

    weight: int
    entries: dict[tuple[Partition, Partition], Any]
    columns: Callable[[int], tuple[Partition, ...]] = enumerate_strict
    zero: Any = ZERO

    def rows(self) -> tuple[Partition, ...]:
        return enumerate_strict(self.weight)

    def cols(self) -> tuple[Partition, ...]:
        return self.columns(self.weight)

    def entry(self, lam: Partition, mu: Partition):
        return self.entries.get((tuple(lam), tuple(mu)), self.zero)

    def layout(self, write: Callable[[Any], Any]) -> list[list]:
        """The grid of write(cell) over rows() and cols(): write(zero) in
        every slot, then write(v) once per distinct stored value, put at the
        row and column index of each cell that holds it.  An integral TPoly
        is keyed by its coefficient tuple, whose hash is C-level, and any
        other value by itself."""
        rows, cols = self.rows(), self.cols()
        blank = write(self.zero)
        grid = [[blank] * len(cols) for _ in rows]
        row_at = {r: i for i, r in enumerate(rows)}
        col_at = {c: j for j, c in enumerate(cols)}
        written = {}
        poly = type(self.zero) is TPoly
        for (r, c), v in self.entries.items():
            key = v._num if poly and v._den == 1 else v
            out = written.get(key)
            if out is None:
                out = written[key] = write(v)
            grid[row_at[r]][col_at[c]] = out
        return grid

    def _axes(self) -> dict:
        return {
            "n": self.weight,
            "rows": [list(r) for r in self.rows()],
            "cols": [list(c) for c in self.cols()],
        }

    def to_json(self) -> dict:
        """The table as JSON, its entries laid out by layout: equal cells
        share one JSON value."""
        return dict(self._axes(), entries=self.layout(_cell_json))

    def to_pool(self) -> dict:
        """A table of integer polynomials as the cache stores it: the axes
        of to_json, values, each distinct cell once as its int coefficients
        with the zero, [], at index 0, and grid, the index into values of
        every cell, laid out by layout."""
        values = []

        def index(v: TPoly) -> int:
            if v._den != 1:
                raise ValueError(f"only integer polynomials are pooled, not {v}")
            values.append(v._num)
            return len(values) - 1

        return dict(self._axes(), grid=self.layout(index), values=values)

    @classmethod
    def from_pool(cls, data: dict, columns=enumerate_strict) -> "Table":
        """Inverse of to_pool: one TPoly per pool value, shared by every
        cell that holds its index, and no cell stored at index 0, the zero.
        Raises ValueError unless n is an int, rows and cols are the
        enumerated axes of weight n, values[0] is [], every later value is
        a list of ints with a nonzero top and the grid holds only ints, and
        as the strict zips meet a ragged grid; KeyError on an index outside
        the pool, a negative one included."""
        n, values, grid = data["n"], data["values"], data["grid"]
        if type(n) is not int:
            raise ValueError(f"table weight must be an int: {n!r}")
        rows, cols = enumerate_strict(n), columns(n)
        if data["rows"] != [list(r) for r in rows] or data["cols"] != [list(c) for c in cols]:
            raise ValueError(f"table axes are not those of weight {n}")
        if values[0] != [] or not (_ints(values) and _ints(grid) and all(v[-1] for v in values[1:])):
            raise ValueError("pooled table values or grid are malformed")
        raw = TPoly._raw
        pool = dict(enumerate([raw(tuple(v), 1) for v in values]))
        entries = {}
        for lam, row in zip(rows, grid, strict=True):
            for mu, i in zip(cols, row, strict=True):
                if i:
                    entries[lam, mu] = pool[i]
        return cls(n, entries, columns)


def l_table(n: int) -> Table:
    """Full matrix over the strict partitions of n >= 0, via the recursion:
    the entries are the stored cells of the columns of weight n, all
    nonzero, so no cell is compared or checked again."""
    return Table(n, {(lam, mu): c for mu in enumerate_strict(n) for lam, c in _column(mu).items()})


