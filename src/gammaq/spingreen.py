"""Spin Green polynomials and spin characters of the symmetric group.

Y(lam, mu; t) is the transition coefficient (normalized by z_mu^{-1} 2^{l(mu)})
from the Q-Hall-Littlewood basis to power-sum products, lam strict and mu odd
of the same weight.  At t = 0 it reduces, up to an explicit power of 2, to
the irreducible negative (projective) character of the double cover of the
symmetric group.

Three independent routes are provided:

  y_direct     pairing of the vertex-operator vector with a power-sum monomial
  y_recursive  peeling the largest row with polynomial odd-partition weights
  y_via_l      Q-Kostka recursion column composed with t = 0 character data

The recursion is the fast path: y_table evaluates it on every cell.  It
visits each distinct sub-multiset nu of mu once, scaled by its integer
multiplicity, and multiplies by each rational rho weight once per (i, rho);
the grouped sub-multisets and the rho weights are memoized.  y_direct and
y_via_l import the vertex operators when they are called, so the tables
never load them.

spin_char_table reads each character off the constant coefficient of the
matching cell of a finished y_table, so it runs no recursion of its own;
the CLI's spin-green and spin-char share one cached Y table per weight.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .memo import cached, memo
from .partitions import (
    Partition,
    check_odd,
    check_pair,
    enumerate_odd,
    enumerate_strict,
    epsilon,
    index_subpartitions,
    union_sorted,
)
from .qkostka import INT, Table, l_recursive
from .tpoly import ONE, TPoly, ZERO, d_poly, inv_z_t, signed_t

_y_memo: dict[tuple[Partition, Partition], TPoly] = memo()
_groups_memo: dict[tuple[Partition, int], list[tuple[Partition, int]]] = memo()
_inv_z_memo: dict[tuple[Partition], TPoly] = memo()


def y_direct(lam: Partition, mu: Partition) -> TPoly:
    """<G_lam.1, p_mu> via vertex operators and the bilinear form."""
    from . import gamma, vertexops  # loaded only for the check routes

    lam, mu = check_pair(lam, mu, check_odd)
    return gamma.pair(vertexops.qhl(lam), gamma.p_monomial(mu))


def y_recursive(lam: Partition, mu: Partition) -> TPoly:
    """Iterative route peeling the largest row lam_1:

        sum_{i=0}^{n-lam_1} sum_{rho odd of n-lam_1-i} ((-2)^{l(rho)} / z_rho(t))
            sum_{nu in {mu}_i} Y(lam^(1), nu U rho)

    where {mu}_i are the index subpartitions of weight i with multiplicity.
    The inner sum runs over the distinct nu, each Y scaled by its integer
    multiplicity prod_j C(m_j(mu), m_j(nu)), and the rho weight is the
    polynomial inv_z_t(rho), applied once per rho, keeping all arithmetic in
    polynomials.  Memoized on the canonical pair."""
    lam, mu = check_pair(lam, mu, check_odd)
    return _y_rec(lam, mu)


@cached(_y_memo)
def _y_rec(lam: Partition, mu: Partition) -> TPoly:
    if not lam:
        return ONE  # mu is forced empty by equal weights
    head, rest = lam[0], lam[1:]
    n = sum(lam)
    total = ZERO
    for i in range(n - head + 1):
        groups = _sub_multisets(mu, i)
        for rho in enumerate_odd(n - head - i):
            inner = ZERO
            for nu, mult in groups:
                sub = _y_rec(rest, union_sorted(nu, rho))
                if not sub.is_zero:
                    inner = inner + (sub if mult == 1 else sub * mult)
            if not inner.is_zero:
                total = total + inner * _inv_z(rho)
    return total


@cached(_groups_memo)
def _sub_multisets(mu: Partition, i: int) -> list[tuple[Partition, int]]:
    """The distinct index subpartitions of mu of weight i, with multiplicities."""
    return list(Counter(index_subpartitions(mu, i)).items())


@cached(_inv_z_memo)
def _inv_z(rho: Partition) -> TPoly:
    return inv_z_t(rho)


def y_two_row(k: int, n: int, mu: Partition) -> TPoly:
    """Closed form for a two-row shape (k, n-k), k > n-k > 0:

        (2(t-1)/(t+1)) ([D_t(mu) t^{-k}]_+ - [D_t(mu) t^{-k}]_+ |_{t=-1})
        + D^{(n-k)}(mu)

    With d the coefficients of D_t(mu), the bracket, the regular part of
    D_t(mu) t^{-k}, is sum_{j>=k} d_j t^{j-k}, and (t^m - (-1)^m)/(t+1) is the
    signed t-integer (m)_t, so the quotient is sum_{j>k} d_j (j-k)_t."""
    if not k > n - k > 0:
        raise ValueError(f"({k},{n - k}) is not a strict two-row shape")
    mu = check_odd(mu)
    if sum(mu) != n:
        raise ValueError(f"weight mismatch: |{mu}| != {n}")
    d = d_poly(mu).coeffs
    quotient = sum((d[j] * signed_t(j - k) for j in range(k + 1, n + 1)), ZERO)
    return TPoly((-2, 2)) * quotient + d[n - k]


def y_via_l(lam: Partition, mu: Partition) -> TPoly:
    """Transition-matrix route: sum over strict nu of L(nu, lam; t) times the
    t = 0 value <Q_nu.1, p_mu>."""
    from . import gamma, vertexops

    lam, mu = check_pair(lam, mu, check_odd)
    total = ZERO
    for nu in enumerate_strict(sum(lam)):
        l_poly = l_recursive(nu, lam)
        if not l_poly.is_zero:
            total = total + l_poly * gamma.pair(vertexops.schur_q(nu), gamma.p_monomial(mu))
    return total


def spin_character(lam: Partition, mu: Partition) -> int:
    """Spin character value: Y(lam, mu; 0) / 2^{(l(lam)-l(mu)+eps(lam))/2}.
    The exponent is an integer, since |mu| and l(mu) agree mod 2.

    Raises ArithmeticError if the result is not an integer."""
    lam, mu = check_pair(lam, mu, check_odd)
    return _char(lam, mu, _y_rec(lam, mu))


def _char(lam: Partition, mu: Partition, y: TPoly) -> int:
    """The character at (lam, mu) from y = Y(lam, mu; t)."""
    exponent = (len(lam) - len(mu) + epsilon(lam)) // 2
    value = y.coefficient(0) * Fraction(2) ** -exponent
    if value.denominator != 1:
        raise ArithmeticError(f"non-integer spin character {value} at ({lam}, {mu})")
    return int(value)


def y_table(n: int) -> Table:
    """Full spin Green matrix of weight n via the recursion.  The enumerated
    partitions are valid, so no cell is checked again."""
    if n < 1:
        raise ValueError("weight must be positive")
    return Table.build(n, enumerate_odd, _y_rec)


def spin_char_table(y: Table) -> Table:
    """Spin character matrix of y's weight, read off the spin Green table y
    at t = 0."""
    return Table.build(
        y.weight, enumerate_odd, lambda lam, mu: _char(lam, mu, y.entry(lam, mu)), INT
    )
