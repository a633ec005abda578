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

The recursion is the fast path for Y only: y_table evaluates it on every
cell.  Its rho-sum F(kappa, nu) depends only on the peeled shape kappa and
the sub-multiset nu of mu, so it is memoized and shared by every mu that
contains nu; each distinct nu is visited once, scaled by its integer
multiplicity.  The grouped sub-multisets and the rho weights are memoized
too.  y_direct and y_via_l import the vertex operators when they are called.

The characters come from X0(lam, mu) = Y(lam, mu; 0) = <Q_lam, p_mu> by
Morris's bar removal on ints (A. O. Morris, Proc. LMS (3) 12, 1962), memoized
per call; the recursion's constant terms are its check.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator

from .memo import cached, memo
from .partitions import (
    Partition,
    check_odd,
    check_pair,
    enumerate_odd,
    epsilon,
    index_subpartitions,
    union_sorted,
)
from .qkostka import INT, Table, _column
from .tpoly import ONE, TPoly, ZERO, d_poly, inv_z_t, signed_t

_y_memo: dict[tuple[Partition, Partition], TPoly] = memo()
_rho_sum_memo: dict[tuple[Partition, Partition], TPoly] = memo()
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
    Swapping the sums over rho and nu gives

        Y(lam, mu) = sum_{nu in {mu}_i, 0 <= i <= n-lam_1} F(lam^(1), nu),
        F(kappa, nu) = sum_{rho odd of |kappa|-|nu|} ((-2)^{l(rho)} / z_rho(t))
            Y(kappa, nu U rho),

    where F does not depend on mu and is memoized.  The outer sum runs over
    the distinct nu, each F scaled by its integer multiplicity
    prod_j C(m_j(mu), m_j(nu)), and the rho weight is the polynomial
    inv_z_t(rho), keeping all arithmetic in polynomials.  Memoized on the
    canonical pair."""
    lam, mu = check_pair(lam, mu, check_odd)
    return _y_rec(lam, mu)


@cached(_y_memo)
def _y_rec(lam: Partition, mu: Partition) -> TPoly:
    if not lam:
        return ONE  # mu is forced empty by equal weights
    rest = lam[1:]
    total = ZERO
    for i in range(sum(rest) + 1):
        for nu, mult in _sub_multisets(mu, i):
            f = _rho_sum(rest, nu)
            if not f.is_zero:
                total = total + (f if mult == 1 else f * mult)
    return total


@cached(_rho_sum_memo)
def _rho_sum(kappa: Partition, nu: Partition) -> TPoly:
    """F(kappa, nu) = sum over odd rho of |kappa| - |nu| of
    ((-2)^{l(rho)} / z_rho(t)) Y(kappa, nu U rho)."""
    total = ZERO
    for rho in enumerate_odd(sum(kappa) - sum(nu)):
        sub = _y_rec(kappa, union_sorted(nu, rho))
        if not sub.is_zero:
            total = total + sub * _inv_z(rho)
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
    t = 0 value <Q_nu.1, p_mu>.  The pair is checked once, p_mu built once,
    and the sum runs over the nonzero cells of the memoized column L(., lam)."""
    from . import gamma, vertexops

    lam, mu = check_pair(lam, mu, check_odd)
    p_mu = gamma.p_monomial(mu)
    total = ZERO
    for nu, l_poly in _column(lam).items():
        total = total + l_poly * gamma.pair(vertexops.schur_q(nu), p_mu)
    return total


def spin_character(lam: Partition, mu: Partition) -> int:
    """Spin character value X0(lam, mu) / 2^e, e = (l(lam)-l(mu)+eps(lam))/2,
    with X0 = Y(lam, mu; 0) by bar removal; e is an integer, since |mu| and
    l(mu) agree mod 2.  Raises ArithmeticError if the value is not an integer."""
    lam, mu = check_pair(lam, mu, check_odd)
    return _char(lam, mu, _x0(lam, mu, {}))


def _bars(lam: Partition, r: int) -> Iterator[tuple[Partition, int]]:
    """The (kappa, coefficient) pairs of p_r^* Q_lam = sum c Q_kappa, r odd.
    A part lam_i becomes lam_i - r when that is not a part (0 drops it),
    with sign (-1)^(parts strictly between); two parts lam_i + lam_j = r,
    i < j, are dropped with coefficient 2 (-1)^(lam_j + j - i - 1)."""
    for i, part in enumerate(lam):
        low = part - r
        if 0 < -low < part and -low in lam:  # the pair part + (r - part) = r
            j = lam.index(-low)
            yield lam[:i] + lam[i + 1 : j] + lam[j + 1 :], 2 - 4 * ((j - i - low - 1) & 1)
        elif low >= 0 and low not in lam:
            j = sum(x > low for x in lam)  # lam[i + 1 : j] lie strictly between
            yield lam[:i] + lam[i + 1 : j] + (low,) * (low > 0) + lam[j:], 1 - 2 * ((j - i - 1) & 1)


def _x0(lam: Partition, mu: Partition, memo: dict) -> int:
    """<Q_lam, p_mu> for lam strict and mu odd of one weight, memoized in memo."""
    if mu and (lam, mu) not in memo:  # remove mu's largest part as bars of lam
        memo[lam, mu] = sum(c * _x0(kappa, mu[1:], memo) for kappa, c in _bars(lam, mu[0]))
    return memo.get((lam, mu), 1)  # X0((), ()) = 1 is not stored


def _char(lam: Partition, mu: Partition, x0: int) -> int:
    """The character at (lam, mu) from x0 = Y(lam, mu; 0)."""
    e = (len(lam) - len(mu) + epsilon(lam)) // 2
    value, rem = divmod(x0 << max(-e, 0), 1 << max(e, 0))
    if rem:
        k = (x0 & -x0).bit_length() - 1  # x0 = odd * 2^k with k < e, as 2^e does not divide it
        raise ArithmeticError(f"non-integer spin character {x0 >> k}/{1 << (e - k)} at ({lam}, {mu})")
    return value


def y_table(n: int) -> Table:
    """Full spin Green matrix of weight n >= 0 via the recursion.  The
    enumerated partitions are valid, so no cell is checked again."""
    return Table.build(n, enumerate_odd, _y_rec)


def spin_char_table(n: int) -> Table:
    """Spin character matrix of weight n >= 0 by bar removal.  Its cells share
    one X0 memo that lives as long as the call, and are not checked again."""
    memo: dict = {}
    return Table.build(n, enumerate_odd, lambda lam, mu: _char(lam, mu, _x0(lam, mu, memo)), INT)
