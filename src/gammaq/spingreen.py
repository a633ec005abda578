"""Spin Green polynomials and spin characters of the symmetric group.

Y(lam, mu; t) is the transition coefficient (normalized by z_mu^{-1} 2^{l(mu)})
from the Q-Hall-Littlewood basis to power-sum products, lam strict and mu odd
of the same weight.  At t = 0 it reduces, up to an explicit power of 2, to
the irreducible negative (projective) character of the double cover of the
symmetric group.

Three independent routes are provided, sharing no Y code:

  y_direct     pairing of the vertex-operator vector with a power-sum monomial
  y_recursive  peeling the largest row with polynomial odd-partition weights
  y_via_l      Q-Kostka recursion column composed with bar-removal X0 values

The recursion is the fast path for Y only: y_table evaluates it on every
cell.  Its rho-sum F(kappa, nu) depends only on the peeled shape kappa and
the sub-multiset nu of mu, so it is memoized and shared by every mu that
contains nu; each distinct nu is visited once, scaled by its integer
multiplicity.  It reads the sub-multisets from index_subpartitions and the
rho weights from inv_z_t, each memoized where it is defined.  Only y_direct
uses the vertex operators, and imports them when it is called.

The characters come from X0(lam, mu) = Y(lam, mu; 0) = <Q_lam, p_mu> by
Morris's bar removal on ints (A. O. Morris, Proc. LMS (3) 12, 1962); the
recursion's constant terms are its check.  _x0_columns builds X0 one
column at a time, as L is built: the column at mu from the column at mu^(1),
with the bars listed once per (|mu|, mu_1), both for the life of one
builder.  spin_char_table and verify's two whole-weight character checks
read the same columns, one builder per call.  A single cell or row, as
spin_character and y_via_l read, comes from _x0, which removes the bars
cell by cell with a memo for its call.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

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
from .qkostka import Table, _column
from .tpoly import ONE, TPoly, ZERO, d_poly, inv_z_t, signed_t

_y_memo: dict[tuple[Partition, Partition], TPoly] = memo()
_rho_sum_memo: dict[tuple[Partition, Partition], TPoly] = memo()


def y_direct(lam: Partition, mu: Partition) -> TPoly:
    """<G_lam.1, p_mu> via vertex operators and the bilinear form, read as
    the p_mu coefficient of the Q-Hall-Littlewood vector at lam scaled by
    <p_mu, p_mu> (gamma._pair_p), with no p_mu element built."""
    from . import gamma, vertexops  # loaded only for the check routes

    lam, mu = check_pair(lam, mu, check_odd)
    return gamma._pair_p(vertexops.qhl(lam), mu)


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
        for nu, mult in index_subpartitions(mu, i):
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
            total = total + sub * inv_z_t(rho)
    return total


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
    t = 0 value X0(nu, mu) = <Q_nu, p_mu>.  The pair is checked once, the sum
    runs over the nonzero cells of the memoized column L(., lam), and X0 comes
    from bar removal with one memo for the call."""
    lam, mu = check_pair(lam, mu, check_odd)
    memo: dict = {}
    total = ZERO
    for nu, l_poly in _column(lam).items():
        total = total + l_poly * _x0(nu, mu, memo)
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
    """Full spin Green matrix of weight n >= 0 via the recursion, keeping
    its nonzero cells.  The enumerated partitions are valid, so no cell is
    checked again."""
    cells = {(lam, mu): _y_rec(lam, mu) for lam in enumerate_strict(n) for mu in enumerate_odd(n)}
    return Table(n, {k: y for k, y in cells.items() if not y.is_zero}, enumerate_odd)


def _x0_columns() -> Callable[[Partition], dict[Partition, int]]:
    """A builder of X0 columns: column(mu) maps each strict lam of weight
    |mu| with X0(lam, mu) != 0 to that value, the sum of c X0(kappa, mu^(1))
    over the bars (kappa, c) of lam by mu_1.  The bars of every strict lam
    of weight w by r are listed once per (w, r); both they and the columns
    live as long as the builder, and mu must be a valid odd partition."""
    bars: dict[tuple[int, int], list[tuple[Partition, list[tuple[Partition, int]]]]] = {}
    columns: dict[Partition, dict[Partition, int]] = {(): {(): 1}}

    def column(mu: Partition) -> dict[Partition, int]:
        if mu not in columns:
            get = column(mu[1:]).get
            w, r = sum(mu), mu[0]
            if (w, r) not in bars:
                bars[w, r] = [(lam, list(_bars(lam, r))) for lam in enumerate_strict(w)]
            nonzero = columns[mu] = {}
            for lam, removals in bars[w, r]:
                x0 = 0
                for kappa, c in removals:
                    x0 += c * get(kappa, 0)
                if x0:
                    nonzero[lam] = x0
        return columns[mu]

    return column


def spin_char_table(n: int) -> Table:
    """Spin character matrix of weight n >= 0: _char read on every nonzero
    cell of the X0 columns of one builder.  The enumerated partitions are
    valid, so no cell is checked again."""
    column = _x0_columns()
    cells = {(lam, mu): _char(lam, mu, x0) for mu in enumerate_odd(n) for lam, x0 in column(mu).items()}
    return Table(n, cells, enumerate_odd, 0)
