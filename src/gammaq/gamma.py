"""The graded ring generated by odd power sums, in power-sum coordinates.

A GammaElement is a finite linear combination of power-sum monomials p_mu,
mu an odd partition, with coefficients polynomials in t over the rationals.
The power-sum monomial basis is the unique internal representation: products
reduce to multiset unions of parts, the derivative d/dp_n acts diagonally,
and the bilinear form <p_lam, p_mu> = 2^{-l(lam)} delta_{lam,mu} z_lam is
diagonal.

The coefficients share one denominator, the fmpq_poly idea of TPoly applied
one level up:

  * _terms maps each odd partition to a tuple of ints, the numerator of its
    coefficient ascending in t, with no trailing zeros and never empty;
  * _den is a positive int with gcd(_den, every coefficient of every term)
    = 1, and 1 for the zero element.

This normal form is unique, so equality compares (_den, _terms) directly.
Sums, differences, products, d/dp_n and the pairing run on ints and reduce
once per result; _den == 1, the case of every Schur Q- and Q-Hall-Littlewood
vector, takes no gcd at all.  The int products and sums are tpoly's _pmul
and _padd; only _accumulate, which adds into a dict of int lists in place,
lives here.
coefficient() and terms() hand out reduced TPolys, and the constructor
accepts TPoly, int and Fraction coefficients.  A GammaElement has no
mutator, so results may be shared, and it is hashable: the hash of
(_den, the set of _terms' items) is computed on first use and cached in the
element, so equal elements hash alike whatever their term order, and the
vertexops memos key on the element itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Mapping, Sequence, Union

from .partitions import Partition, _z, check_odd, union_sorted
from .tpoly import ONE, TPoly, ZERO, _as_tpoly, _padd, _pmul

CoeffLike = Union[int, Fraction, TPoly]


def _accumulate(table: dict, key, num: list[int]) -> None:
    """table[key] += num, in place on the int lists of table, which must be
    lists owned by the caller, as num becomes."""
    prev = table.get(key)
    if prev is None:
        table[key] = num
        return
    if len(prev) < len(num):
        table[key] = num
        prev, num = num, prev
    for i, c in enumerate(num):
        prev[i] += c


class GammaElement:
    """Finite map from odd partitions to nonzero coefficients over one
    common denominator."""

    __slots__ = ("_terms", "_den", "_hash")

    def __init__(self, terms: Mapping[Partition, CoeffLike] = ()):
        polys: dict[Partition, TPoly] = {}
        for mu, c in dict(terms).items():
            mu = check_odd(mu)
            poly = _as_tpoly(c)
            if poly is None:
                raise TypeError(f"coefficient of p_{mu} must be TPoly or rational")
            polys[mu] = poly
        den = lcm(*(poly._den for poly in polys.values()))
        self._terms, self._den = _normal_form(
            {mu: [c * (den // poly._den) for c in poly._num] for mu, poly in polys.items()}, den
        )
        self._hash = None

    @classmethod
    def _make(cls, terms: Mapping[Partition, Sequence[int]], den: int) -> "GammaElement":
        """Internal constructor: keys already odd partitions, each value an
        int numerator over den > 0, in any form; see _normal_form."""
        self = object.__new__(cls)
        self._terms, self._den = _normal_form(terms, den)
        self._hash = None
        return self

    def terms(self) -> Iterator[tuple[Partition, TPoly]]:
        """(partition, coefficient) pairs in decreasing lexicographic key order."""
        for mu in sorted(self._terms, reverse=True):
            yield mu, self.coefficient(mu)

    def coefficient(self, mu: Partition) -> TPoly:
        """The reduced coefficient of p_mu, ZERO if mu is not a key."""
        num = self._terms.get(tuple(mu))
        if num is None:
            return ZERO
        return TPoly._raw(num, 1) if self._den == 1 else TPoly._reduce(list(num), self._den)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Common weight of all monomials; raises if inhomogeneous."""
        weights = {sum(mu) for mu in self._terms}
        if len(weights) > 1:
            raise ValueError(f"inhomogeneous element of degrees {sorted(weights)}")
        return weights.pop() if weights else 0

    def __add__(self, other) -> "GammaElement":
        if not isinstance(other, GammaElement):
            return NotImplemented
        return _combine(self, other, 1)

    def __neg__(self) -> "GammaElement":
        return GammaElement._make({mu: [-c for c in num] for mu, num in self._terms.items()}, self._den)

    def __sub__(self, other) -> "GammaElement":
        if not isinstance(other, GammaElement):
            return NotImplemented
        return _combine(self, other, -1)

    def __mul__(self, other) -> "GammaElement":
        a = self._terms
        if isinstance(other, GammaElement):
            b = other._terms
            out: dict[Partition, list[int]] = {}
            for mu, cf in a.items():
                for nu, cg in b.items():
                    _accumulate(out, union_sorted(mu, nu), _pmul(cf, cg))
            return GammaElement._make(out, self._den * other._den)
        c = _as_tpoly(other)
        if c is None:
            return NotImplemented
        return GammaElement._make({mu: _pmul(num, c._num) for mu, num in a.items()}, self._den * c._den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, GammaElement):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self._den, frozenset(self._terms.items())))
        return h

    def __repr__(self) -> str:
        if self.is_zero:
            return "GammaElement(0)"
        body = " + ".join(f"({c})*p[{','.join(map(str, mu))}]" for mu, c in self.terms())
        return f"GammaElement({body})"


def _combine(f: GammaElement, g: GammaElement, sign: int) -> GammaElement:
    """f + sign g, sign 1 or -1, in one pass: g's terms are scaled to the
    common denominator and by sign together, then added into a copy of f's."""
    a, da = f._terms, f._den
    b, db = g._terms, g._den
    if not b:
        return f
    if not a and sign == 1:
        return g
    if da == db:
        den, fb = da, sign
        out = dict(a)
    else:
        k = gcd(da, db)
        den = da // k * db
        fa, fb = db // k, da // k * sign
        out = {mu: [c * fa for c in num] for mu, num in a.items()} if fa != 1 else dict(a)
    if fb != 1:
        b = {mu: [c * fb for c in num] for mu, num in b.items()}
    for mu, num in b.items():
        s = out.get(mu)
        out[mu] = num if s is None else _padd(s, num)
    return GammaElement._make(out, den)


def _normal_form(
    terms: Mapping[Partition, Sequence[int]], den: int
) -> tuple[dict[Partition, tuple[int, ...]], int]:
    """(_terms, _den) of the element sum_mu (terms[mu] / den) p_mu, den > 0:
    trailing zeros trimmed, zero terms dropped, and the content common to den
    and every coefficient cancelled by one gcd scan that stops at 1."""
    out: dict[Partition, tuple[int, ...]] = {}
    for mu, num in terms.items():
        k = len(num)
        while k and not num[k - 1]:
            k -= 1
        if k:
            out[mu] = tuple(num) if k == len(num) else tuple(num[:k])
    if not out:
        return out, 1
    if den != 1:
        g = den
        for num in out.values():
            g = gcd(g, *num)
            if g == 1:
                break
        else:
            den //= g
            out = {mu: tuple([c // g for c in num]) for mu, num in out.items()}
    return out, den


def p_monomial(mu: Partition) -> GammaElement:
    """The power-sum monomial p_mu, mu an odd partition."""
    return GammaElement({tuple(mu): ONE})


def one() -> GammaElement:
    """The vacuum vector: the unit of the ring."""
    return GammaElement({(): ONE})


def d_dp(n: int, f: GammaElement) -> GammaElement:
    """The derivative d/dp_n, n odd: kills p_n-free monomials, else removes one part.

    Distinct monomials stay distinct, since mu is the result's key plus one
    part n, so no two terms meet."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"derivative index must be odd and positive: {n}")
    out: dict[Partition, list[int]] = {}
    for mu, num in f._terms.items():
        m = mu.count(n)
        if m:
            i = mu.index(n)
            out[mu[:i] + mu[i + 1 :]] = [c * m for c in num]
    return GammaElement._make(out, f._den)


def pn_star(n: int, f: GammaElement) -> GammaElement:
    """The adjoint of multiplication by p_n: (n/2) d/dp_n."""
    return d_dp(n, f) * Fraction(n, 2)


def pair(f: GammaElement, g: GammaElement) -> TPoly:
    """Bilinear form with <p_lam, p_mu> = 2^{-l(lam)} delta_{lam,mu} z_lam.

    Summed on ints as cf cg z_mu 2^{top - l(mu)} over den_f den_g 2^top,
    top the longest common key: each common term reads the memoized z_mu
    once and adds its products in place into one int list, reduced once.
    The outer loop runs over the shorter of a term's two lists, so a
    constant side, as every coefficient of a Schur Q-vector or a power-sum
    monomial is, makes one pass over the other."""
    small, big = (f._terms, g._terms) if len(f._terms) <= len(g._terms) else (g._terms, f._terms)
    common = [(mu, cf, cg) for mu, cf in small.items() if (cg := big.get(mu)) is not None]
    if not common:
        return ZERO
    top = max(len(mu) for mu, _, _ in common)
    total = [0] * (max(len(cf) + len(cg) for _, cf, cg in common) - 1)
    for mu, cf, cg in common:
        w = _z(mu) << (top - len(mu))
        if len(cf) > len(cg):
            cf, cg = cg, cf
        for i, a in enumerate(cf):
            if a:
                a *= w
                for j, b in enumerate(cg, i):
                    total[j] += a * b
    return TPoly._reduce(total, f._den * g._den << top)


def _pair_p(f: GammaElement, mu: Partition) -> TPoly:
    """<f, p_mu> for an odd partition mu given as a tuple, equal to
    pair(f, p_monomial(mu)): the form is diagonal, so this is the p_mu
    coefficient of f times <p_mu, p_mu> = z_mu / 2^{l(mu)}, reduced once."""
    num = f._terms.get(mu)
    if num is None:
        return ZERO
    z = _z(mu)
    return TPoly._reduce([c * z for c in num], f._den << len(mu))
