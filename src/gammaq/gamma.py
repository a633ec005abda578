"""The graded ring generated by odd power sums, in power-sum coordinates.

A GammaElement is a finite linear combination of power-sum monomials p_mu,
mu an odd partition, with TPoly coefficients.  The power-sum monomial basis
is the unique internal representation: products reduce to multiset unions of
parts, the derivative d/dp_n acts diagonally, and the bilinear form
<p_lam, p_mu> = 2^{-l(lam)} delta_{lam,mu} z_lam is diagonal.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Union

from .partitions import Partition, check_odd, union_sorted, z_factor
from .tpoly import ONE, TPoly, ZERO, _as_tpoly

CoeffLike = Union[int, Fraction, TPoly]


class GammaElement:
    """Finite map from odd partitions to nonzero TPoly coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Partition, CoeffLike] = ()):
        clean: dict[Partition, TPoly] = {}
        for mu, c in dict(terms).items():
            mu = check_odd(mu)
            poly = _as_tpoly(c)
            if poly is None:
                raise TypeError(f"coefficient of p_{mu} must be TPoly or rational")
            if not poly.is_zero:
                clean[mu] = poly
        self._terms = clean

    @classmethod
    def _from_raw(cls, terms: dict[Partition, TPoly]) -> "GammaElement":
        """Internal fast path: keys already odd partitions, coefficients
        already nonzero.  Negation, a nonzero scalar and d_dp keep them so."""
        self = object.__new__(cls)
        self._terms = terms
        return self

    @classmethod
    def _pruned(cls, terms: dict[Partition, TPoly]) -> "GammaElement":
        """_from_raw after dropping the zeros that cancellation in a sum leaves."""
        return cls._from_raw({mu: c for mu, c in terms.items() if not c.is_zero})

    def terms(self) -> Iterator[tuple[Partition, TPoly]]:
        """(partition, coefficient) pairs in decreasing lexicographic key order."""
        for mu in sorted(self._terms, reverse=True):
            yield mu, self._terms[mu]

    def coefficient(self, mu: Partition) -> TPoly:
        return self._terms.get(tuple(mu), ZERO)

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
        out = dict(self._terms)
        for mu, c in other._terms.items():
            s = out.get(mu)
            out[mu] = c if s is None else s + c
        return GammaElement._pruned(out)

    def __neg__(self) -> "GammaElement":
        return GammaElement._from_raw({mu: -c for mu, c in self._terms.items()})

    def __sub__(self, other) -> "GammaElement":
        if not isinstance(other, GammaElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "GammaElement":
        c = _as_tpoly(other)
        if c is not None:
            if c.is_zero:
                return GammaElement()
            return GammaElement._from_raw(
                {mu: coeff * c for mu, coeff in self._terms.items()}
            )
        if not isinstance(other, GammaElement):
            return NotImplemented
        out: dict[Partition, TPoly] = {}
        for mu, cf in self._terms.items():
            for nu, cg in other._terms.items():
                key = union_sorted(mu, nu)
                prod = cf * cg
                s = out.get(key)
                out[key] = prod if s is None else s + prod
        return GammaElement._pruned(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, GammaElement):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable-dict backed; compare by value only

    def __repr__(self) -> str:
        if self.is_zero:
            return "GammaElement(0)"
        body = " + ".join(f"({c})*p[{','.join(map(str, mu))}]" for mu, c in self.terms())
        return f"GammaElement({body})"


def p_monomial(mu: Partition) -> GammaElement:
    """The power-sum monomial p_mu, mu an odd partition."""
    return GammaElement({tuple(mu): ONE})


def one() -> GammaElement:
    """The vacuum vector: the unit of the ring."""
    return GammaElement({(): ONE})


def d_dp(n: int, f: GammaElement) -> GammaElement:
    """The derivative d/dp_n, n odd: kills p_n-free monomials, else removes one part.

    Distinct monomials stay distinct, since mu is the result's key plus one
    part n, so no two terms meet and no coefficient becomes zero."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"derivative index must be odd and positive: {n}")
    out: dict[Partition, TPoly] = {}
    for mu, c in f._terms.items():
        m = mu.count(n)
        if m:
            i = mu.index(n)
            out[mu[:i] + mu[i + 1 :]] = c * m
    return GammaElement._from_raw(out)


def pn_star(n: int, f: GammaElement) -> GammaElement:
    """The adjoint of multiplication by p_n: (n/2) d/dp_n."""
    return d_dp(n, f) * Fraction(n, 2)


def pair(f: GammaElement, g: GammaElement) -> TPoly:
    """Bilinear form with <p_lam, p_mu> = 2^{-l(lam)} delta_{lam,mu} z_lam."""
    total = ZERO
    small, big = (f._terms, g._terms) if len(f._terms) <= len(g._terms) else (g._terms, f._terms)
    for mu, cf in small.items():
        cg = big.get(mu)
        if cg is not None:
            total = total + cf * cg * Fraction(z_factor(mu), 2 ** len(mu))
    return total

