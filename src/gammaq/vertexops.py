"""Executable vertex operators on the odd-power-sum ring.

Each operator is a product (creation exponential) * (annihilation
exponential) of series in odd power sums and their derivatives, with a mode
expansion in a formal variable z.  A mode is extracted exactly:

  * the annihilation exponential acts on a power-sum monomial as the
    substitution p_n -> p_n + a_n z^{-n}, a finite sum over the sub-multisets
    of its parts, so z-exponents are bounded below by -deg(f);
  * the creation exponential is then truncated at exactly the z-degree the
    requested mode needs.

No series-order parameter is exposed; results are exact.

A mode runs on the int numerators of its input over the input's one
denominator (see gamma): the substitution weights are int coefficient
tuples, since every annihilation rule here is an integer polynomial, and
the products with the creation terms are summed over the lcm of their
denominators and reduced once.  The creation terms are built on ints the
same way: each term's numerator is a product of the creation rules' int
numerators, and the terms share the lcm of their denominators.  Every int
product is tpoly's _pmul; every sum into a dict of int lists is gamma's
_accumulate.

Five registered memos, each filled by memo.cached, keep the work from
repeating:

  _creation_memo     the creation term of each z-degree, keyed (spec, r);
  _weights_memo      the substitution weights of each part value and
                     multiplicity, keyed (spec, n, count);
  _annihilate_memo   the annihilation expansion of each input vector,
                     grouped by the weight it takes off, keyed (spec, f);
  _apply_memo        each mode applied to each input vector, keyed
                     (spec, m, f);
  _vacuum_memo       each mode sequence applied to the vacuum, keyed
                     (spec, modes).

A vector f is its own key: GammaElement hashes by value, once per object,
so equal vectors hit whatever their term order, and vectors with equal
numerators over different denominators never meet.  The operator
identities apply the same inner modes for every outer mode, so most mode
applications are repeats, and the modes of one vector share its
annihilation expansion.

Specs provided here:

  Q_SPEC      creation 2/n,            annihilation -1        (modes ~ z^n)
  G_SPEC      creation 2/n,            annihilation t^n - 1   (modes ~ z^n)
  GSTAR_SPEC  creation 2(t^n - 1)/n,   annihilation +1        (modes ~ z^-n)
  QSTAR_SPEC  no creation part,        annihilation +1        (modes ~ z^-n)

Applying Q-modes of a strict partition to the vacuum yields the Schur
Q-function vectors; G-modes yield the Q-Hall-Littlewood vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from typing import Callable, NamedTuple, Sequence

from .gamma import GammaElement, _accumulate, one, pair
from .memo import cached, memo
from .partitions import (
    Partition,
    check_strict,
    enumerate_odd,
    enumerate_strict,
    multiplicities,
    union_sorted,
)
from .tpoly import ONE, TPoly, _pmul


class OperatorSpec(NamedTuple):
    """Creation/annihilation coefficient rules for one vertex operator.

    creation(n) multiplies p_n z^n in the creation exponential and
    annihilation(n) multiplies d/dp_n z^{-n} in the annihilation
    exponential, for each odd n >= 1.  star selects the z^{-n} mode
    grading used by adjoint series.
    """

    key: str
    creation: Callable[[int], TPoly]
    annihilation: Callable[[int], TPoly]
    star: bool = False


def _tp(*coeffs) -> TPoly:
    return TPoly(coeffs)


def _tn_minus_1(n: int) -> TPoly:
    return TPoly((-1,) + (0,) * (n - 1) + (1,))


Q_SPEC = OperatorSpec(
    "Q",
    creation=lambda n: _tp(Fraction(2, n)),
    annihilation=lambda n: _tp(-1),
)

G_SPEC = OperatorSpec(
    "G",
    creation=lambda n: _tp(Fraction(2, n)),
    annihilation=_tn_minus_1,
)

GSTAR_SPEC = OperatorSpec(
    "G*",
    creation=lambda n: _tn_minus_1(n) * Fraction(2, n),
    annihilation=lambda n: ONE,
    star=True,
)

QSTAR_SPEC = OperatorSpec(
    "q*",
    creation=lambda n: TPoly(),
    annihilation=lambda n: ONE,
    star=True,
)


_creation_memo: dict[tuple[str, int], GammaElement] = memo()
_annihilate_memo: dict[tuple[str, GammaElement], list[tuple[int, dict[Partition, tuple[int, ...]]]]] = memo()
_apply_memo: dict[tuple[str, int, GammaElement], GammaElement] = memo()
_weights_memo: dict[tuple[str, int, int], list[tuple[int, ...]]] = memo()
_vacuum_memo: dict[tuple[str, tuple[int, ...]], GammaElement] = memo()


@cached(_creation_memo, key=lambda spec, r: (spec.key, r))
def _creation_term(spec: OperatorSpec, r: int) -> GammaElement:
    """Coefficient of z^r in the creation exponential exp(sum_n c_n p_n z^n),
    n odd and c_n = spec.creation(n), as a ring element:

        sum over odd rho of weight r of  prod_n c_n^{m_n} / m_n!  p_rho,

    m_n the multiplicity of n in rho; for Q and G this is q_r, the weight
    of p_rho being 2^{l(rho)} / z_rho.  Each term is the product of the
    rules' int numerators over prod_n den(c_n)^{m_n} m_n!; the terms are
    scaled to the lcm of those denominators and reduced once."""
    rules = {n: spec.creation(n) for n in range(1, r + 1, 2)}
    terms = []
    for rho in enumerate_odd(r):
        num, den = [1], 1
        for n, m in multiplicities(rho).items():
            c = rules[n]
            for _ in range(m):
                num = _pmul(num, c._num)
            den *= c._den**m * factorial(m)
        terms.append((rho, num, den))
    common = lcm(*(den for _, _, den in terms))
    return GammaElement._make({rho: [c * (common // den) for c in num] for rho, num, den in terms}, common)


@cached(_weights_memo, key=lambda spec, n, count: (spec.key, n, count))
def _weights(spec: OperatorSpec, n: int, count: int) -> list[tuple[int, ...]]:
    """C(count, k) a_n^k for k = 0..count, as int coefficient tuples: the
    weights of the substitution p_n -> p_n + a_n z^{-n} on p_n^count.
    Raises ValueError unless a_n is an integer polynomial, as it is for
    every spec here."""
    a = spec.annihilation(n)
    if a._den != 1:
        raise ValueError(f"annihilation rule of {spec.key} at {n} is not an integer polynomial: {a}")
    return [(a**k * comb(count, k))._num for k in range(count + 1)]


@cached(_annihilate_memo, key=lambda spec, f: (spec.key, f))
def _annihilate(spec: OperatorSpec, f: GammaElement) -> list[tuple[int, dict[Partition, tuple[int, ...]]]]:
    """The annihilation exponential on f, grouped by the weight s it takes
    off: [(s, {nu: numerator})], the numerators ints over f's denominator.

    On c p_mu it is the substitution p_n -> p_n + a_n z^{-n}, so a part value
    n of multiplicity c_n expands to sum_k C(c_n, k) a_n^k z^{-nk}
    p_n^{c_n - k}.  Zero numerators and the groups they empty are dropped.
    The expansion does not depend on the mode, so every mode of spec on f
    shares it: memoized on (spec, f), with the numerators stored as tuples."""
    groups: dict[int, dict[Partition, list[int]]] = {}
    for mu, c in f._terms.items():
        expansion = [(0, (), c)]
        for n, count in multiplicities(mu).items():
            weights = _weights(spec, n, count)
            expansion = [
                (s + n * k, nu + (n,) * (count - k), _pmul(weights[k], w) if k else w)
                for s, nu, w in expansion
                for k in range(count + 1)
            ]
        # _accumulate adds in place.  Only the s = 0 entry is c itself, a
        # tuple, under nu = mu, which no other term of f reaches, so nothing
        # is added into it; every other w is a new list.
        for s, nu, w in expansion:
            _accumulate(groups.setdefault(s, {}), nu, w)
    shared = []
    for s, group in groups.items():
        group = {nu: tuple(num) for nu, num in group.items() if any(num)}
        if group:
            shared.append((s, group))
    return shared


@cached(_apply_memo, key=lambda spec, m, f: (spec.key, m, f))
def apply_component(spec: OperatorSpec, m: int, f: GammaElement) -> GammaElement:
    """Apply the mode of index m: the coefficient of z^m (z^{-m} for starred
    specs) in (creation exponential) (annihilation exponential) f.

    Each group of _annihilate(spec, f), of weight s taken off, is multiplied
    by the creation term of z-degree r = m + s (s - m when starred) when
    r >= 0.  The products are summed over the lcm of the creation terms'
    denominators and reduced once.

    Memoized on (spec, m, f); f hashes by value, so equal vectors hit
    whatever their term order.  The result is shared, as GammaElement has
    no mutator."""
    factors = []
    for s, group in _annihilate(spec, f):
        r = (s - m) if spec.star else (m + s)
        if r >= 0:
            factors.append((_creation_term(spec, r), group))
    den = lcm(*(creation._den for creation, _ in factors))
    out: dict[Partition, list[int]] = {}
    for creation, group in factors:
        scale = den // creation._den
        for rho, cr in creation._terms.items():
            if scale != 1:
                cr = [c * scale for c in cr]
            for nu, cg in group.items():
                _accumulate(out, union_sorted(rho, nu), _pmul(cr, cg))
    return GammaElement._make(out, f._den * den)


@cached(_vacuum_memo, key=lambda spec, modes: (spec.key, modes))
def _modes_on_vacuum(spec: OperatorSpec, modes: tuple[int, ...]) -> GammaElement:
    """The modes applied to the vacuum right to left (modes[0] acts last),
    memoized; shared across common suffixes."""
    if not modes:
        return one()
    return apply_component(spec, modes[0], _modes_on_vacuum(spec, modes[1:]))


def schur_q(lam: Partition) -> GammaElement:
    """The Schur Q-function vector of a strict partition."""
    return _modes_on_vacuum(Q_SPEC, check_strict(lam))


def qhl(lam: Partition) -> GammaElement:
    """The Q-Hall-Littlewood vector of a strict partition."""
    return _modes_on_vacuum(G_SPEC, check_strict(lam))


def g_modes_on_vacuum(modes: Sequence[int]) -> GammaElement:
    """G-mode composition on the vacuum; TypeError unless every mode is an int."""
    modes = tuple(modes)
    if any(type(m) is not int for m in modes):  # a float or bool too, as check_partition
        raise TypeError(f"modes must be ints: {modes}")
    return _modes_on_vacuum(G_SPEC, modes)


def q_row(n: int) -> GammaElement:
    """The one-row Schur Q-function q_n; q_0 = 1."""
    if n < 0:
        raise ValueError("q_n undefined for negative n")
    return _creation_term(Q_SPEC, n)


def q_or_zero(n: int) -> GammaElement:
    """q_n, extended by zero to negative indices."""
    return q_row(n) if n >= 0 else GammaElement()


def gstar_on_schur(k: int, lam: Partition) -> GammaElement:
    """Closed form for the k-th starred G-mode on a Schur Q-vector:

        sum_i (-1)^{i-1} 2 t^{lam_i - k} q_{lam_i - k} Q_{lam^(i)} . 1

    Terms with lam_i < k vanish since q_n = 0 for n < 0.
    """
    if k < 1:
        raise ValueError("mode index must be positive")
    lam = check_strict(lam)
    result = GammaElement()
    for i, part in enumerate(lam):
        r = part - k
        if r < 0:
            continue
        term = q_row(r) * schur_q(lam[:i] + lam[i + 1 :])
        result = result + term * TPoly.term(2 * (-1) ** i, r)
    return result


def expand_in_schur_q(f: GammaElement) -> dict[Partition, TPoly]:
    """Expansion of a homogeneous element in the Schur Q-basis.

    Uses orthogonality: the coefficient at a strict lam is
    2^{-l(lam)} <f, Q_lam . 1>.
    """
    if f.is_zero:
        return {}
    out: dict[Partition, TPoly] = {}
    for lam in enumerate_strict(f.degree()):
        c = pair(f, schur_q(lam)) * Fraction(1, 2 ** len(lam))
        if not c.is_zero:
            out[lam] = c
    return out
