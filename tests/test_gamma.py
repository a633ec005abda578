from collections import Counter
from fractions import Fraction
from math import factorial, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammaq.gamma import (
    GammaElement,
    d_dp,
    one,
    p_monomial,
    pair,
    pn_star,
)
from gammaq.partitions import enumerate_odd, enumerate_strict, union_sorted
from gammaq.tpoly import ONE, TPoly, ZERO
from gammaq.vertexops import q_row, qhl, schur_q


def test_p_monomial_and_one():
    assert p_monomial((3, 1)).coefficient((3, 1)) == ONE
    assert one() == p_monomial(())
    assert repr(p_monomial((3, 1)) * TPoly([1, 2])) == "GammaElement((2t+1)*p[3,1])"
    assert repr(GammaElement()) == "GammaElement(0)"
    with pytest.raises(ValueError):
        p_monomial((2,))
    with pytest.raises(TypeError):
        GammaElement({(1,): 1.5})


def test_mul():
    assert p_monomial((3,)) * p_monomial((1, 1)) == p_monomial((3, 1, 1))
    f = p_monomial((1,)) + p_monomial((3,))
    assert f * one() == f
    assert f * p_monomial((1,)) == p_monomial((1, 1)) + p_monomial((3, 1))
    assert (f * 0).is_zero
    with pytest.raises(TypeError):
        f + 1


def test_d_dp():
    assert d_dp(1, p_monomial((1, 1))) == p_monomial((1,)) * 2
    assert d_dp(3, p_monomial((1,))).is_zero
    assert d_dp(5, p_monomial((5, 5, 1))) == p_monomial((5, 1)) * 2
    with pytest.raises(ValueError):
        d_dp(2, one())


def test_pair_examples():
    assert pair(p_monomial((3,)), p_monomial((3,))) == TPoly([Fraction(3, 2)])
    assert pair(p_monomial((1, 1)), p_monomial((3,))) == ZERO
    assert pair(qhl((3, 2)), qhl((4, 1))) == TPoly([0, 8, 0, 8])


def test_coefficient():
    assert (p_monomial((3, 1)) * 5).coefficient((3, 1)) == TPoly([5])
    assert one().coefficient(()) == ONE
    assert q_row(1).coefficient((1,)) == TPoly([2])


def test_degree():
    assert p_monomial((3, 1, 1)).degree() == 5
    assert GammaElement().degree() == 0
    with pytest.raises(ValueError):
        (p_monomial((1,)) + p_monomial((1, 1))).degree()


def test_adjointness_of_power_sums():
    # <p_n f, g> = <f, (n/2) d/dp_n g> on graded monomial bases
    for n in range(1, 8, 2):
        for d in range(0, 9 - n):
            for mu in enumerate_odd(d):
                for nu in enumerate_odd(d + n):
                    lhs = pair(p_monomial((n,)) * p_monomial(mu), p_monomial(nu))
                    rhs = pair(p_monomial(mu), pn_star(n, p_monomial(nu)))
                    assert lhs == rhs, (n, mu, nu)


def test_schur_q_orthogonality():
    # <Q_lam.1, Q_mu.1> = 2^{l(lam)} delta_{lam,mu} for weights <= 8
    for n in range(9):
        for lam in enumerate_strict(n):
            for mu in enumerate_strict(n):
                expected = TPoly([2 ** len(lam)]) if lam == mu else ZERO
                assert pair(schur_q(lam), schur_q(mu)) == expected, (lam, mu)
    assert pair(schur_q((2, 1)), schur_q((4,))) == ZERO


_odd_pool = [mu for w in range(9) for mu in enumerate_odd(w)]
_coeffs = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(TPoly)
_elements = st.dictionaries(st.sampled_from(_odd_pool), _coeffs, max_size=4).map(
    GammaElement
)


@settings(max_examples=100, deadline=None)
@given(_elements, _elements)
def test_pair_symmetric(f, g):
    assert pair(f, g) == pair(g, f)


@settings(max_examples=100, deadline=None)
@given(_elements, _elements, _elements, _coeffs)
def test_pair_bilinear(f, g, h, c):
    assert pair(f + g, h) == pair(f, h) + pair(g, h)
    assert pair(f * c, h) == pair(f, h) * c


@settings(max_examples=60, deadline=None)
@given(_elements, _elements)
def test_adjointness_random(f, g):
    for n in (1, 3, 5, 7):
        assert pair(p_monomial((n,)) * f, g) == pair(f, pn_star(n, g))


_nonzero_scalars = st.one_of(
    st.integers(-5, 5).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool),
    _coeffs.filter(lambda c: not c.is_zero),
)


@settings(max_examples=100, deadline=None)
@given(_elements, _nonzero_scalars)
def test_unpruned_results_hold_no_zero(f, c):
    """Negation, a nonzero scalar and d_dp leave no zero coefficient, and
    each equals the construction from the same terms."""
    derivative_terms = {n: {} for n in (1, 3, 5, 7)}
    for n, out in derivative_terms.items():
        for mu, coeff in f.terms():
            if n in mu:
                i = mu.index(n)
                key = mu[:i] + mu[i + 1 :]
                out[key] = out.get(key, ZERO) + coeff * mu.count(n)
    cases = [
        (-f, {mu: -coeff for mu, coeff in f.terms()}),
        (f * c, {mu: coeff * c for mu, coeff in f.terms()}),
    ] + [(d_dp(n, f), out) for n, out in derivative_terms.items()]
    for result, terms in cases:
        assert all(not coeff.is_zero for _, coeff in result.terms())
        assert result == GammaElement(terms)


# Rational coefficients, so that elements carry denominators other than 1.
_qcoeffs = st.lists(st.fractions(-3, 3, max_denominator=6), min_size=1, max_size=3).map(TPoly)
_qelements = st.dictionaries(st.sampled_from(_odd_pool), _qcoeffs, max_size=4).map(GammaElement)
_rational_scalars = st.one_of(
    st.integers(-5, 5).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool),
)


def _in_normal_form(element):
    """Positive _den, no trailing or all-zero numerator, and no factor common
    to _den and every coefficient (so _den is 1 for the zero element)."""
    nums = list(element._terms.values())
    coeffs = [c for num in nums for c in num]
    return element._den > 0 and all(num and num[-1] for num in nums) and gcd(element._den, *coeffs) == 1


def _nonzero(terms):
    return {mu: c for mu, c in terms.items() if not c.is_zero}


@settings(max_examples=100, deadline=None)
@given(_qelements, _qelements, _nonzero_scalars, _rational_scalars)
def test_ring_operations_match_termwise_tpoly_arithmetic(f, g, c, r):
    """Each operation on the common-denominator form gives the terms that
    TPoly arithmetic on the coefficients gives, and the normal form is
    unique: an element rebuilt along any route compares equal."""
    ft, gt = dict(f.terms()), dict(g.terms())
    total, difference = dict(ft), dict(ft)
    for mu, cg in gt.items():
        total[mu] = total.get(mu, ZERO) + cg
        difference[mu] = difference.get(mu, ZERO) - cg
    product = {}
    for mu, cf in ft.items():
        for nu, cg in gt.items():
            key = union_sorted(mu, nu)
            product[key] = product.get(key, ZERO) + cf * cg
    assert dict((f + g).terms()) == _nonzero(total)
    assert dict((f - g).terms()) == _nonzero(difference)
    assert dict((f * g).terms()) == _nonzero(product)
    assert dict((f * c).terms()) == {mu: cf * c for mu, cf in ft.items()}
    for n in (1, 3, 5, 7):
        derivative = {}
        for mu, cf in ft.items():
            if n in mu:
                i = mu.index(n)
                key = mu[:i] + mu[i + 1 :]
                derivative[key] = derivative.get(key, ZERO) + cf * mu.count(n)
        assert dict(d_dp(n, f).terms()) == derivative
    assert (f + g) - g == f
    assert f * r * (1 / Fraction(r)) == f
    for element in (f, g, f + g, f - g, f * g, f * c, (f + g) - g, d_dp(1, f)):
        assert _in_normal_form(element), element


def _z(mu):
    """z_mu = prod_i i^{m_i} m_i!, from the multiplicities."""
    return prod(i**m * factorial(m) for i, m in Counter(mu).items())


@settings(max_examples=60, deadline=None)
@given(_qelements, _qelements)
def test_pair_is_the_termwise_sum_over_common_monomials(f, g):
    """<f, g> = sum over common mu of c_f c_g z_mu / 2^{l(mu)}, summed in
    TPoly arithmetic on the rational coefficients."""
    ft, gt = dict(f.terms()), dict(g.terms())
    expected = ZERO
    for mu in ft.keys() & gt.keys():
        expected = expected + ft[mu] * gt[mu] * Fraction(_z(mu), 2 ** len(mu))
    assert pair(f, g) == expected


@settings(max_examples=100, deadline=None)
@given(_qelements, _qelements, _rational_scalars, st.randoms(use_true_random=False))
def test_equal_elements_hash_alike(f, g, c, rng):
    """Equal elements built by different routes hash alike, and a dict
    keyed by one is found by any other."""
    items = list(f.terms())
    rng.shuffle(items)
    routes = [GammaElement(dict(items)), (f * c) * (1 / Fraction(c)), f + g - g]
    table = {f: "f"}
    for other in routes:
        assert other == f and hash(other) == hash(f)
        assert table.get(other) == "f"
    assert f._hash == hash(f)  # computed once, then read from the slot
