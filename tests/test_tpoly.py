from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gammaq.memo import clear_memos
from gammaq.partitions import enumerate_odd, enumerate_partitions, index_subpartitions, z_factor
from gammaq.tpoly import (
    ONE,
    T,
    TPoly,
    ZERO,
    _text,
    d_poly,
    inv_z_t,
    signed_t,
)


def test_arithmetic_basics():
    assert TPoly([1, 1]) * TPoly([1, -1]) == TPoly([1, 0, -1])
    assert TPoly([1, 2])(0) == 1
    assert TPoly([1, 1]) + TPoly([-1, -1]) == ZERO
    assert (2 * T + 1) - (2 * T + 1) == ZERO
    assert T**3 == TPoly([0, 0, 0, 1])
    assert TPoly([Fraction(1, 2)]) * 2 == ONE
    assert TPoly([1, 2, 3])(Fraction(1, 2)) == Fraction(1) + 1 + Fraction(3, 4)
    assert ZERO(5) == 0
    assert TPoly([Fraction(1, 3), 1])(-2) == Fraction(-5, 3)
    assert 1 - T == TPoly([1, -1])  # __rsub__
    assert T.coefficient(5) == 0  # past the degree
    with pytest.raises(TypeError):
        TPoly([1, 2])(0.5)
    with pytest.raises(ValueError):
        TPoly.term(1, -1)
    with pytest.raises(ValueError):
        T**-1


def test_canonical_form():
    assert TPoly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert TPoly([0, 0]).is_zero
    assert ZERO.degree == -1
    assert TPoly([0, 1]).degree == 1
    assert ONE == 1 and TPoly((2,)) == Fraction(2)
    assert (ONE == "1") is False


def test_str():
    assert str(TPoly([5, 8, 2])) == "2t^2+8t+5"
    assert str(ZERO) == "0"
    assert str(TPoly([-1, 0, 2])) == "2t^2-1"
    assert str(T) == "t"
    assert str(TPoly([Fraction(3, 2), 1])) == "t+3/2"
    assert repr(TPoly([Fraction(1, 2), 0, 3])) == "TPoly([Fraction(1, 2), Fraction(0, 1), Fraction(3, 1)])"
    assert repr(ZERO) == "TPoly([])"


def test_json_round_trip():
    p = TPoly([Fraction(1, 3), -2, 0, 5])
    assert TPoly.from_json(p.to_json()) == p
    assert (2 * T + 1).to_json() == ["1", "2"]
    assert ZERO.to_json() == []


def test_from_json_reads_integers_and_fractions_alike():
    mixed = ["3", "-1/2", "0", "-7", "4/6"]
    expected = TPoly(Fraction(s) for s in mixed)
    assert TPoly.from_json(mixed) == expected
    assert TPoly.from_json(mixed).coeffs == expected.coeffs
    assert TPoly.from_json(["-2", "0", "5", "0"]) == TPoly(Fraction(s) for s in ["-2", "0", "5"])
    assert TPoly.from_json([]) == ZERO


@pytest.mark.parametrize(
    "data",
    [["1.5"], ["1e3"], ["1", "1.5"], ["1/2", "1.5"], ["1/2", "1e3"], ["x"], [1], ["1", 2], [None], [["1"]], "12",
     ["+1"], [" 1"], ["1_0"], ["\u0663"], ["+1", "1/2"]],
)
def test_from_json_rejects_non_exact_coefficients(data):
    with pytest.raises((ValueError, TypeError)):
        TPoly.from_json(data)


@pytest.mark.parametrize("bad", [[0.1], ["1/2"], [1, 2.0], [None], [Decimal(1)], [1j]])
def test_constructor_accepts_only_int_and_fraction(bad):
    with pytest.raises(TypeError):
        TPoly(bad)


def test_scalars_must_be_exact():
    for op in (lambda: ONE * 0.5, lambda: ONE + 0.5, lambda: ONE - "1", lambda: ONE(0.5)):
        with pytest.raises(TypeError):
            op()


def test_signed_t():
    assert signed_t(3) == TPoly([1, -1, 1])
    assert signed_t(0) == ONE
    assert signed_t(-2) == ZERO


def test_signed_t_sum_identity():
    # (k)_t + 2 sum_{i<k} (i)_t = [k]_t
    for k in range(1, 31):
        total = signed_t(k)
        for i in range(1, k):
            total = total + 2 * signed_t(i)
        assert total == TPoly([1] * k), k


def test_d_poly():
    assert d_poly((5, 1, 1)) == TPoly([1, 1]) ** 2 * TPoly([1, 0, 0, 0, 0, 1])
    assert d_poly(()) == ONE
    assert d_poly((3, 3)) == TPoly([1, 0, 0, 1]) ** 2


def test_d_poly_counts_index_subpartitions():
    for n in range(11):
        for p in enumerate_partitions(n):
            poly = d_poly(p)
            assert poly.degree == n
            for i in range(n + 1):
                count = sum(c for _, c in index_subpartitions(p, i))
                assert poly.coefficient(i) == count, (p, i)


def test_d_poly_palindromic():
    for n in range(11):
        for p in enumerate_partitions(n):
            coeffs = d_poly(p).coeffs
            assert coeffs == coeffs[::-1], p


def test_inv_z_t():
    assert inv_z_t((1,)) == TPoly([-2, 2])
    assert inv_z_t(()) == ONE
    with pytest.raises(ValueError):
        inv_z_t((2,))


def test_memoized_helpers_accept_a_list():
    # both are memoized on the tuple, so a list reads the tuple's entry
    value, pairs = inv_z_t((3, 1, 1)), index_subpartitions((5, 3, 1, 1), 6)
    assert inv_z_t([3, 1, 1]) is value
    assert index_subpartitions([5, 3, 1, 1], 6) is pairs


def test_z_factor_and_d_poly_take_a_list_and_refuse_a_non_partition():
    clear_memos()  # each refusal is made cold, then z_factor's again after its int twin
    assert z_factor([3, 1]) == z_factor((3, 1)) == 3
    assert d_poly([3, 1]) == d_poly((3, 1))
    for bad, error in (((2, 0), ValueError), ((1, 2), ValueError), ([True], TypeError), ((2.0,), TypeError)):
        for helper in (z_factor, d_poly):
            with pytest.raises(error):
                helper(bad)
    for bad in ([True], (2.0,), (3, True)):
        twin = tuple(map(int, bad))  # equal to bad, so it fills bad's memo key
        assert z_factor(twin) > 0
        with pytest.raises(TypeError):
            z_factor(bad)


def test_inv_z_t_sum_identity():
    # sum over odd partitions of n equals 2(t-1)(n)_t; empty sum is 1
    assert sum((inv_z_t(r) for r in enumerate_odd(0)), ZERO) == ONE
    for n in range(1, 21):
        total = sum((inv_z_t(rho) for rho in enumerate_odd(n)), ZERO)
        assert total == TPoly([-2, 2]) * signed_t(n), n


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
tpolys = st.lists(small_fractions, max_size=6).map(TPoly)


@settings(max_examples=100, deadline=None)
@given(tpolys, tpolys, tpolys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * ONE == a
    assert a + ZERO == a
    assert a - a == ZERO


@settings(max_examples=100, deadline=None)
@given(tpolys, tpolys, small_fractions)
def test_evaluation_is_a_homomorphism(a, b, x):
    assert (a * b)(x) == a(x) * b(x)
    assert (a + b)(x) == a(x) + b(x)


# Differential test of the integer-numerator representation against a plain
# list of Fractions, ascending, without trailing zeros.


def _ref(cs) -> list[Fraction]:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _ref((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref(out)


def _ref_str(cs, brace: bool = False) -> str:
    # each term written from its Fraction value, with the string tests of the
    # rational path TPoly.__str__ took before the one int writer
    pieces = []
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if pieces else "")
        mag = str(abs(c))
        if k == 0:
            body = mag
        else:
            tpow = "t" if k == 1 else f"t^{{{k}}}" if brace else f"t^{k}"
            if mag == "1":
                body = tpow
            elif "/" not in mag:
                body = f"{mag}{tpow}"
            else:
                body = f"({mag}){tpow}"
        pieces.append(sign + body)
    return "".join(pieces) or "0"


def _assert_matches(p: TPoly, ref: list[Fraction]) -> None:
    num, den = p._num, p._den
    assert type(num) is tuple and all(type(c) is int for c in num)
    assert type(den) is int and den > 0
    assert not num or num[-1] != 0
    assert gcd(den, *num) == 1  # reduced; the zero polynomial has den 1
    assert p.coeffs == tuple(ref)
    integral = all(c.denominator == 1 for c in ref)
    assert all(type(c) is (int if integral else Fraction) for c in p.coeffs)
    assert [p.coefficient(k) for k in range(len(ref))] == ref
    assert str(p) == _ref_str(ref)
    assert p.to_json() == [str(c) for c in ref]


coeff_lists = st.lists(small_fractions | st.integers(-5, 5), max_size=6)
scalars = small_fractions | st.integers(-5, 5)


@settings(max_examples=200, deadline=None)
@given(coeff_lists, coeff_lists, scalars)
def test_matches_fraction_reference(ca, cb, s):
    a, b = TPoly(ca), TPoly(cb)
    ra, rb = _ref(ca), _ref(cb)
    _assert_matches(a, ra)
    _assert_matches(a + b, _ref_add(ra, rb))
    _assert_matches(a - b, _ref_add(ra, [-c for c in rb]))
    _assert_matches(-a, [-c for c in ra])
    _assert_matches(a * b, _ref_mul(ra, rb))
    _assert_matches(a * s, _ref([c * s for c in ra]))
    _assert_matches(s * a, _ref([c * s for c in ra]))
    _assert_matches(a + s, _ref_add(ra, [Fraction(s)]))
    assert a(s) == sum((c * Fraction(s) ** k for k, c in enumerate(ra)), Fraction(0))
    assert type(a(s)) is Fraction


_text_ints = st.integers(-3, 3) | st.integers()
_text_coeffs = st.lists(_text_ints, max_size=14) | st.lists(
    _text_ints | small_fractions | st.fractions(max_denominator=10**6), max_size=14
)


@settings(max_examples=300, deadline=None)
@given(_text_coeffs, st.booleans())
@example([], False)
@example([0, 0], True)
@example([Fraction(1, 2), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, Fraction(-3, 2)], True)
def test_text_writer_matches_the_fraction_reference(cs, brace):
    """The one writer, on int lists and on lists with Fractions, plain and
    braced, writes what the Fraction reference writes; zero is '0'."""
    p = TPoly(cs)
    ref = _ref(cs)
    assert _text(p._num, p._den, brace) == _ref_str(ref, brace)
    assert str(p) == _ref_str(ref)
    if p._den == 1:
        assert _text(p._num, brace=brace) == _ref_str(ref, brace)


@settings(max_examples=200, deadline=None)
@given(coeff_lists)
def test_same_value_is_equal_and_hashes_alike(cs):
    ref = _ref(cs)
    a = TPoly(cs)
    builds = [
        TPoly(ref),
        TPoly([Fraction(c.numerator * 2, c.denominator * 2) for c in ref] + [Fraction(0, 3)]),
        sum((TPoly.term(c, k) for k, c in enumerate(ref)), ZERO),
        a * 6 * Fraction(1, 6),
        (a + TPoly([Fraction(1, 7)])) - Fraction(1, 7),
        TPoly.from_json(a.to_json()),
    ]
    for b in builds:
        assert b == a
        assert hash(b) == hash(a)
        assert (b._num, b._den) == (a._num, a._den)
    assert TPoly([Fraction(2, 4)]) == TPoly([Fraction(1, 2)])
    assert hash(TPoly([Fraction(2, 1), 0])) == hash(TPoly([2]))


# Strings with a slash: the num/den form _ratio_str writes, zero and
# unreduced denominators included, and text that Fraction may or may not read.
_slashed = st.one_of(
    st.tuples(st.integers(-10**6, 10**6), st.integers(0, 10**6)).map(lambda nd: f"{nd[0]}/{nd[1]}"),
    st.tuples(st.text("0123456789-+ _.e\u0663", max_size=4), st.text("0123456789-+ _.e/\u0663", max_size=4))
    .map("/".join),
    st.tuples(st.text(max_size=4), st.text(max_size=4)).map("/".join),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_slashed | st.integers(-9, 9).map(str), min_size=1, max_size=4), _slashed)
def test_from_json_reads_a_slash_only_as_fraction_reads_it(data, slashed):
    """A list that from_json accepts is the TPoly of Fraction's values of
    its strings; a zero denominator raises ZeroDivisionError, as Fraction
    does, and anything else it refuses raises ValueError."""
    data = data + [slashed]
    try:
        parsed = TPoly.from_json(data)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            [Fraction(s) for s in data]
        return
    except ValueError:
        return
    reference = TPoly(Fraction(s) for s in data)
    assert (parsed._num, parsed._den) == (reference._num, reference._den)
