from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammaq import partitions
from gammaq.memo import clear_memos
from gammaq.partitions import (
    check_odd,
    check_partition,
    check_strict,
    dominance_leq,
    enumerate_odd,
    enumerate_partitions,
    enumerate_strict,
    epsilon,
    horizontal_strips,
    index_subpartitions,
    multiplicities,
    n_stat,
    parse_partition,
    partition_str,
    union_sorted,
    z_factor,
)


def test_n_stat():
    assert n_stat(()) == 0
    assert n_stat((3, 2, 1)) == 4
    assert n_stat((4, 2, 1)) == 4


def test_z_factor():
    assert z_factor((1, 1, 1)) == 6
    assert z_factor((3,)) == 3
    assert z_factor((5, 1, 1)) == 10


def test_z_factor_is_the_product_formula_on_a_cold_and_a_warm_memo():
    def product_formula(p):
        return prod(i**m * factorial(m) for i, m in Counter(p).items())

    partitions = [p for n in range(13) for p in enumerate_partitions(n)]
    expected = list(map(product_formula, partitions))
    assert [z_factor(p) for p in partitions] == expected
    clear_memos()
    assert [z_factor(p) for p in partitions] == expected  # fills the memo
    assert [z_factor(p) for p in partitions] == expected  # reads it


def test_epsilon():
    assert epsilon((3, 2)) == 1
    assert epsilon((2, 1)) == 1
    assert epsilon((4, 2, 1)) == 0


def test_dominance():
    assert dominance_leq((3, 2), (4, 1))
    assert not dominance_leq((4, 1), (3, 2))
    assert dominance_leq((3, 2), (3, 2))
    assert not dominance_leq((3,), (2, 1, 1))  # weight mismatch never compares
    assert not dominance_leq((3, 3), (4, 1))  # 6 vs 5


def test_validators():
    assert check_partition([4, 2, 1]) == (4, 2, 1)
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((3, 0))
    with pytest.raises(ValueError):
        check_strict((3, 3))
    with pytest.raises(ValueError):
        check_odd((3, 2))
    for part in (4.9, Fraction(4), "4", True):  # never truncated or converted
        with pytest.raises(TypeError):
            check_partition((part, 1))


def _old_check_partition(parts):
    """The three rules check_partition applied as generator scans, kept as
    the oracle for its refusals and their messages."""
    p = tuple(parts)
    if any(type(x) is not int for x in p):
        raise TypeError(f"parts must be ints: {p}")
    if any(x < 1 for x in p):
        raise ValueError(f"parts must be positive integers: {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {p}")
    return p


def _outcome(fn, parts):
    try:
        return fn(parts)
    except (TypeError, ValueError) as e:
        return type(e), str(e)


_parts = st.one_of(
    st.integers(-3, 6),
    st.integers(max_value=0),
    st.booleans(),
    st.floats(),
    st.fractions(-3, 6),
    st.text(max_size=2),
)


# Int-only tuples reach the two ValueError rules; mixed ones the TypeError.
_part_tuples = st.one_of(st.lists(st.integers(-3, 6), max_size=6), st.lists(_parts, max_size=5)).map(tuple)


@settings(max_examples=200, deadline=None)
@given(_part_tuples)
def test_check_partition_refuses_as_the_generator_scans_did(parts):
    assert _outcome(check_partition, parts) == _outcome(_old_check_partition, parts)


def test_enumerate_order():
    assert enumerate_strict(7) == ((7,), (6, 1), (5, 2), (4, 3), (4, 2, 1))
    assert enumerate_odd(7) == (
        (7,),
        (5, 1, 1),
        (3, 3, 1),
        (3, 1, 1, 1, 1),
        (1, 1, 1, 1, 1, 1, 1),
    )
    assert enumerate_strict(0) == ((),)
    assert enumerate_odd(0) == ((),)
    assert enumerate_partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    for enumerator in (enumerate_partitions, enumerate_strict, enumerate_odd):
        with pytest.raises(ValueError):
            enumerator(-1)


def test_euler_identity():
    # partitions into odd parts and into distinct parts are equinumerous
    for n in range(31):
        assert len(enumerate_odd(n)) == len(enumerate_strict(n))


# The recursive generator the enumerators replaced, kept verbatim as their
# reference: each weight walked from scratch, parts capped from the top.
def _partitions(m, cap, strict, odd):
    """Partitions of m with parts <= cap, decreasing lexicographic; strict
    ones have distinct parts, odd ones only odd parts."""
    if m < 0:
        raise ValueError(f"weight must be non-negative: {m}")
    if m == 0:
        yield ()
        return
    top = min(m, cap)
    if odd and top % 2 == 0:
        top -= 1
    for k in range(top, 0, -2 if odd else -1):
        for rest in _partitions(m - k, k - strict, strict, odd):
            yield (k,) + rest


@pytest.mark.parametrize(
    "enumerator, strict, odd",
    [(enumerate_partitions, False, False), (enumerate_strict, True, False), (enumerate_odd, False, True)],
)
def test_enumerators_built_from_smaller_weights_equal_the_generator(monkeypatch, enumerator, strict, odd):
    # the enumerator reads the smaller weights through its module name
    depth = [0, 0]

    def tracked(n):
        depth[0] += 1
        depth[1] = max(depth)
        try:
            return enumerator(n)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(partitions, enumerator.__name__, tracked)
    enumerator.cache_clear()
    tracked(30)  # fills every smaller weight bottom-up, none recursing 30 deep
    # at most three weights are built one inside another, the innermost
    # reading cached weights: four calls deep at any n, where a top-down
    # recursion would go n + 1 deep
    assert depth[1] <= 4
    assert enumerator.cache_info().currsize == 31
    for n in range(31):
        assert enumerator(n) == tuple(_partitions(n, n, strict, odd)), n


def test_index_subpartitions():
    assert index_subpartitions((1, 1), 1) == [((1,), 2)]
    assert index_subpartitions((3, 2), 0) == [((), 1)]
    assert index_subpartitions((5, 1, 1), 2) == [((1, 1), 1)]
    assert index_subpartitions((3, 2), 5) == [((3, 2), 1)]
    # one nu chosen C(20, 10) ways, listed once with that count
    assert index_subpartitions((1,) * 20, 10) == [((1,) * 10, 184756)]
    with pytest.raises(ValueError):
        index_subpartitions((3,), 4)


@pytest.mark.parametrize(
    "p, i, error",
    [((1, 2), 3, ValueError), ((True,), 1, TypeError), ((2, 0), 2, ValueError), ((2.5,), 0, TypeError)],
)
def test_index_subpartitions_refuses_a_non_partition(p, i, error):
    clear_memos()
    with pytest.raises(error):
        index_subpartitions(p, i)


def test_index_subpartitions_answer_does_not_depend_on_a_refused_call():
    # True == 1 in the memo key, so an unchecked (True,) * 3 would be stored
    # and served for (1, 1, 1)
    clear_memos()
    with pytest.raises(TypeError):
        index_subpartitions((True, True, True), 1)
    [(nu, count)] = index_subpartitions((1, 1, 1), 1)
    assert (nu, count) == ((1,), 3) and type(nu[0]) is int


def _index_subpartitions_reference(p):
    """Weight -> every index subset of p as a subpartition, by brute force."""
    by_weight = {i: [] for i in range(sum(p) + 1)}
    for k in range(len(p) + 1):
        for idx in combinations(range(len(p)), k):
            sub = tuple(p[j] for j in idx)
            by_weight[sum(sub)].append(sub)
    return by_weight


def test_index_subpartitions_brute_force():
    # every partition of weight <= 14, mixed ones such as (5,3,3,1,1,1) too
    for n in range(15):
        for p in enumerate_partitions(n):
            for i, expected in _index_subpartitions_reference(p).items():
                pairs = index_subpartitions(p, i)
                assert len({nu for nu, _ in pairs}) == len(pairs), (p, i)
                assert Counter(expected) == dict(pairs), (p, i)


def test_index_subpartition_multiplicities():
    """A distinct nu has count prod_j C(m_j(p), m_j(nu))."""
    for n in range(13):
        for p in enumerate_partitions(n):
            m = multiplicities(p)
            for i in range(n + 1):
                for nu, count in index_subpartitions(p, i):
                    expected = prod(comb(m[part], k) for part, k in multiplicities(nu).items())
                    assert count == expected, (p, nu)


def test_union_sorted():
    assert union_sorted((3, 1), (5, 1)) == (5, 3, 1, 1)
    assert union_sorted((), (3,)) == (3,)
    assert union_sorted((1, 1), (1,)) == (1, 1, 1)


def test_text_forms():
    assert partition_str((4, 2, 1)) == "4,2,1"
    assert partition_str(()) == ""
    assert parse_partition("4,2,1") == (4, 2, 1)
    assert parse_partition("") == ()
    with pytest.raises(ValueError):
        parse_partition("1,2")


@pytest.mark.parametrize("text", [" 4,2", "4,2 ", "4,+2", "1_0", "4,\u0662", "()1", "4,,1"])
def test_parse_partition_reads_ascii_digits_only(text):
    with pytest.raises(ValueError):
        parse_partition(text)


def test_horizontal_strips_examples():
    assert horizontal_strips((2,), 1) == [((3,), 1), ((2, 1), 1)]
    assert horizontal_strips((4, 2), 0) == [((4, 2), 0)]
    assert [outer for outer, _ in horizontal_strips((3, 1), 2)] == [(5, 1), (4, 2), (3, 2, 1)]
    with pytest.raises(ValueError):
        horizontal_strips((2,), -1)


def _contains(inner, outer):
    if len(outer) < len(inner):
        return False
    return all(outer[i] >= v for i, v in enumerate(inner))


def _brute_is_strip(inner, outer):
    # at most one skew box per column, counted directly from the diagram
    if not _contains(inner, outer):
        return False
    for col in range(1, outer[0] + 1 if outer else 1):
        boxes = 0
        for row, o in enumerate(outer):
            lo = inner[row] if row < len(inner) else 0
            if lo < col <= o:
                boxes += 1
        if boxes > 1:
            return False
    return True


def _brute_a_stat(inner, outer):
    occupied = []
    for col in range(1, (outer[0] if outer else 0) + 1):
        if any(
            (inner[row] if row < len(inner) else 0) < col <= o
            for row, o in enumerate(outer)
        ):
            occupied.append(col)
    return sum(1 for c in occupied if c + 1 not in occupied)


def test_horizontal_strips_brute_force():
    # the exact list in decreasing lexicographic order: a shape listed twice
    # would be summed twice by the L recursion
    for w in range(9):
        for inner in enumerate_strict(w):
            for r in range(9):
                got = horizontal_strips(inner, r)
                expected = [
                    outer
                    for outer in enumerate_strict(w + r)
                    if _brute_is_strip(inner, outer)
                ]
                assert [outer for outer, _ in got] == expected, (inner, r)
                for outer, a in got:
                    assert a == _brute_a_stat(inner, outer), (inner, outer)
                    assert all(
                        outer[i + 1] <= inner[i]
                        for i in range(min(len(inner), len(outer) - 1))
                    )


def test_dominance_partial_order():
    for n in range(10):
        parts = enumerate_partitions(n)
        for a in parts:
            assert dominance_leq(a, a)
            for b in parts:
                if dominance_leq(a, b) and dominance_leq(b, a):
                    assert a == b
                if dominance_leq(a, b):
                    # dominated shapes are at least as long
                    assert len(b) <= len(a)
        for a in parts:
            for b in parts:
                if not dominance_leq(a, b):
                    continue
                for c in parts:
                    if dominance_leq(b, c):
                        assert dominance_leq(a, c)
