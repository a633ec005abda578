import hashlib
import json
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gammaq.spingreen as spingreen
from gammaq.gamma import p_monomial, pair, pn_star
from gammaq.memo import clear_memos
from gammaq.partitions import enumerate_odd, enumerate_strict, union_sorted
from gammaq.qkostka import l_direct, l_recursive, l_table
from gammaq.spingreen import (
    spin_char_table,
    spin_character,
    y_direct,
    y_recursive,
    y_table,
    y_two_row,
    y_via_l,
)
from gammaq.tpoly import ONE, ZERO, TPoly, inv_z_t
from gammaq.vertexops import expand_in_schur_q, qhl, schur_q

from check_bounds import run_checks


def test_y_direct_examples():
    assert y_direct((2, 1), (3,)) == TPoly([-2, 2])
    for n in range(1, 8):
        for mu in enumerate_odd(n):
            assert y_direct((n,), mu) == ONE
    assert y_direct((4, 3), (5, 1, 1)) == TPoly([0, -2, 0, 2])
    with pytest.raises(ValueError):
        y_direct((2, 1), (2, 1))  # non-odd column
    with pytest.raises(ValueError):
        y_direct((3, 1), (3,))  # weight mismatch


def test_y_direct_is_the_pairing_it_reads():
    # y_direct reads one coefficient of qhl(lam) in place of calling the form
    for n in range(9):
        for lam in enumerate_strict(n):
            for mu in enumerate_odd(n):
                assert y_direct(lam, mu) == pair(qhl(lam), p_monomial(mu)), (lam, mu)


def test_y_recursive_examples():
    assert y_recursive((3, 2, 1), (3, 3)) == TPoly([-4, 4, 4, -8, 4])
    assert y_recursive((4, 2, 1), (1,) * 7) == TPoly([7, 28, 46, 20, 4])
    assert y_recursive((5, 1), (5, 1)) == TPoly([-1, 2])
    assert y_recursive((6, 1), (3, 3, 1)) == TPoly([-1, 2])


def _y_ungrouped(lam, mu, memo):
    """The recursion before its rho-sums were shared: for each (i, rho), the
    Y(lam^(1), nu U rho) summed over every index subset nu of mu of weight i,
    then weighted by inv_z_t(rho)."""
    if not lam:
        return ONE
    if (lam, mu) not in memo:
        rest, total = lam[1:], ZERO
        for i in range(sum(rest) + 1):
            subsets = [nu for k in range(len(mu) + 1) for nu in combinations(mu, k) if sum(nu) == i]
            for rho in enumerate_odd(sum(rest) - i):
                inner = ZERO
                for nu in subsets:
                    inner = inner + _y_ungrouped(rest, union_sorted(nu, rho), memo)
                total = total + inner * inv_z_t(rho)
        memo[lam, mu] = total
    return memo[lam, mu]


def test_regrouped_recursion_equals_the_ungrouped_one():
    memo = {}
    cells = 0
    for n in range(11):
        clear_memos()
        for lam in enumerate_strict(n):
            for mu in enumerate_odd(n):
                assert y_recursive(lam, mu) == _y_ungrouped(lam, mu, memo), (lam, mu)
                cells += 1
    assert cells == 261


def test_y_two_row_examples():
    assert y_two_row(4, 7, (5, 1, 1)) == TPoly([0, -2, 0, 2])
    assert y_two_row(5, 7, (5, 1, 1)) == TPoly([-1, 0, 2])
    assert y_two_row(2, 3, (1, 1, 1)) == TPoly([1, 2])
    with pytest.raises(ValueError):
        y_two_row(2, 4, (3, 1))  # (2,2) is not strict
    with pytest.raises(ValueError):
        y_two_row(4, 7, (3, 3))  # weight mismatch


def test_y_via_l_examples():
    assert y_via_l((3, 2), (5,)) == TPoly([2, -4, 2])
    assert y_via_l((4, 1), (1,) * 5) == TPoly([3, 2])
    for mu in enumerate_odd(6):
        assert y_via_l((6,), mu) == ONE


def test_spin_character_examples():
    assert spin_character((3,), (1, 1, 1)) == 2
    assert spin_character((2, 1), (1, 1, 1)) == 1
    assert spin_character((2, 1), (3,)) == -1


def test_spin_char_table_reads_cells_unchecked(monkeypatch):
    """The table's cells come from bar removal on enumerated partitions: no
    cell is checked again, no polynomial is evaluated and no Y cell is
    computed."""
    expected = spin_char_table(6)
    clear_memos()

    def refuse(*args):
        raise AssertionError("called per cell")

    monkeypatch.setattr(spingreen, "check_pair", refuse)
    monkeypatch.setattr(spingreen, "_y_rec", refuse)
    monkeypatch.setattr(TPoly, "__call__", refuse)
    assert spin_char_table(6) == expected
    assert not spingreen._y_memo
    monkeypatch.undo()
    with pytest.raises(ValueError):
        spin_character((2, 2), (3, 1))  # (2,2) is not strict


def test_bars_are_the_adjoint_of_p_r_on_schur_q():
    # p_r^* Q_lam expanded in the Schur Q-basis by the vertex operators, for
    # every strict lam of weight <= 10 and every odd r <= |lam|: 165 cases
    cases = 0
    for n in range(1, 11):
        for lam in enumerate_strict(n):
            for r in range(1, n + 1, 2):
                bars = {}
                for kappa, c in spingreen._bars(lam, r):
                    assert kappa not in bars, (lam, r, kappa)
                    bars[kappa] = TPoly([c])
                assert bars == expand_in_schur_q(pn_star(r, schur_q(lam))), (lam, r)
                cases += 1
    assert cases == 165


def test_bar_removal_is_the_constant_term_of_the_recursion():
    for n in range(1, 15):
        memo = {}
        for lam in enumerate_strict(n):
            for mu in enumerate_odd(n):
                assert spingreen._x0(lam, mu, memo) == y_recursive(lam, mu).coefficient(0), (lam, mu)


def test_spin_char_table_does_not_depend_on_memo_state():
    clear_memos()
    cold = spin_char_table(8)
    for lam in enumerate_strict(8):
        for mu in enumerate_odd(8):
            assert spin_character(lam, mu) == cold.entry(lam, mu)
    y_table(8)
    assert spin_char_table(8) == cold


def test_x0_columns_equal_the_per_cell_bar_removal(monkeypatch):
    # with _char passing X0 through, spin_char_table is the table of its X0 columns
    monkeypatch.setattr(spingreen, "_char", lambda lam, mu, x0: x0)
    cells = 0
    for n in range(17):
        columns = spin_char_table(n)
        assert 0 not in columns.entries.values()
        memo = {}
        for lam in enumerate_strict(n):
            for mu in enumerate_odd(n):
                assert columns.entry(lam, mu) == spingreen._x0(lam, mu, memo), (lam, mu)
                cells += 1
    assert cells == sum(len(enumerate_strict(n)) ** 2 for n in range(17))


def test_spin_char_table_equals_spin_character_cell_by_cell():
    for n in range(17):
        table = spin_char_table(n)
        for lam in enumerate_strict(n):
            for mu in enumerate_odd(n):
                assert table.entry(lam, mu) == spin_character(lam, mu), (lam, mu)


def test_non_integer_character_names_the_reduced_fraction(monkeypatch):
    monkeypatch.setattr(spingreen, "_x0", lambda lam, mu, memo: 6)
    # the exponent at ((5,4,3,2,1), (15,)) is 2, so the value is 6/4
    with pytest.raises(ArithmeticError, match=r"^non-integer spin character 3/2 at \(\(5, 4, 3, 2, 1\), \(15,\)\)$"):
        spin_character((5, 4, 3, 2, 1), (15,))


def test_y_table_spot_values():
    t6 = y_table(6)
    assert [t6.entry(lam, (3, 1, 1, 1)) for lam in enumerate_strict(6)] == [
        ONE,
        TPoly([1, 2]),
        TPoly([-1, 2, 2]),
        TPoly([-1, -2, -2, 4, 4]),
    ]
    t7 = y_table(7)
    assert t7.entry((4, 3), (1,) * 7) == TPoly([5, 18, 10, 2])


# sha256 of json.dumps(table.to_json(), sort_keys=True) for y_table(n) and for
# spin_char_table(n), n = 8..22.  The pins for n <= 18 were recorded when the
# characters were read off y_table(n) at t = 0.  The Y digests for n <= 12
# were recorded from the recursion that summed over every index subset of mu,
# those for 13..18 from the recursion over distinct sub-multisets, and those
# for 19 and 20 from that recursion and from the one that shares each rho-sum,
# which agree.  Those for 21 and 22 come from the recursion, checked cell by
# cell against sum_nu L(nu, lam) X0(nu, mu) with X0 by bar removal; their
# characters were checked against the constant terms of those Y tables.
DATA = Path(__file__).parent / "data"
Y_DIGESTS = json.loads((DATA / "y_table_sha256.json").read_text())
CHAR_DIGESTS = json.loads((DATA / "spin_char_sha256.json").read_text())


def _sha256(table) -> str:
    return hashlib.sha256(json.dumps(table.to_json(), sort_keys=True).encode("utf-8")).hexdigest()


def test_larger_y_tables_are_pinned():
    assert Y_DIGESTS.keys() == CHAR_DIGESTS.keys()
    changed = []
    for n in Y_DIGESTS:
        clear_memos()
        y = y_table(int(n))
        if _sha256(y) != Y_DIGESTS[n]:
            changed.append(f"Y-{n}")
        if _sha256(spin_char_table(int(n))) != CHAR_DIGESTS[n]:
            changed.append(f"char-{n}")
    assert not changed


def test_spin_char_table_small():
    table = spin_char_table(4)
    assert table.entry((4,), (3, 1)) == 1
    assert table.entry((4,), (1, 1, 1, 1)) == 2
    assert table.entry((3, 1), (3, 1)) == -1
    assert table.entry((3, 1), (1, 1, 1, 1)) == 4


@pytest.mark.parametrize("table, one", [(l_table, ONE), (y_table, ONE), (spin_char_table, 1)])
def test_weight_0_is_the_table_of_the_empty_partition(table, one):
    t = table(0)
    assert (t.rows(), t.cols(), t.entries) == (((),), ((),), {((), ()): one})
    with pytest.raises(ValueError):
        table(-1)


def test_reconstruction():
    run_checks("test_spingreen::test_reconstruction")


# (lam, nu, mu) of one weight in 10..12: lam and nu strict, mu odd.
_route_cases = st.integers(10, 12).flatmap(
    lambda n: st.tuples(
        st.sampled_from(enumerate_strict(n)),
        st.sampled_from(enumerate_strict(n)),
        st.sampled_from(enumerate_odd(n)),
    )
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_route_cases)
def test_routes_agree_beyond_the_sweeps(case):
    lam, nu, mu = case
    clear_memos()  # every example starts cold, whatever the earlier ones filled
    y = y_recursive(lam, mu)
    assert y == y_direct(lam, mu) == y_via_l(lam, mu), (lam, mu)
    assert l_recursive(nu, lam) == l_direct(nu, lam), (nu, lam)


# (lam, mu) of one weight in 23..26, past the cell-by-cell sweep's 16 and the
# character pins' 22: lam strict, mu odd.
_x0_cases = st.integers(23, 26).flatmap(
    lambda n: st.tuples(st.sampled_from(enumerate_strict(n)), st.sampled_from(enumerate_odd(n)))
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_x0_cases)
def test_x0_columns_equal_the_bar_removal_beyond_the_pins(case):
    lam, mu = case
    clear_memos()
    assert spingreen._x0_columns()(mu).get(lam, 0) == spingreen._x0(lam, mu, {}), (lam, mu)
