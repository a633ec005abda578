"""Whole-table identities and the Y routes past the sha256 pins.

The pins stop at weight 22.  Character orthogonality ties the X0 columns
to the inner product of the Q-functions, and the Gram identity ties the Y
recursion to the L recursion, neither through X0 nor the vertex operators;
tests/check_identities.py states both and runs them at larger n in CI.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammaq.memo import clear_memos
from gammaq.partitions import enumerate_odd, enumerate_strict
from gammaq.spingreen import y_recursive, y_via_l

from check_identities import gram_failures, orthogonality_failures


@pytest.mark.parametrize("n", range(9, 23))
def test_x0_columns_are_orthogonal(n):
    assert orthogonality_failures(n) == []


@pytest.mark.parametrize("n", range(8, 17))
def test_y_and_l_have_one_gram_matrix(n):
    assert gram_failures(n) == []


# weights past the Y pins' 22: lam strict, mu odd.
_y_cases = st.integers(23, 30).flatmap(
    lambda n: st.tuples(st.sampled_from(enumerate_strict(n)), st.sampled_from(enumerate_odd(n)))
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_y_cases)
def test_y_recursion_equals_the_l_route_beyond_the_pins(case):
    lam, mu = case
    clear_memos()
    assert y_recursive(lam, mu) == y_via_l(lam, mu), (lam, mu)
