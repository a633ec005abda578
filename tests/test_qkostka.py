import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

import gammaq.qkostka as qkostka
from gammaq.gamma import pair
from gammaq.memo import cached, clear_memos
from gammaq.partitions import enumerate_strict
from gammaq.qkostka import (
    _strips,
    expand_g_in_q,
    l_direct,
    l_recursive,
    l_table,
    l_two_row,
)
from gammaq.tpoly import ONE, TPoly, ZERO
from gammaq.vertexops import qhl, schur_q

from check_bounds import run_checks


def test_l_direct_examples():
    assert l_direct((4, 1), (3, 2)) == TPoly([0, 2])
    assert l_direct((4, 2, 1), (4, 2, 1)) == ONE
    assert l_direct((5,), (3, 2)) == TPoly([0, 0, 2])
    with pytest.raises(ValueError):
        l_direct((4, 4), (5, 3))  # non-strict row
    with pytest.raises(ValueError):
        l_direct((3, 1), (3, 2))  # weight mismatch


def test_l_direct_is_the_scaled_pairing():
    for n in range(9):
        for lam in enumerate_strict(n):
            for mu in enumerate_strict(n):
                expected = pair(qhl(mu), schur_q(lam)) * Fraction(1, 2 ** len(lam))
                assert l_direct(lam, mu) == expected, (lam, mu)


def test_l_recursive_examples():
    assert l_recursive((4, 1), (3, 2)) == TPoly([0, 2])
    assert l_recursive((5, 2), (4, 3)) == TPoly([0, 2])
    assert l_recursive((4, 2, 1), (4, 2, 1)) == ONE
    assert l_recursive((), ()) == ONE
    with pytest.raises(TypeError):
        l_recursive((4.9, 1.2), (3, 2))  # parts are not truncated to (4, 1)


def test_l_two_row_examples():
    assert l_two_row((4, 1), (3, 2)) == TPoly([0, 2])
    assert l_two_row((3, 2), (3, 2)) == ONE
    assert l_two_row((5,), (3, 2)) == TPoly([0, 0, 2])
    assert l_two_row((3, 2, 1), (4, 2)) == ZERO  # not dominated
    with pytest.raises(ValueError):
        l_two_row((5,), (5,))


def test_expand_g_in_q():
    assert expand_g_in_q((3, 2)) == {
        (3, 2): ONE,
        (4, 1): TPoly([0, 2]),
        (5,): TPoly([0, 0, 2]),
    }
    for n in range(1, 7):
        assert expand_g_in_q((n,)) == {(n,): ONE}


def test_l_table_diagonal():
    table = l_table(5)
    for lam in enumerate_strict(5):
        assert table.entry(lam, lam) == ONE
    assert table.weight == 5
    assert table.rows() == enumerate_strict(5)


def test_to_json_encodes_each_distinct_cell_once(monkeypatch):
    table = l_table(16)
    encode, written = qkostka._cell_json, []

    def spy(value):
        written.append(value)
        return encode(value)

    monkeypatch.setattr(qkostka, "_cell_json", spy)
    data = table.to_json()
    assert len(written) == len(set(table.entries.values())) + 1  # and once for the zero
    assert set(written) == {ZERO, *table.entries.values()}
    assert data["entries"] == [[table.entry(r, c).to_json() for c in table.cols()] for r in table.rows()]


# sha256 of json.dumps(l_table(n).to_json(), sort_keys=True).  n = 13..20
# were recorded from the strip walk that rebuilt a column set per strip for
# the a-statistic, n = 21..24 from the recursion that summed one TPoly term
# per strip and enumerated the strips afresh for every cell, n = 25 and 26
# from the per-cell recursion below and from the column route, which agree.
L_DIGESTS = json.loads((Path(__file__).parent / "data" / "l_table_sha256.json").read_text())


def _l_digest(n):
    data = json.dumps(l_table(n).to_json(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def test_larger_l_tables_are_pinned():
    changed = []
    for n, digest in L_DIGESTS.items():
        clear_memos()
        if _l_digest(int(n)) != digest:
            changed.append(n)
    assert not changed


def test_l_tables_do_not_depend_on_memo_state():
    clear_memos()
    changed = [n for n in range(20, 12, -1) if _l_digest(n) != L_DIGESTS[str(n)]]
    assert not changed
    table = l_table(16)
    for mu in enumerate_strict(16):
        column = {lam: c for (lam, nu), c in table.entries.items() if nu == mu}
        assert expand_g_in_q(mu) == column, mu


def test_strips_enumerated_once_per_inner_and_size(monkeypatch):
    calls = []
    strips = qkostka.horizontal_strips

    def record(inner, r):
        calls.append((inner, r))
        return strips(inner, r)

    monkeypatch.setattr(qkostka, "horizontal_strips", record)
    clear_memos()
    l_table(18)
    assert len(calls) == 273
    assert len(set(calls)) == len(calls)
    assert qkostka._strips_memo
    clear_memos()
    assert not qkostka._strips_memo


# The per-cell recursion the column route replaced, kept verbatim as its
# reference: one memo entry per (lam, mu), zero cells included.  Its memo is
# a plain dict, so clear_memos() does not reach it.
_CELL_MEMO = {}


@cached(_CELL_MEMO)
def _l_rec(lam, mu):
    if not mu:
        return ONE  # lam is forced empty by equal weights
    head, rest = mu[0], mu[1:]
    acc: list[int] = []  # every L value is integral: sum on its coefficient list
    for i, part in enumerate(lam):
        if part < head:
            break  # parts strictly decrease
        r = part - head
        sign = (-1) ** i
        for outer, weight in _strips(lam[:i] + lam[i + 1 :], r):
            sub = _l_rec(outer, rest).coeffs
            if len(acc) < r + len(sub):
                acc.extend([0] * (r + len(sub) - len(acc)))
            c = sign * weight
            for k, x in enumerate(sub, r):
                acc[k] += c * x
    return TPoly(acc) if any(acc) else ZERO  # zero cells share one value


def test_columns_equal_the_per_cell_recursion():
    clear_memos()
    checked = 0
    for n in range(17):
        table = l_table(n)
        for mu in enumerate_strict(n):
            column = {}
            for lam in enumerate_strict(n):
                cell = _l_rec(lam, mu)
                assert l_recursive(lam, mu) == table.entry(lam, mu) == cell, (lam, mu)
                if not cell.is_zero:
                    column[lam] = cell
                checked += 1
            assert expand_g_in_q(mu) == column, mu
    assert checked == 3191


def test_columns_store_no_zero_cell():
    clear_memos()
    l_table(16)
    # one column per strict mu of weight 16 and per suffix mu^(k) it peels to
    assert set(qkostka._l_memo) == {mu[k:] for mu in enumerate_strict(16) for k in range(len(mu) + 1)}
    assert all(not c.is_zero for column in qkostka._l_memo.values() for c in column.values())
    assert l_recursive((3, 2, 1), (4, 2)) == ZERO  # (4, 2) is not dominated by (3, 2, 1)
    assert (3, 2, 1) not in qkostka._l_memo[(4, 2)]
    assert l_recursive((4, 2), (6,)) == ZERO
    assert qkostka._l_memo[(6,)] == {(6,): ONE}


def _grown(lam, mu, r):
    return l_recursive((lam[0] + r,) + lam[1:], (mu[0] + r,) + mu[1:])


def test_stability_holds_when_mu_1_exceeds_lam_2():
    """Growing both top rows by r preserves L when mu_1 > lam_2 (lam_2 = 0
    for one row).  With mu_1 = lam_2 it fails from |lam| = 9, on both routes,
    which is why check_l_stability, stating mu_1 >= lam_2, has cap=7."""
    broken, checked = [], 0
    for n in range(1, 13):
        for lam in enumerate_strict(n):
            second = lam[1] if len(lam) > 1 else 0
            for mu in enumerate_strict(n):
                if mu[0] <= second:
                    continue
                base = l_recursive(lam, mu)
                for r in range(1, 5):
                    checked += 1
                    if _grown(lam, mu, r) != base:
                        broken.append((lam, mu, r))
    assert (broken, checked) == ([], 2480)
    lam, mu = (5, 4), (4, 3, 2)
    assert l_recursive(lam, mu) == l_direct(lam, mu) == TPoly([0, 0, 2, 4])
    assert _grown(lam, mu, 1) == l_direct((6, 4), (5, 3, 2)) == TPoly([0, 0, 4, 4])


def test_two_row_closed_form():
    run_checks("test_qkostka::test_two_row_closed_form")
