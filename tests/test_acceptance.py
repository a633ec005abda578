"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact (zero tolerance).  Run with `pytest -s` to see the
per-criterion lines.  Criteria 3, 4, 6 and 7 run the checks of gammaq.verify
that check_bounds.CHECK_BOUNDS gives them, each once, at the bound it gives.
"""

import json
import time
from contextlib import contextmanager

from gammaq.cli import main
from gammaq.gamma import pair
from gammaq.golden import golden_y_polys
from gammaq.partitions import (
    enumerate_odd,
    enumerate_partitions,
    enumerate_strict,
    index_subpartitions,
)
from gammaq.qkostka import Table, l_direct, l_recursive
from gammaq.spingreen import y_recursive
from gammaq.tpoly import ONE, TPoly, ZERO, d_poly, inv_z_t, signed_t
from gammaq.vertexops import expand_in_schur_q, g_modes_on_vacuum, qhl, schur_q

from check_bounds import CHECK_BOUNDS, run_checks, verify_checks


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


def test_criterion_1_golden_tables(capsys):
    with criterion(1, "golden tables reproduced cell-for-cell for n=3..7"):
        start = time.perf_counter()
        for n in range(3, 8):
            assert main(["spin-green", "--n", str(n), "--no-cache"]) == 0
            table = Table.from_json(json.loads(capsys.readouterr().out), enumerate_odd)
            golden = golden_y_polys(n)
            for lam in enumerate_strict(n):
                for mu in enumerate_odd(n):
                    assert table.entry(lam, mu) == golden[(lam, mu)], (n, lam, mu)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"golden tables took {elapsed:.1f}s"


def test_criterion_2_pinpoint_values():
    with criterion(2, "pinpoint values from the source match exactly"):
        assert l_recursive((4, 1), (3, 2)) == TPoly([0, 2])
        assert l_direct((4, 1), (3, 2)) == TPoly([0, 2])
        assert expand_in_schur_q(qhl((3, 2))) == {
            (3, 2): ONE,
            (4, 1): TPoly([0, 2]),
            (5,): TPoly([0, 0, 2]),
        }
        assert expand_in_schur_q(qhl((4, 1))) == {(4, 1): ONE, (5,): TPoly([0, 2])}
        assert pair(qhl((3, 2)), qhl((4, 1))) == TPoly([0, 8, 0, 8])
        assert g_modes_on_vacuum((1, 1)) == schur_q((2,)) * TPoly([0, 2])
        assert y_recursive((4, 3), (5, 1, 1)) == TPoly([0, -2, 0, 2])


def test_check_bounds_name_every_verify_check():
    assert set(CHECK_BOUNDS) == set(verify_checks())


def test_criterion_3_oracle_equivalence():
    with criterion(3, "recursion, vertex-operator and transition routes agree"):
        run_checks(3)


def test_criterion_4_operator_identities():
    with criterion(4, "operator identity suites hold"):
        run_checks(4)


def test_criterion_5_closed_form_identities():
    with criterion(5, "closed-form t-identities hold at stated ranges"):
        # odd-partition weight sum: 1 at n=0, else 2(t-1)(n)_t, n <= 20
        assert sum((inv_z_t(r) for r in enumerate_odd(0)), ZERO) == ONE
        for n in range(1, 21):
            total = sum((inv_z_t(rho) for rho in enumerate_odd(n)), ZERO)
            assert total == TPoly([-2, 2]) * signed_t(n), n
        # signed t-integer telescoping, k <= 30
        for k in range(1, 31):
            total = signed_t(k)
            for i in range(1, k):
                total = total + 2 * signed_t(i)
            assert total == TPoly([1] * k), k
        # subpartition generating polynomial product formula, |lam| <= 10
        for n in range(11):
            for p in enumerate_partitions(n):
                poly = d_poly(p)
                for i in range(n + 1):
                    assert poly.coefficient(i) == len(index_subpartitions(p, i)), (p, i)


def test_criterion_6_structural_properties():
    with criterion(6, "structural laws hold at stated bounds"):
        run_checks(6)


def test_criterion_7_positivity_diagnostics():
    with criterion(7, "positivity diagnostics reported (never fatal)"):
        run_checks(7)


def test_criterion_8_infrastructure(capsys):
    with criterion(8, "JSON round-trip of both table commands for n<=7"):
        for n in range(1, 8):
            assert main(["lkostka", "--n", str(n), "--no-cache"]) == 0
            ldata = json.loads(capsys.readouterr().out)
            assert Table.from_json(ldata).to_json() == ldata
            assert main(["spin-green", "--n", str(n), "--no-cache"]) == 0
            ydata = json.loads(capsys.readouterr().out)
            assert Table.from_json(ydata, enumerate_odd).to_json() == ydata
