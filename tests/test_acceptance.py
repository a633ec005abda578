"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact (zero tolerance).  Run with `pytest -s` to see the
per-criterion lines.  Criteria 3, 4, 6 and 7 run the checks of gammaq.verify
that check_bounds.CHECK_BOUNDS gives them, each once, at the bound it gives;
criterion 5 runs the closed-form identity tests of test_tpoly.
"""

import json
import time
from contextlib import contextmanager

from gammaq.cli import main
from gammaq.gamma import pair
from gammaq.golden import golden_y_polys
from gammaq.partitions import enumerate_odd
from gammaq.qkostka import Table, l_direct, l_recursive, l_table
from gammaq.spingreen import y_recursive, y_table
from gammaq.tpoly import ONE, TPoly
from gammaq.vertexops import expand_in_schur_q, g_modes_on_vacuum, qhl, schur_q

import test_tpoly
from check_bounds import CHECK_BOUNDS, run_checks, verify_caps, verify_checks


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
            data = json.loads(capsys.readouterr().out)
            assert data == Table(n, golden_y_polys(n), enumerate_odd).to_json(), n
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
    # a row past its check's cap would claim cases the check never runs
    for name, cap in verify_caps().items():
        assert CHECK_BOUNDS[name][0] <= cap, name


def test_criterion_3_oracle_equivalence():
    with criterion(3, "recursion, vertex-operator and transition routes agree"):
        run_checks(3)


def test_criterion_4_operator_identities():
    with criterion(4, "operator identity suites hold"):
        run_checks(4)


def test_criterion_5_closed_form_identities():
    with criterion(5, "closed-form t-identities hold at stated ranges"):
        test_tpoly.test_inv_z_t_sum_identity()  # odd-partition weight sum, n <= 20
        test_tpoly.test_signed_t_sum_identity()  # signed t-integer telescoping, k <= 30
        test_tpoly.test_d_poly_counts_index_subpartitions()  # |lam| <= 10


def test_criterion_6_structural_properties():
    with criterion(6, "structural laws hold at stated bounds"):
        run_checks(6)


def test_criterion_7_positivity_diagnostics():
    with criterion(7, "positivity diagnostics reported (never fatal)"):
        run_checks(7)


def test_criterion_8_infrastructure(capsys):
    with criterion(8, "JSON of both table commands is their table's to_json for n<=7"):
        for n in range(1, 8):
            assert main(["lkostka", "--n", str(n), "--no-cache"]) == 0
            assert json.loads(capsys.readouterr().out) == l_table(n).to_json()
            assert main(["spin-green", "--n", str(n), "--no-cache"]) == 0
            assert json.loads(capsys.readouterr().out) == y_table(n).to_json()
