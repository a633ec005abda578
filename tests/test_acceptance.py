"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact (zero tolerance).  Run with `pytest -s` to see the
per-criterion lines; the optional extended run is enabled by setting
GAMMAQ_EXTENDED=1.
"""

import json
import os
import time
from contextlib import contextmanager

import pytest

from gammaq.cli import main
from gammaq.gamma import pair
from gammaq.golden import golden_y_polys
from gammaq.memo import clear_memos
from gammaq.partitions import (
    enumerate_odd,
    enumerate_partitions,
    enumerate_strict,
    index_subpartitions,
)
from gammaq.qkostka import Table, l_direct, l_recursive
from gammaq.spingreen import y_direct, y_recursive, y_via_l
from gammaq.tpoly import ONE, TPoly, ZERO, d_poly, inv_z_t, signed_t
from gammaq.verify import (
    check_adjointness,
    check_char_integrality,
    check_clifford,
    check_frobenius,
    check_gstar_on_schur,
    check_gstar_powersum,
    check_l_degree,
    check_l_divisibility,
    check_l_prefix,
    check_l_stability,
    check_l_support,
    check_l_top_row,
    check_mixed_relations,
    check_pieri,
    check_powersum_adjoint_on_g,
    check_quadratic,
    check_vacuum,
    check_y_degree,
    check_y_one_row,
    check_y_two_row,
    diagnostic_l_positivity,
    diagnostic_y_positivity,
)
from gammaq.vertexops import expand_in_schur_q, g_modes_on_vacuum, qhl, schur_q


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


def _oracle_equivalence(n_max):
    for n in range(n_max + 1):
        for lam in enumerate_strict(n):
            for mu in enumerate_strict(n):
                assert l_recursive(lam, mu) == l_direct(lam, mu), (lam, mu)
    for n in range(1, n_max + 1):
        for lam in enumerate_strict(n):
            for mu in enumerate_odd(n):
                a = y_recursive(lam, mu)
                assert a == y_direct(lam, mu) == y_via_l(lam, mu), (lam, mu)


def test_criterion_3_oracle_equivalence():
    with criterion(3, "recursion, vertex-operator and transition routes agree for n<=8"):
        start = time.perf_counter()
        _oracle_equivalence(8)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"oracle equivalence took {elapsed:.1f}s"


@pytest.mark.skipif(
    os.environ.get("GAMMAQ_EXTENDED") != "1",
    reason="extended n=9 run; set GAMMAQ_EXTENDED=1 to enable",
)
def test_criterion_3_extended_n9():
    with criterion(3, "extended oracle equivalence at n=9"):
        _oracle_equivalence(9)


def test_criterion_4_operator_identities():
    with criterion(4, "operator identity suites hold on degrees <= 5"):
        for check in (
            check_clifford,
            check_vacuum,
            check_quadratic,
            check_mixed_relations,
            check_gstar_on_schur,
            check_gstar_powersum,
            check_powersum_adjoint_on_g,
            check_pieri,
            check_adjointness,
        ):
            result = check(5)
            assert result.passed, f"{result.name}: {result.detail}"


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
        for check, bound in (
            (check_l_support, 9),       # diagonal = 1, dominance support
            (check_l_top_row, 9),       # one-row value 2^{l-1} t^{n(mu)}
            (check_l_degree, 9),        # degree n(mu) - n(lam)
            (check_l_divisibility, 9),  # 2-power divisibility
            (check_l_prefix, 9),        # shared new largest part
            (check_l_stability, 9),     # grown top rows (|lam| <= 7, r <= 4)
            (check_y_degree, 9),        # degree n(lam), leading 2^{l-1}
            (check_y_one_row, 9),       # one-row value 1
            (check_y_two_row, 9),       # closed two-row form
            (check_frobenius, 8),       # character expansions rebuild Q-vectors
            (check_char_integrality, 9),
        ):
            result = check(bound)
            assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_7_positivity_diagnostics():
    with criterion(7, "positivity diagnostics reported (never fatal)"):
        for diag in (diagnostic_l_positivity, diagnostic_y_positivity):
            result = diag(9)
            assert result.diagnostic
            status = "no counterexamples" if result.passed else result.detail
            print(f"  diagnostic {result.name}: {status}")


def test_criterion_8_infrastructure(tmp_path, capsys):
    with criterion(8, "round-trip, cache bit-identity and determinism for n<=7"):
        for n in range(1, 8):
            # JSON round-trip through the CLI emitters
            assert main(["lkostka", "--n", str(n), "--no-cache"]) == 0
            ldata = json.loads(capsys.readouterr().out)
            assert Table.from_json(ldata).to_json() == ldata
            assert main(["spin-green", "--n", str(n), "--no-cache"]) == 0
            ydata = json.loads(capsys.readouterr().out)
            assert Table.from_json(ydata, enumerate_odd).to_json() == ydata

            # cold vs warm cache, and determinism across repeated runs
            cdir = str(tmp_path / f"cache{n}")
            clear_memos()
            assert main(["spin-green", "--n", str(n), "--cache-dir", cdir]) == 0
            cold = capsys.readouterr().out
            clear_memos()
            assert main(["spin-green", "--n", str(n), "--cache-dir", cdir]) == 0
            warm = capsys.readouterr().out
            assert cold == warm, f"cache changed output at n={n}"
            assert main(["spin-green", "--n", str(n), "--no-cache"]) == 0
            repeat = capsys.readouterr().out
            assert repeat == cold, f"nondeterministic output at n={n}"
        clear_memos()
