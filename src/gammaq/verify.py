"""Verification suites: operator identities, recursion-vs-oracle equality,
structural laws, golden-table comparison, and positivity diagnostics.

Each suite returns a list of CheckResult.  Diagnostics report violations but
never fail a run; everything else is an exact assertion.  The suites are
shared between the command-line `verify` subcommand and the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .gamma import GammaElement, one, p_monomial, pair, pn_star
from .golden import golden_y_polys
from .partitions import (
    Partition,
    dominance_leq,
    enumerate_odd,
    enumerate_strict,
    epsilon,
    horizontal_strips,
    index_subpartitions,
    n_stat,
    z_factor,
)
from .qkostka import l_direct, l_recursive, l_two_row
from .spingreen import (
    spin_character,
    y_direct,
    y_recursive,
    y_table,
    y_two_row,
    y_via_l,
)
from .tpoly import ONE, TPoly, ZERO, inv_z_t
from .vertexops import (
    G_SPEC,
    GSTAR_SPEC,
    Q_SPEC,
    QSTAR_SPEC,
    apply_component,
    g_modes_on_vacuum,
    gstar_on_schur,
    q_or_zero,
    q_row,
    qhl,
    schur_q,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    diagnostic: bool = False

    @property
    def fatal(self) -> bool:
        return not self.passed and not self.diagnostic


def _result(name: str, failures: list[str], ok_detail: str, diagnostic: bool = False) -> CheckResult:
    if failures:
        shown = "; ".join(failures[:4]) + (" ..." if len(failures) > 4 else "")
        return CheckResult(name, False, f"{len(failures)} violation(s): {shown}", diagnostic)
    return CheckResult(name, True, ok_detail, diagnostic)


def _basis(d: int) -> list[tuple[Partition, GammaElement]]:
    return [(mu, p_monomial(mu)) for mu in enumerate_odd(d)]


def _shapes(lo: int, hi: int):
    """Every strict partition of weight lo..hi, by weight."""
    for n in range(lo, hi + 1):
        yield from enumerate_strict(n)


def _cells(lo: int, hi: int, cols):
    """Every pair (lam, mu) of one weight n in lo..hi, lam strict and mu in cols(n)."""
    for lam in _shapes(lo, hi):
        for mu in cols(sum(lam)):
            yield lam, mu


def _agree(cells, route, oracle) -> tuple[list[str], int]:
    """The cells where route and oracle differ, and the number of cells."""
    failures = []
    count = 0
    for lam, mu in cells:
        count += 1
        if route(lam, mu) != oracle(lam, mu):
            failures.append(f"{lam},{mu}")
    return failures, count


def _rebuilds(max_n: int, weight, target) -> list[str]:
    """The strict lam of weight 1..max_n whose sum over odd mu of
    weight(lam, mu) p_mu differs from target(lam)."""
    failures = []
    for lam in _shapes(1, max_n):
        acc = GammaElement()
        for mu in enumerate_odd(sum(lam)):
            acc = acc + p_monomial(mu) * weight(lam, mu)
        if acc != target(lam):
            failures.append(f"{lam}")
    return failures


def _mode_pairs(max_n: int):
    """(mu, p_mu, m, n) for odd mu of weight <= max_n and -max_n <= m <= n <= max_n."""
    for d in range(max_n + 1):
        for mu, f in _basis(d):
            for m in range(-max_n, max_n + 1):
                for n in range(m, max_n + 1):
                    yield mu, f, m, n


def _Q(m, f):
    return apply_component(Q_SPEC, m, f)


def _G(m, f):
    return apply_component(G_SPEC, m, f)


def _Gs(m, f):
    return apply_component(GSTAR_SPEC, m, f)


def _qs(m, f):
    return apply_component(QSTAR_SPEC, m, f)


# ---------------------------------------------------------------- operators


def check_clifford(max_n: int) -> CheckResult:
    """Anticommutators of Q-modes: {Q_m, Q_n} = (-1)^n 2 delta_{m,-n}."""
    failures = []
    count = 0
    for mu, f, m, n in _mode_pairs(max_n):
        lhs = _Q(m, _Q(n, f)) + _Q(n, _Q(m, f))
        rhs = f * (2 * (-1) ** n) if m == -n else GammaElement()
        count += 1
        if lhs != rhs:
            failures.append(f"m={m},n={n},p_{mu}")
    return _result("clifford", failures, f"{count} anticommutators checked")


def check_vacuum(max_n: int) -> CheckResult:
    """Negative Q-modes kill the vacuum; negative starred G-modes expand in
    power sums with the (-2)^l / z(t) polynomial weights."""
    failures = []
    for n in range(max_n + 1):
        qv = _Q(-n, one())
        expect = one() if n == 0 else GammaElement()
        if qv != expect:
            failures.append(f"Q_{-n}.1")
        gv = _Gs(-n, one())
        rhs = GammaElement({rho: inv_z_t(rho) for rho in enumerate_odd(n)})
        if gv != rhs:
            failures.append(f"G*_{-n}.1")
    return _result("vacuum", failures, f"modes 0..{max_n} checked")


def check_quadratic(max_n: int) -> CheckResult:
    """Quadratic relations among G-modes."""
    one_minus_t_sq = TPoly((1, 0, -1))
    two_one_minus_t_sq = TPoly((2, -4, 2))  # 2(1-t)^2
    failures = []
    count = 0
    for mu, f, m, n in _mode_pairs(max_n):
        lhs = (_G(m, _G(n, f)) + _G(n, _G(m, f))) * one_minus_t_sq + (
            _G(m - 1, _G(n + 1, f))
            - _G(n + 1, _G(m - 1, f))
            + _G(n - 1, _G(m + 1, f))
            - _G(m + 1, _G(n - 1, f))
        ) * TPoly((0, 1))
        rhs = f * (two_one_minus_t_sq * (-1) ** n) if m == -n else GammaElement()
        count += 1
        if lhs != rhs:
            failures.append(f"m={m},n={n},p_{mu}")
    return _result("quadratic", failures, f"{count} relations checked")


def check_mixed_relations(max_n: int) -> CheckResult:
    """Commutation relations mixing starred G-modes, Q-modes, one-row
    multiplications and their adjoints.  The relation with 1/t factors is
    verified in t-cleared form."""
    t = TPoly((0, 1))
    failures = []
    count = 0
    idx = range(-(max_n - 1), max_n)
    for d in range(max_n + 1):
        for mu, f in _basis(d):
            for m in idx:
                for n in idx:
                    # t-cleared: t G*_m Q_n = t Q_n G*_m + G*_{m-1} Q_{n-1}
                    #            + Q_{n-1} G*_{m-1} - 2 t^{n-m} (1-t) q_{n-m}
                    lhs = _Gs(m, _Q(n, f)) * t
                    rhs = (
                        _Q(n, _Gs(m, f)) * t
                        + _Gs(m - 1, _Q(n - 1, f))
                        + _Q(n - 1, _Gs(m - 1, f))
                    )
                    if n - m >= 0:
                        factor = TPoly.term(2, n - m) * TPoly((1, -1))
                        rhs = rhs - (q_row(n - m) * f) * factor
                    count += 1
                    if lhs != rhs:
                        failures.append(f"rel1 m={m},n={n},p_{mu}")

                    # q*_m G_n = G_n q*_m + q*_{m-1} G_{n-1} + G_{n-1} q*_{m-1}
                    lhs = _qs(m, _G(n, f))
                    rhs = (
                        _G(n, _qs(m, f))
                        + _qs(m - 1, _G(n - 1, f))
                        + _G(n - 1, _qs(m - 1, f))
                    )
                    count += 1
                    if lhs != rhs:
                        failures.append(f"rel2 m={m},n={n},p_{mu}")

                    # Q_m q_n = q_n Q_m - Q_{m+1} q_{n-1} - q_{n-1} Q_{m+1}
                    lhs = _Q(m, q_or_zero(n) * f)
                    rhs = (
                        q_or_zero(n) * _Q(m, f)
                        - _Q(m + 1, q_or_zero(n - 1) * f)
                        - q_or_zero(n - 1) * _Q(m + 1, f)
                    )
                    count += 1
                    if lhs != rhs:
                        failures.append(f"rel3 m={m},n={n},p_{mu}")
    return _result("mixed-relations", failures, f"{count} relations checked")


def check_gstar_on_schur(max_n: int) -> CheckResult:
    """Closed form for starred G-modes on Schur Q-vectors vs the operator."""
    failures = []
    count = 0
    for lam in _shapes(0, max_n):
        for k in range(1, max_n + 1):
            count += 1
            if gstar_on_schur(k, lam) != _Gs(k, schur_q(lam)):
                failures.append(f"k={k},lam={lam}")
    return _result("gstar-on-schur", failures, f"{count} pairs checked")


def check_gstar_powersum(max_n: int) -> CheckResult:
    """Starred G-modes on power-sum monomials: peel index subpartitions."""
    failures = []
    count = 0
    for w in range(max_n + 1):
        for mu in enumerate_odd(w):
            for k in range(max_n + 1):
                lhs = _Gs(k, p_monomial(mu))
                rhs = GammaElement()
                for i in range(w + 1):
                    for nu in index_subpartitions(mu, i):
                        rhs = rhs + p_monomial(nu) * _Gs(k + i - w, one())
                count += 1
                if lhs != rhs:
                    failures.append(f"k={k},mu={mu}")
    return _result("gstar-powersum", failures, f"{count} cases checked")


def check_powersum_adjoint_on_g(max_n: int) -> CheckResult:
    """Adjoint power sums on Q-Hall-Littlewood vectors lower one row index."""
    failures = []
    count = 0
    for lam in _shapes(0, max_n):
        for k in range(1, max_n + 1, 2):
            lhs = pn_star(k, qhl(lam))
            rhs = GammaElement()
            for i in range(len(lam)):
                modes = lam[:i] + (lam[i] - k,) + lam[i + 1 :]
                rhs = rhs + g_modes_on_vacuum(modes)
            count += 1
            if lhs != rhs:
                failures.append(f"k={k},lam={lam}")
    return _result("powersum-adjoint", failures, f"{count} cases checked")


def check_pieri(max_n: int) -> CheckResult:
    """One-row multiplication rule on Schur Q-vectors with strip statistics."""
    failures = []
    count = 0
    for mu in _shapes(0, max_n):
        for r in range(max_n - sum(mu) + 1):
            lhs = schur_q(mu) * q_row(r)
            rhs = GammaElement()
            for strip in horizontal_strips(mu, r):
                coeff = 2 ** (strip.a_stat + len(mu) - len(strip.outer))
                rhs = rhs + schur_q(strip.outer) * coeff
            count += 1
            if lhs != rhs:
                failures.append(f"mu={mu},r={r}")
    return _result("pieri", failures, f"{count} products checked")


def check_adjointness(max_n: int) -> CheckResult:
    """<G_n u, v> = <u, G*_n v> exactly, and <Q_n u, v> = (-1)^n <u, Q_{-n} v>.

    The Q-mode sign is forced by the substitution z -> -1/z on odd series;
    the sign-free form holds only for even n (verified numerically here)."""
    failures = []
    count = 0
    for n in range(-max_n, max_n + 1):
        for d in range(max_n + 1):
            e = d + n
            if not 0 <= e <= max_n:
                continue
            for mu, u in _basis(d):
                for nu, v in _basis(e):
                    count += 2
                    sign = -1 if n % 2 else 1
                    if pair(_Q(n, u), v) != pair(u, _Q(-n, v)) * sign:
                        failures.append(f"Q n={n},{mu},{nu}")
                    if pair(_G(n, u), v) != pair(u, _Gs(n, v)):
                        failures.append(f"G n={n},{mu},{nu}")
    return _result("adjointness", failures, f"{count} pairings checked")


def operators_suite(max_n: int) -> list[CheckResult]:
    return [
        check_clifford(max_n),
        check_vacuum(max_n),
        check_quadratic(max_n),
        check_mixed_relations(max_n),
        check_gstar_on_schur(max_n),
        check_gstar_powersum(max_n),
        check_powersum_adjoint_on_g(max_n),
        check_pieri(max_n),
        check_adjointness(max_n),
    ]


# ----------------------------------------------------------------- lkostka


def check_l_oracle(max_n: int) -> CheckResult:
    """Recursion equals the vertex-operator definition on every pair."""
    failures, count = _agree(_cells(0, max_n, enumerate_strict), l_recursive, l_direct)
    return _result("l-recursion-vs-oracle", failures, f"{count} pairs agree (n<={max_n})")


def check_l_support(max_n: int) -> CheckResult:
    """Zero outside dominance; one on the diagonal."""
    failures = []
    for lam, mu in _cells(0, max_n, enumerate_strict):
        v = l_recursive(lam, mu)
        if lam == mu and v != ONE:
            failures.append(f"diag {lam}")
        if not dominance_leq(mu, lam) and not v.is_zero:
            failures.append(f"support {lam},{mu}")
    return _result("l-support-diagonal", failures, f"support and diagonal verified (n<={max_n})")


def check_l_top_row(max_n: int) -> CheckResult:
    """Value at the one-row shape: 2^{l(mu)-1} t^{n(mu)}."""
    failures = []
    for mu in _shapes(1, max_n):
        if l_recursive((sum(mu),), mu) != TPoly.term(2 ** (len(mu) - 1), n_stat(mu)):
            failures.append(f"{mu}")
    return _result("l-top-row", failures, f"one-row values verified (n<={max_n})")


def check_l_degree(max_n: int) -> CheckResult:
    """Nonzero entries have degree n(mu) - n(lam)."""
    failures = []
    for lam, mu in _cells(0, max_n, enumerate_strict):
        v = l_recursive(lam, mu)
        if not v.is_zero and v.degree != n_stat(mu) - n_stat(lam):
            failures.append(f"{lam},{mu}: deg {v.degree}")
    return _result("l-degree", failures, f"degree law verified (n<={max_n})")


def check_l_divisibility(max_n: int) -> CheckResult:
    """Integer coefficients divisible by 2^{l(mu)-l(lam)} under dominance."""
    failures = []
    for lam, mu in _cells(0, max_n, enumerate_strict):
        if not dominance_leq(mu, lam):
            continue
        power = 2 ** (len(mu) - len(lam))
        for c in l_recursive(lam, mu).coeffs:
            if c.denominator != 1 or int(c) % power:
                failures.append(f"{lam},{mu}: {c}")
                break
    return _result("l-divisibility", failures, f"2-power divisibility verified (n<={max_n})")


def check_l_prefix(max_n: int) -> CheckResult:
    """Prepending a common new largest part preserves the value:
    L((n',lam), (n',mu)) = L(lam, mu) whenever n' exceeds both top parts."""
    failures = []
    count = 0
    for lam, mu in _cells(0, min(6, max_n - 1), enumerate_strict):
        top = max(lam[0] if lam else 0, mu[0] if mu else 0)
        base = l_recursive(lam, mu)
        for new in range(top + 1, max_n + 1):
            count += 1
            if l_recursive((new,) + lam, (new,) + mu) != base:
                failures.append(f"n'={new},{lam},{mu}")
    return _result("l-prefix", failures, f"{count} prefixed pairs checked")


def check_l_stability(max_n: int) -> CheckResult:
    """Growing the top row of both shapes preserves the value when
    mu_1 >= lam_2."""
    failures = []
    count = 0
    bound = min(max_n, 7)
    for lam, mu in _cells(1, bound, enumerate_strict):
        if len(lam) > 1 and mu[0] < lam[1]:
            continue
        base = l_recursive(lam, mu)
        for r in range(1, 5):
            grown_l = (lam[0] + r,) + lam[1:]
            grown_m = (mu[0] + r,) + mu[1:]
            count += 1
            if l_recursive(grown_l, grown_m) != base:
                failures.append(f"{lam},{mu},r={r}")
    return _result("l-stability", failures, f"{count} grown pairs checked (|lam|<={bound})")


def check_l_two_row(max_n: int) -> CheckResult:
    """Two-row closed form agrees with the recursion."""
    cells = ((lam, mu) for mu, lam in _cells(3, max_n, enumerate_strict) if len(mu) == 2)
    failures, count = _agree(cells, l_two_row, l_recursive)
    return _result("l-two-row", failures, f"{count} two-row values checked")


def diagnostic_l_positivity(max_n: int) -> CheckResult:
    """Report any negative coefficient in the Q-Kostka matrices (conjecturally
    none exist; never fatal)."""
    violations = []
    for lam, mu in _cells(0, max_n, enumerate_strict):
        v = l_recursive(lam, mu)
        if any(c < 0 for c in v.coeffs):
            violations.append(f"{lam},{mu}: {v}")
    return _result(
        "l-positivity",
        violations,
        f"all entries non-negative (n<={max_n})",
        diagnostic=True,
    )


def lkostka_suite(max_n: int) -> list[CheckResult]:
    return [
        check_l_oracle(max_n),
        check_l_support(max_n),
        check_l_top_row(max_n),
        check_l_degree(max_n),
        check_l_divisibility(max_n),
        check_l_prefix(max_n),
        check_l_stability(max_n),
        check_l_two_row(max_n),
        diagnostic_l_positivity(max_n),
    ]


# ---------------------------------------------------------------- spingreen


def check_y_routes(max_n: int) -> CheckResult:
    """Recursion, direct pairing and transition-matrix routes agree."""
    failures = []
    count = 0
    for lam, mu in _cells(1, max_n, enumerate_odd):
        a = y_recursive(lam, mu)
        count += 1
        if a != y_direct(lam, mu) or a != y_via_l(lam, mu):
            failures.append(f"{lam},{mu}")
    return _result("y-three-routes", failures, f"{count} cells agree (n<={max_n})")


def check_y_degree(max_n: int) -> CheckResult:
    """Degree n(lam) with leading coefficient 2^{l(lam)-1}."""
    failures = []
    for lam, mu in _cells(1, max_n, enumerate_odd):
        v = y_recursive(lam, mu)
        if v.degree != n_stat(lam) or v.leading_coefficient != 2 ** (len(lam) - 1):
            failures.append(f"{lam},{mu}: {v}")
    return _result("y-degree", failures, f"degree/leading law verified (n<={max_n})")


def check_y_one_row(max_n: int) -> CheckResult:
    """One-row shapes give the constant 1."""
    failures = []
    for n in range(1, max_n + 1):
        for mu in enumerate_odd(n):
            if y_recursive((n,), mu) != ONE:
                failures.append(f"{mu}")
    return _result("y-one-row", failures, f"one-row values verified (n<={max_n})")


def check_y_two_row(max_n: int) -> CheckResult:
    """Two-row closed form agrees with the recursion."""
    cells = ((lam, mu) for lam, mu in _cells(3, max_n, enumerate_odd) if len(lam) == 2)
    failures, count = _agree(cells, lambda lam, mu: y_two_row(lam[0], sum(lam), mu), y_recursive)
    return _result("y-two-row", failures, f"{count} two-row values checked")


def check_y_reconstruction(max_n: int) -> CheckResult:
    """Summing z_mu^{-1} 2^{l(mu)} Y p_mu over odd mu rebuilds the
    Q-Hall-Littlewood vector."""
    weight = lambda lam, mu: y_recursive(lam, mu) * Fraction(2 ** len(mu), z_factor(mu))
    failures = _rebuilds(max_n, weight, qhl)
    return _result("y-reconstruction", failures, f"expansions rebuilt (n<={max_n})")


def check_frobenius(max_n: int) -> CheckResult:
    """Spin characters with their 2-power normalization rebuild the Schur
    Q-vectors."""

    def weight(lam, mu):
        e = (len(lam) + len(mu) + epsilon(lam)) // 2
        return Fraction(2**e, z_factor(mu)) * spin_character(lam, mu)

    failures = _rebuilds(max_n, weight, schur_q)
    return _result("frobenius", failures, f"character expansions rebuilt (n<={max_n})")


def check_char_integrality(max_n: int) -> CheckResult:
    """Every spin character value is an integer with even 2-power parity."""
    failures = []
    count = 0
    for lam, mu in _cells(1, max_n, enumerate_odd):
        count += 1
        try:
            spin_character(lam, mu)
        except ArithmeticError as exc:
            failures.append(str(exc))
    return _result("char-integrality", failures, f"{count} values integral (n<={max_n})")


def diagnostic_y_positivity(max_n: int) -> CheckResult:
    """Report negative coefficients of the degree-reversed one-column values
    t^{n(lam)} Y(lam, 1^n; 1/t) (never fatal)."""
    violations = []
    for lam in _shapes(1, max_n):
        v = y_recursive(lam, (1,) * sum(lam))
        reversed_coeffs = [v.coefficient(n_stat(lam) - k) for k in range(n_stat(lam) + 1)]
        if any(c < 0 for c in reversed_coeffs):
            violations.append(f"{lam}: {v}")
    return _result(
        "y-positivity",
        violations,
        f"reversed one-column values non-negative (n<={max_n})",
        diagnostic=True,
    )


def spingreen_suite(max_n: int) -> list[CheckResult]:
    return [
        check_y_routes(max_n),
        check_y_degree(max_n),
        check_y_one_row(max_n),
        check_y_two_row(max_n),
        check_y_reconstruction(max_n),
        check_frobenius(min(max_n, 8)),
        check_char_integrality(max_n),
        diagnostic_y_positivity(max_n),
    ]


# ------------------------------------------------------------------- tables


def tables_suite(max_n: int) -> list[CheckResult]:
    """Cell-for-cell comparison of generated tables with the golden data."""
    results = []
    for n in range(3, min(max_n, 7) + 1):
        golden = golden_y_polys(n)
        table = y_table(n)
        golden_entry = lambda lam, mu: golden.get((lam, mu), ZERO)
        failures, _ = _agree(_cells(n, n, enumerate_odd), table.entry, golden_entry)
        if len(golden) != len(enumerate_strict(n)) * len(enumerate_odd(n)):
            failures.append("golden grid incomplete")
        results.append(
            _result(f"golden-table-{n}", failures, f"{len(golden)} cells match")
        )
    return results


SUITES = {
    "operators": operators_suite,
    "lkostka": lkostka_suite,
    "spingreen": spingreen_suite,
    "tables": tables_suite,
}


def run_suite(name: str, max_n: int) -> tuple[list[CheckResult], float]:
    """Run one named suite; returns (results, wall seconds)."""
    start = time.perf_counter()
    results = SUITES[name](max_n)
    return results, time.perf_counter() - start
