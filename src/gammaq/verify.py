"""Verification suites: operator identities, recursion-vs-oracle equality,
structural laws, golden-table comparison, and positivity diagnostics.

A check states an identity lhs = rhs as a stream of cases (label, lhs, rhs),
one per instance, built while the check runs.  _agree is the one loop that
runs the stream: it compares the two sides of each case exactly and keeps the
labels of the cases that differ.  Diagnostics report violations but never
fail a run; everything else is an exact assertion.

_check registers each check, its suite and its cap on max_n in CHECKS.
SUITES maps a suite name to a callable(max_n) returning a list of
CheckResult, derived from CHECKS but for the hand-written tables suite.  The
suites are shared between the command-line `verify` subcommand and the tests.

The checks call the memoized recursions directly, unvalidated: _y_rec, as
y_table does, and _l_rec, which reads a cell of the memoized L column that
l_table is built from.  Every cell is enumerated, or strict by construction
(a new largest part, a grown top row), so none is validated again.
"""

from __future__ import annotations

import functools
import time
from fractions import Fraction
from typing import NamedTuple

from .gamma import GammaElement, one, p_monomial, pair, pn_star
from .golden import GOLDEN_Y, golden_y_polys
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
from .qkostka import _l_rec, l_direct, l_two_row
from .spingreen import (
    _y_rec,
    spin_character,
    y_direct,
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


class CheckResult(NamedTuple):
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


def _agree(cases) -> tuple[list[str], int]:
    """The labels of the cases (label, lhs, rhs) whose two sides differ, and
    the number of cases."""
    failures = []
    count = 0
    for label, lhs, rhs in cases:
        count += 1
        if lhs != rhs:
            failures.append(label)
    return failures, count


# (suite, function name, cap) of every check, in the order the suites run them.
CHECKS: list[tuple[str, str, int | None]] = []


def _check(name: str, ok_detail: str, suite: str, cap: int | None = None, diagnostic: bool = False):
    """Turn cases(max_n), a generator of cases, into the check named name,
    registered in CHECKS under suite, that runs to min(max_n, cap).  When every
    case agrees, its detail is ok_detail formatted with the number of cases
    (count) and that max_n.  A diagnostic check never fails a run."""

    def make(cases):
        @functools.wraps(cases)
        def check(max_n: int) -> CheckResult:
            max_n = max_n if cap is None else min(max_n, cap)
            failures, count = _agree(cases(max_n))
            detail = ok_detail.format(count=count, max_n=max_n)
            return _result(name, failures, detail, diagnostic)

        CHECKS.append((suite, cases.__name__, cap))
        return check

    return make


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


def _cell_cases(cells, route, oracle):
    """The case of each cell (lam, mu): route(lam, mu) against oracle(lam, mu)."""
    for lam, mu in cells:
        yield f"{lam},{mu}", route(lam, mu), oracle(lam, mu)


def _rebuilds(max_n: int, weight, target):
    """The case of each strict lam of weight 1..max_n: the sum over odd mu of
    weight(lam, mu) p_mu against target(lam)."""
    for lam in _shapes(1, max_n):
        acc = GammaElement({mu: weight(lam, mu) for mu in enumerate_odd(sum(lam))})
        yield f"{lam}", acc, target(lam)


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


@_check("clifford", "{count} anticommutators checked", "operators")
def check_clifford(max_n: int):
    """Anticommutators of Q-modes: {Q_m, Q_n} = (-1)^n 2 delta_{m,-n}."""
    for mu, f, m, n in _mode_pairs(max_n):
        lhs = _Q(m, _Q(n, f)) + _Q(n, _Q(m, f))
        rhs = f * (2 * (-1) ** n) if m == -n else GammaElement()
        yield f"m={m},n={n},p_{mu}", lhs, rhs


@_check("vacuum", "modes 0..{max_n} checked", "operators")
def check_vacuum(max_n: int):
    """Negative Q-modes kill the vacuum; negative starred G-modes expand in
    power sums with the (-2)^l / z(t) polynomial weights."""
    for n in range(max_n + 1):
        yield f"Q_{-n}.1", _Q(-n, one()), one() if n == 0 else GammaElement()
        rhs = GammaElement({rho: inv_z_t(rho) for rho in enumerate_odd(n)})
        yield f"G*_{-n}.1", _Gs(-n, one()), rhs


@_check("quadratic", "{count} relations checked", "operators")
def check_quadratic(max_n: int):
    """Quadratic relations among G-modes."""
    one_minus_t_sq = TPoly((1, 0, -1))
    two_one_minus_t_sq = TPoly((2, -4, 2))  # 2(1-t)^2
    for mu, f, m, n in _mode_pairs(max_n):
        lhs = (_G(m, _G(n, f)) + _G(n, _G(m, f))) * one_minus_t_sq + (
            _G(m - 1, _G(n + 1, f))
            - _G(n + 1, _G(m - 1, f))
            + _G(n - 1, _G(m + 1, f))
            - _G(m + 1, _G(n - 1, f))
        ) * TPoly((0, 1))
        rhs = f * (two_one_minus_t_sq * (-1) ** n) if m == -n else GammaElement()
        yield f"m={m},n={n},p_{mu}", lhs, rhs


@_check("mixed-relations", "{count} relations checked", "operators")
def check_mixed_relations(max_n: int):
    """Commutation relations mixing starred G-modes, Q-modes, one-row
    multiplications and their adjoints.  The relation with 1/t factors is
    verified in t-cleared form."""
    t = TPoly((0, 1))
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
                    yield f"rel1 m={m},n={n},p_{mu}", lhs, rhs

                    # q*_m G_n = G_n q*_m + q*_{m-1} G_{n-1} + G_{n-1} q*_{m-1}
                    lhs = _qs(m, _G(n, f))
                    rhs = (
                        _G(n, _qs(m, f))
                        + _qs(m - 1, _G(n - 1, f))
                        + _G(n - 1, _qs(m - 1, f))
                    )
                    yield f"rel2 m={m},n={n},p_{mu}", lhs, rhs

                    # Q_m q_n = q_n Q_m - Q_{m+1} q_{n-1} - q_{n-1} Q_{m+1}
                    lhs = _Q(m, q_or_zero(n) * f)
                    rhs = (
                        q_or_zero(n) * _Q(m, f)
                        - _Q(m + 1, q_or_zero(n - 1) * f)
                        - q_or_zero(n - 1) * _Q(m + 1, f)
                    )
                    yield f"rel3 m={m},n={n},p_{mu}", lhs, rhs


@_check("gstar-on-schur", "{count} pairs checked", "operators")
def check_gstar_on_schur(max_n: int):
    """Closed form for starred G-modes on Schur Q-vectors vs the operator."""
    for lam in _shapes(0, max_n):
        for k in range(1, max_n + 1):
            yield f"k={k},lam={lam}", gstar_on_schur(k, lam), _Gs(k, schur_q(lam))


@_check("gstar-powersum", "{count} cases checked", "operators")
def check_gstar_powersum(max_n: int):
    """Starred G-modes on power-sum monomials: peel index subpartitions."""
    for w in range(max_n + 1):
        for mu in enumerate_odd(w):
            for k in range(max_n + 1):
                lhs = _Gs(k, p_monomial(mu))
                rhs = GammaElement()
                for i in range(w + 1):
                    for nu in index_subpartitions(mu, i):
                        rhs = rhs + p_monomial(nu) * _Gs(k + i - w, one())
                yield f"k={k},mu={mu}", lhs, rhs


@_check("powersum-adjoint", "{count} cases checked", "operators")
def check_powersum_adjoint_on_g(max_n: int):
    """Adjoint power sums on Q-Hall-Littlewood vectors lower one row index."""
    for lam in _shapes(0, max_n):
        for k in range(1, max_n + 1, 2):
            lhs = pn_star(k, qhl(lam))
            rhs = GammaElement()
            for i in range(len(lam)):
                modes = lam[:i] + (lam[i] - k,) + lam[i + 1 :]
                rhs = rhs + g_modes_on_vacuum(modes)
            yield f"k={k},lam={lam}", lhs, rhs


@_check("pieri", "{count} products checked", "operators")
def check_pieri(max_n: int):
    """One-row multiplication rule on Schur Q-vectors with strip statistics."""
    for mu in _shapes(0, max_n):
        for r in range(max_n - sum(mu) + 1):
            lhs = schur_q(mu) * q_row(r)
            rhs = GammaElement()
            for strip in horizontal_strips(mu, r):
                coeff = 2 ** (strip.a_stat + len(mu) - len(strip.outer))
                rhs = rhs + schur_q(strip.outer) * coeff
            yield f"mu={mu},r={r}", lhs, rhs


@_check("adjointness", "{count} pairings checked", "operators")
def check_adjointness(max_n: int):
    """<G_n u, v> = <u, G*_n v> exactly, and <Q_n u, v> = (-1)^n <u, Q_{-n} v>.

    The Q-mode sign is forced by the substitution z -> -1/z on odd series;
    the sign-free form holds only for even n (verified numerically here)."""
    for n in range(-max_n, max_n + 1):
        sign = -1 if n % 2 else 1
        for d in range(max_n + 1):
            e = d + n
            if not 0 <= e <= max_n:
                continue
            for mu, u in _basis(d):
                for nu, v in _basis(e):
                    yield f"Q n={n},{mu},{nu}", pair(_Q(n, u), v), pair(u, _Q(-n, v)) * sign
                    yield f"G n={n},{mu},{nu}", pair(_G(n, u), v), pair(u, _Gs(n, v))


# ----------------------------------------------------------------- lkostka


@_check("l-recursion-vs-oracle", "{count} pairs agree (n<={max_n})", "lkostka")
def check_l_oracle(max_n: int):
    """Recursion equals the vertex-operator definition on every pair."""
    yield from _cell_cases(_cells(0, max_n, enumerate_strict), _l_rec, l_direct)


@_check("l-support-diagonal", "support and diagonal verified (n<={max_n})", "lkostka")
def check_l_support(max_n: int):
    """Zero outside dominance; one on the diagonal."""
    for lam, mu in _cells(0, max_n, enumerate_strict):
        v = _l_rec(lam, mu)
        if lam == mu:
            yield f"diag {lam}", v, ONE
        if not dominance_leq(mu, lam):
            yield f"support {lam},{mu}", v, ZERO


@_check("l-top-row", "one-row values verified (n<={max_n})", "lkostka")
def check_l_top_row(max_n: int):
    """Value at the one-row shape: 2^{l(mu)-1} t^{n(mu)}."""
    for mu in _shapes(1, max_n):
        yield f"{mu}", _l_rec((sum(mu),), mu), TPoly.term(2 ** (len(mu) - 1), n_stat(mu))


@_check("l-degree", "degree law verified (n<={max_n})", "lkostka")
def check_l_degree(max_n: int):
    """Nonzero entries have degree n(mu) - n(lam)."""
    for lam, mu in _cells(0, max_n, enumerate_strict):
        v = _l_rec(lam, mu)
        if not v.is_zero:
            yield f"{lam},{mu}: deg {v.degree}", v.degree, n_stat(mu) - n_stat(lam)


@_check("l-divisibility", "2-power divisibility verified (n<={max_n})", "lkostka")
def check_l_divisibility(max_n: int):
    """Integer coefficients divisible by 2^{l(mu)-l(lam)} under dominance;
    a case compares the first coefficient that is not with none."""
    for lam, mu in _cells(0, max_n, enumerate_strict):
        if dominance_leq(mu, lam):
            power = 2 ** (len(mu) - len(lam))
            coeffs = _l_rec(lam, mu).coeffs
            bad = next((c for c in coeffs if c.denominator != 1 or int(c) % power), None)
            yield f"{lam},{mu}: {bad}", bad, None


@_check("l-prefix", "{count} prefixed pairs checked", "lkostka")
def check_l_prefix(max_n: int):
    """Prepending a common new largest part preserves the value:
    L((n',lam), (n',mu)) = L(lam, mu) whenever n' exceeds both top parts."""
    for lam, mu in _cells(0, min(6, max_n - 1), enumerate_strict):
        top = max(lam[0] if lam else 0, mu[0] if mu else 0)
        base = _l_rec(lam, mu)
        for new in range(top + 1, max_n + 1):
            yield f"n'={new},{lam},{mu}", _l_rec((new,) + lam, (new,) + mu), base


@_check("l-stability", "{count} grown pairs checked (|lam|<={max_n})", "lkostka", cap=7)
def check_l_stability(max_n: int):
    """Growing the top row of both shapes by r = 1..4 preserves the value
    when mu_1 > lam_2.  This check also takes mu_1 = lam_2, where the law
    first fails at |lam| = 9, so its cap=7 runs it to |lam| = 7 at most;
    tests/test_qkostka.py checks the strict law further."""
    for lam, mu in _cells(1, max_n, enumerate_strict):
        if len(lam) > 1 and mu[0] < lam[1]:
            continue
        base = _l_rec(lam, mu)
        for r in range(1, 5):
            grown = _l_rec((lam[0] + r,) + lam[1:], (mu[0] + r,) + mu[1:])
            yield f"{lam},{mu},r={r}", grown, base


@_check("l-two-row", "{count} two-row values checked", "lkostka")
def check_l_two_row(max_n: int):
    """Two-row closed form agrees with the recursion."""
    cells = ((lam, mu) for mu, lam in _cells(3, max_n, enumerate_strict) if len(mu) == 2)
    yield from _cell_cases(cells, l_two_row, _l_rec)


@_check("l-positivity", "all entries non-negative (n<={max_n})", "lkostka", diagnostic=True)
def diagnostic_l_positivity(max_n: int):
    """Report any negative coefficient in the Q-Kostka matrices (conjecturally
    none exist; never fatal)."""
    for lam, mu in _cells(0, max_n, enumerate_strict):
        v = _l_rec(lam, mu)
        yield f"{lam},{mu}: {v}", [c for c in v.coeffs if c < 0], []


# ---------------------------------------------------------------- spingreen


@_check("y-three-routes", "{count} cells agree (n<={max_n})", "spingreen")
def check_y_routes(max_n: int):
    """Recursion, direct pairing and transition-matrix routes agree."""
    for lam, mu in _cells(1, max_n, enumerate_odd):
        a = _y_rec(lam, mu)
        yield f"{lam},{mu}", (a, a), (y_direct(lam, mu), y_via_l(lam, mu))


@_check("y-degree", "degree/leading law verified (n<={max_n})", "spingreen")
def check_y_degree(max_n: int):
    """Degree n(lam) with leading coefficient 2^{l(lam)-1}."""
    for lam, mu in _cells(1, max_n, enumerate_odd):
        v = _y_rec(lam, mu)
        law = (n_stat(lam), 2 ** (len(lam) - 1))
        yield f"{lam},{mu}: {v}", (v.degree, v.leading_coefficient), law


@_check("y-one-row", "one-row values verified (n<={max_n})", "spingreen")
def check_y_one_row(max_n: int):
    """One-row shapes give the constant 1."""
    for n in range(1, max_n + 1):
        for mu in enumerate_odd(n):
            yield f"{mu}", _y_rec((n,), mu), ONE


@_check("y-two-row", "{count} two-row values checked", "spingreen")
def check_y_two_row(max_n: int):
    """Two-row closed form agrees with the recursion."""
    cells = ((lam, mu) for lam, mu in _cells(3, max_n, enumerate_odd) if len(lam) == 2)
    two_row = lambda lam, mu: y_two_row(lam[0], sum(lam), mu)
    yield from _cell_cases(cells, two_row, _y_rec)


@_check("y-reconstruction", "expansions rebuilt (n<={max_n})", "spingreen")
def check_y_reconstruction(max_n: int):
    """Summing z_mu^{-1} 2^{l(mu)} Y p_mu over odd mu rebuilds the
    Q-Hall-Littlewood vector."""
    weight = lambda lam, mu: _y_rec(lam, mu) * Fraction(2 ** len(mu), z_factor(mu))
    yield from _rebuilds(max_n, weight, qhl)


@_check("frobenius", "character expansions rebuilt (n<={max_n})", "spingreen", cap=8)
def check_frobenius(max_n: int):
    """Spin characters with their 2-power normalization rebuild the Schur
    Q-vectors."""

    def weight(lam, mu):
        e = (len(lam) + len(mu) + epsilon(lam)) // 2
        return Fraction(2**e, z_factor(mu)) * spin_character(lam, mu)

    yield from _rebuilds(max_n, weight, schur_q)


@_check("char-integrality", "{count} values integral (n<={max_n})", "spingreen")
def check_char_integrality(max_n: int):
    """Every spin character value is an integer with even 2-power parity; a
    case compares the ArithmeticError message, labelled by itself, with none."""
    for lam, mu in _cells(1, max_n, enumerate_odd):
        try:
            spin_character(lam, mu)
            error = None
        except ArithmeticError as exc:
            error = str(exc)
        yield error, error, None


@_check("y-positivity", "reversed one-column values non-negative (n<={max_n})", "spingreen",
        diagnostic=True)
def diagnostic_y_positivity(max_n: int):
    """Report negative coefficients of the degree-reversed one-column values
    t^{n(lam)} Y(lam, 1^n; 1/t) (never fatal)."""
    for lam in _shapes(1, max_n):
        v = _y_rec(lam, (1,) * sum(lam))
        reversed_coeffs = [v.coefficient(n_stat(lam) - k) for k in range(n_stat(lam) + 1)]
        yield f"{lam}: {v}", [c for c in reversed_coeffs if c < 0], []


# ------------------------------------------------------------------- tables


def tables_suite(max_n: int) -> list[CheckResult]:
    """Cell-for-cell comparison of generated tables with the golden data, one
    result per golden table of weight <= max_n."""
    results = []
    for n in [w for w in GOLDEN_Y if w <= max_n]:
        golden = golden_y_polys(n)
        golden_entry = lambda lam, mu: golden.get((lam, mu), ZERO)
        cases = _cell_cases(_cells(n, n, enumerate_odd), y_table(n).entry, golden_entry)
        failures, _ = _agree(cases)
        if len(golden) != len(enumerate_strict(n)) * len(enumerate_odd(n)):
            failures.append("golden grid incomplete")
        results.append(_result(f"golden-table-{n}", failures, f"{len(golden)} cells match"))
    return results


def _suite(name: str):
    """The suite that runs each check registered under name, in order.  It
    looks each check up in the module globals when it runs, so a check
    rebound on the module is the one that runs."""
    checks = [fn for suite, fn, _ in CHECKS if suite == name]
    return lambda max_n: [globals()[fn](max_n) for fn in checks]


SUITES = {name: _suite(name) for name in dict.fromkeys(s for s, _, _ in CHECKS)}
SUITES["tables"] = tables_suite


def run_suite(name: str, max_n: int) -> tuple[list[CheckResult], float]:
    """Run one named suite; returns (results, wall seconds)."""
    start = time.perf_counter()
    results = SUITES[name](max_n)
    return results, time.perf_counter() - start
