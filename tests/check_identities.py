"""Two whole-table identities of weight n, checked past the sha256 pins.

For strict lam and kappa of weight n, with mu over the odd partitions of n:

  orthogonality  sum_mu 2^{l(mu)} z_mu^{-1} X0(lam, mu) X0(kappa, mu)
                 = 2^{l(lam)} delta_{lam kappa},
                 which is <Q_lam, Q_kappa> (Macdonald, III.8);
  Gram           sum_mu 2^{l(mu)} z_mu^{-1} Y(lam, mu; t) Y(kappa, mu; t)
                 = sum_{nu strict} 2^{l(nu)} L(nu, lam; t) L(nu, kappa; t),
                 both sides <G_lam, G_kappa>, as G_lam is both
                 sum_mu 2^{l(mu)} z_mu^{-1} Y(lam, mu) p_mu and
                 sum_nu L(nu, lam) Q_nu.

Both run on ints, every term scaled by Z = lcm z_mu.  X0 comes from the
columns of one spingreen._x0_columns() builder; Y from y_table(n) and L
from the columns qkostka._column, two independent recursions.  A
polynomial's int coefficient list is read at t = 2^k, with k so large that
every coefficient of either side lies below 2^(k-1) in absolute value: two
such integer polynomials that agree at 2^k are equal, so each side of the
Gram identity is one int per pair.

tests/test_identities.py runs both in Tier-1.  Run as a script, this checks
orthogonality at n = 28 and the Gram identity at n = 20, and exits 1 on any
failure:

    PYTHONPATH=src python tests/check_identities.py
"""

import sys
import time
from math import lcm
from operator import mul

from gammaq.partitions import enumerate_odd, enumerate_strict, z_factor
from gammaq.qkostka import _column
from gammaq.spingreen import _x0_columns, y_table
from gammaq.tpoly import ZERO


def _gram(rows, vectors, weights):
    """The weighted dot product of vectors[lam] and vectors[kappa] for each
    pair lam, kappa of rows with lam at or before kappa."""
    scaled = {lam: list(map(mul, weights, v)) for lam, v in vectors.items()}
    return {
        (lam, kappa): sum(map(mul, scaled[lam], vectors[kappa]))
        for i, lam in enumerate(rows)
        for kappa in rows[i:]
    }


def _mu_weights(n):
    """Z = lcm z_mu over the odd mu of n, and 2^{l(mu)} Z / z_mu for each mu."""
    odd = enumerate_odd(n)
    big_z = lcm(*map(z_factor, odd))
    return big_z, [(big_z << len(mu)) // z_factor(mu) for mu in odd]


def orthogonality_failures(n):
    """The pairs of strict partitions of n where orthogonality fails."""
    big_z, weights = _mu_weights(n)
    rows, column = enumerate_strict(n), _x0_columns()
    x0 = {lam: [column(mu).get(lam, 0) for mu in enumerate_odd(n)] for lam in rows}
    return [
        (lam, kappa)
        for (lam, kappa), value in _gram(rows, x0, weights).items()
        if value != (big_z << len(lam) if lam == kappa else 0)
    ]


def gram_failures(n):
    """The pairs of strict partitions of n where the Gram identity fails."""
    big_z, weights = _mu_weights(n)
    rows = enumerate_strict(n)
    y = y_table(n)
    y_coeffs = {lam: [y.entry(lam, mu).coeffs for mu in y.cols()] for lam in rows}
    l_coeffs = {lam: [_column(lam).get(nu, ZERO).coeffs for nu in rows] for lam in rows}
    nu_weights = [big_z << len(nu) for nu in rows]
    # a coefficient of either side is at most the sum of its weights times
    # the largest squared l1 norm of a polynomial on that side
    norm = max(sum(map(abs, c)) for side in (y_coeffs, l_coeffs) for r in side.values() for c in r)
    k = (max(sum(weights), sum(nu_weights)) * norm * norm).bit_length() + 2

    def at(side):  # each polynomial's value at t = 2^k
        return {lam: [sum(c << (k * i) for i, c in enumerate(cs)) for cs in r] for lam, r in side.items()}

    lhs = _gram(rows, at(y_coeffs), weights)
    rhs = _gram(rows, at(l_coeffs), nu_weights)
    return [pair for pair, value in lhs.items() if value != rhs[pair]]


def main():
    failed = False
    for name, check, n in (("orthogonality", orthogonality_failures, 28), ("Gram identity", gram_failures, 20)):
        start = time.perf_counter()
        failures = check(n)
        elapsed = time.perf_counter() - start
        print(f"{name} at n = {n}: {len(failures)} failing pairs ({elapsed:.2f} s)")
        for lam, kappa in failures[:5]:
            print(f"  fails at {lam}, {kappa}")
        failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
