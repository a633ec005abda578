"""Every check of gammaq.verify, the max_n Tier-1 runs it at, and its runner.

A row names a check as the benchmark tracer does: without a check's "check_"
prefix, and with a diagnostic's "diagnostic_".  Each check runs once, from
the test its row names: an acceptance criterion by number, or a unit test by
name for the two laws no criterion covers.  test_acceptance's guard holds the
rows' names equal to the checks gammaq.verify defines.
"""

import time

from gammaq import verify

# name: (max_n, runner).  The mode-composition checks (clifford, quadratic,
# mixed_relations) stop at 5: each weight more about triples their cost.
CHECK_BOUNDS = {
    "l_oracle": (9, 3),
    "y_routes": (9, 3),
    "clifford": (5, 4),
    "vacuum": (6, 4),
    "quadratic": (5, 4),
    "mixed_relations": (5, 4),
    "gstar_on_schur": (8, 4),
    "gstar_powersum": (7, 4),
    "powersum_adjoint_on_g": (7, 4),
    "pieri": (9, 4),
    "adjointness": (5, 4),
    "l_support": (9, 6),
    "l_top_row": (9, 6),
    "l_degree": (9, 6),
    "l_divisibility": (9, 6),
    "l_prefix": (9, 6),
    "l_stability": (9, 6),
    "y_degree": (9, 6),
    "y_one_row": (9, 6),
    "y_two_row": (9, 6),
    "frobenius": (8, 6),
    "char_integrality": (9, 6),
    "diagnostic_l_positivity": (9, 7),
    "diagnostic_y_positivity": (9, 7),
    "l_two_row": (9, "test_qkostka::test_two_row_closed_form"),
    "y_reconstruction": (7, "test_spingreen::test_reconstruction"),
}


def verify_checks():
    """Each check_* and diagnostic_* callable of gammaq.verify, by row name."""
    return {
        name.removeprefix("check_"): fn
        for name, fn in vars(verify).items()
        if callable(fn) and name.startswith(("check_", "diagnostic_"))
    }


def run_checks(runner):
    """Run every row whose runner is `runner`, each within 300 s.

    A check must pass; a diagnostic must be marked diagnostic, and its status
    is printed.
    """
    rows = [(name, n) for name, (n, r) in CHECK_BOUNDS.items() if r == runner]
    assert rows, f"no row names runner {runner!r}"
    checks = verify_checks()
    for name, max_n in rows:
        start = time.perf_counter()
        result = checks[name](max_n)
        elapsed = time.perf_counter() - start
        if name.startswith("diagnostic_"):
            assert result.diagnostic
            status = "no counterexamples" if result.passed else result.detail
            print(f"  diagnostic {result.name} (n<={max_n}): {status}")
        else:
            assert result.passed, f"{result.name}: {result.detail}"
            print(f"  {result.name} holds (n<={max_n})")
        assert elapsed < 300.0, f"{name} took {elapsed:.1f}s"
