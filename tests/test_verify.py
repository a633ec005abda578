"""A check must fail when the route it tests is wrong.

Each check that compares two sides case by case is driven here with one of
the routes it calls replaced by a wrong one.  The check must then report
the failing cases with the usual labels, in the usual order, so a helper
that silently compares nothing cannot pass.
"""

import pytest

from gammaq import spingreen, verify
from gammaq.gamma import one
from gammaq.tpoly import TPoly


def _wrong_poly(*args):
    return TPoly((7,))


def _two_then_seven(*args):
    return TPoly((2, 7))


def _weight_poly(lam, mu):
    return TPoly((sum(lam),))


def _term_difference(f, g):
    return TPoly((len(dict(f.terms())) - len(dict(g.terms())),))


def _nothing(*args):
    return ()


def _wrong_element(*args):
    return one() * 3


def _identity_mode(m, f):
    return f


def _no_character_off_one_row(lam, mu, x0):
    if len(lam) > 1:
        raise ArithmeticError(f"non-integer spin character 1/2 at ({lam}, {mu})")
    return 1


def _shifted_columns(scale, shift):
    """An X0 column builder whose every stored value x is scale * x + shift."""
    column = spingreen._x0_columns()
    return lambda mu: {lam: scale * x + shift for lam, x in column(mu).items()}


class _OffDiagonalTable:
    """A table whose diagonal and two-row cells are replaced by 9."""

    def __init__(self, table):
        self.table = table

    def entry(self, lam, mu):
        if lam == mu or len(lam) == 2:
            return TPoly((9,))
        return self.table.entry(lam, mu)


BROKEN = [
    (
        "l_direct", _wrong_poly, "check_l_oracle", 4,
        "11 violation(s): (),(); (1,),(1,); (2,),(2,); (3,),(3,) ...",
    ),
    (
        "l_two_row", _wrong_poly, "check_l_two_row", 6,
        "18 violation(s): (3,),(2, 1); (2, 1),(2, 1); (4,),(3, 1); (3, 1),(3, 1) ...",
    ),
    (
        "y_two_row", _wrong_poly, "check_y_two_row", 6,
        "18 violation(s): (2, 1),(3,); (2, 1),(1, 1, 1); (3, 1),(3, 1); (3, 1),(1, 1, 1, 1) ...",
    ),
    ("schur_q", _wrong_element, "check_frobenius", 4, "6 violation(s): (1,); (2,); (3,); (2, 1) ..."),
    ("qhl", _wrong_element, "check_y_reconstruction", 4, "6 violation(s): (1,); (2,); (3,); (2, 1) ..."),
    (
        "_Q", _identity_mode, "check_clifford", 2,
        "39 violation(s): m=-2,n=-2,p_(); m=-2,n=-1,p_(); m=-2,n=0,p_(); m=-2,n=1,p_() ...",
    ),
    (
        "_G", _identity_mode, "check_quadratic", 2,
        "45 violation(s): m=-2,n=-2,p_(); m=-2,n=-1,p_(); m=-2,n=0,p_(); m=-2,n=1,p_() ...",
    ),
    (
        "gstar_on_schur", lambda k, lam: one(), "check_gstar_on_schur", 3,
        "15 violation(s): k=1,lam=(); k=2,lam=(); k=3,lam=(); k=1,lam=(1,) ...",
    ),
    (
        "y_direct", _wrong_poly, "check_y_routes", 4,
        "10 violation(s): (1,),(1,); (2,),(1, 1); (3,),(3,); (3,),(1, 1, 1) ...",
    ),
    (
        "y_via_l", _wrong_poly, "check_y_routes", 4,
        "10 violation(s): (1,),(1,); (2,),(1, 1); (3,),(3,); (3,),(1, 1, 1) ...",
    ),
    (
        "horizontal_strips", _nothing, "check_pieri", 3,
        "11 violation(s): mu=(),r=0; mu=(),r=1; mu=(),r=2; mu=(),r=3 ...",
    ),
    (
        "pair", _term_difference, "check_adjointness", 3,
        "32 violation(s): Q n=-3,(3,),(); G n=-3,(3,),(); Q n=-3,(1, 1, 1),(); G n=-3,(1, 1, 1),() ...",
    ),
    (
        "_qs", _identity_mode, "check_mixed_relations", 2,
        "18 violation(s): rel2 m=-1,n=1,p_(); rel2 m=0,n=1,p_(); rel2 m=1,n=1,p_(); rel2 m=-1,n=0,p_(1,) ...",
    ),
    (
        "index_subpartitions", _nothing, "check_gstar_powersum", 3,
        "14 violation(s): k=0,mu=(); k=0,mu=(1,); k=1,mu=(1,); k=0,mu=(1, 1) ...",
    ),
    (
        "g_modes_on_vacuum", _wrong_element, "check_powersum_adjoint_on_g", 4,
        "12 violation(s): k=1,lam=(1,); k=3,lam=(1,); k=1,lam=(2,); k=3,lam=(2,) ...",
    ),
    (
        "_l_rec", _weight_poly, "check_l_prefix", 4,
        "14 violation(s): n'=1,(),(); n'=2,(),(); n'=3,(),(); n'=4,(),() ...",
    ),
    (
        "_l_rec", _weight_poly, "check_l_stability", 4,
        "40 violation(s): (1,),(1,),r=1; (1,),(1,),r=2; (1,),(1,),r=3; (1,),(1,),r=4 ...",
    ),
    (
        "_l_rec", _two_then_seven, "check_l_divisibility", 6,
        "9 violation(s): (3,),(2, 1): 7; (4,),(3, 1): 7; (5,),(4, 1): 7; (5,),(3, 2): 7 ...",
    ),
    (
        "_y_rec", _wrong_poly, "check_y_two_row", 6,
        "18 violation(s): (2, 1),(3,); (2, 1),(1, 1, 1); (3, 1),(3, 1); (3, 1),(1, 1, 1, 1) ...",
    ),
    (
        "_y_rec", _weight_poly, "check_y_degree", 4,
        "9 violation(s): (2,),(1, 1): 2; (3,),(3,): 3; (3,),(1, 1, 1): 3; (2, 1),(3,): 3 ...",
    ),
    (
        "_char", _no_character_off_one_row, "check_char_integrality", 4,
        "4 violation(s): non-integer spin character 1/2 at ((2, 1), (3,)); "
        "non-integer spin character 1/2 at ((2, 1), (1, 1, 1)); "
        "non-integer spin character 1/2 at ((3, 1), (3, 1)); "
        "non-integer spin character 1/2 at ((3, 1), (1, 1, 1, 1))",
    ),
    (
        "_x0_columns", lambda: _shifted_columns(3, 0), "check_frobenius", 4,
        "6 violation(s): (1,); (2,); (3,); (2, 1) ...",
    ),
    (
        "_x0_columns", lambda: _shifted_columns(1, 1), "check_char_integrality", 5,
        "3 violation(s): non-integer spin character -1/2 at ((2, 1), (3,)); "
        "non-integer spin character -1/2 at ((4, 1), (5,)); "
        "non-integer spin character 3/2 at ((3, 2), (5,))",
    ),
]


# A row that breaks a private helper (a memoized recursion, the character
# read from X0, or the X0 columns) is named after the public route it serves,
# so each case keeps one name whichever binding verify calls.
PUBLIC_ROUTE = {
    "_l_rec": "l_recursive",
    "_y_rec": "y_recursive",
    "_char": "spin_character",
    "_x0_columns": "spin_char_table",
}


@pytest.mark.parametrize(
    "route, wrong, check, max_n, detail",
    BROKEN,
    ids=[f"{c}-{PUBLIC_ROUTE.get(r, r)}" for r, _, c, _, _ in BROKEN],
)
def test_a_wrong_route_fails_its_check(monkeypatch, route, wrong, check, max_n, detail):
    assert getattr(verify, check)(max_n).passed
    monkeypatch.setattr(verify, route, wrong)
    result = getattr(verify, check)(max_n)
    assert result.passed is False
    assert result.detail == detail


def test_every_label_template_formats(monkeypatch):
    """Each check formats a label only for a failing case, so here every
    case's label is formatted: a template must have one {} per argument."""
    counts = []

    def agree_formatting_every_label(cases):
        failures, count = [], 0
        for label, args, lhs, rhs in cases:
            count += 1
            assert label.count("{}") == len(args), (label, args)
            text = label.format(*args)
            if lhs != rhs:
                failures.append(text)
        counts.append(count)
        return failures, count

    monkeypatch.setattr(verify, "_agree", agree_formatting_every_label)
    max_n = 4
    for _, check, cap in verify.CHECKS:
        result = getattr(verify, check)(max_n if cap is None else min(max_n, cap))
        assert result.passed, result
    assert all(result.passed for result in verify.tables_suite(max_n))
    assert len(counts) == len(verify.CHECKS) + 2  # golden tables 3 and 4
    assert all(counts), counts


def test_a_wrong_table_fails_the_golden_comparison(monkeypatch):
    y_table = verify.y_table
    monkeypatch.setattr(verify, "y_table", lambda n: _OffDiagonalTable(y_table(n)))
    details = [(r.name, r.passed, r.detail) for r in verify.tables_suite(4)]
    assert details == [
        ("golden-table-3", False, "3 violation(s): (3,),(3,); (2, 1),(3,); (2, 1),(1, 1, 1)"),
        ("golden-table-4", False, "2 violation(s): (3, 1),(3, 1); (3, 1),(1, 1, 1, 1)"),
    ]
    # a golden cell missing reads as zero and is reported as a gap
    monkeypatch.undo()
    golden_y_polys = verify.golden_y_polys
    monkeypatch.setattr(verify, "golden_y_polys", lambda n: dict(list(golden_y_polys(n).items())[1:]))
    details = [(r.passed, r.detail) for r in verify.tables_suite(3)]
    assert details == [(False, "2 violation(s): (3,),(3,); golden grid incomplete")]
    with pytest.raises(ValueError):
        golden_y_polys(8)


def test_a_capped_check_runs_to_its_cap_when_called_directly():
    # the >= form of the stability law breaks from |lam| = 9
    stability = verify.check_l_stability(9)
    assert stability.passed
    assert stability.detail.endswith("(|lam|<=7)")
    assert verify.check_frobenius(9).detail.endswith("(n<=8)")


def test_a_suite_runs_the_check_bound_on_the_module_when_it_runs(monkeypatch):
    stub = verify.CheckResult("stub", True, "stub ran")
    monkeypatch.setattr(verify, "check_clifford", lambda max_n: stub)
    results, _ = verify.run_suite("operators", 1)
    assert results[0] is stub
