import hashlib
import json
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammaq import verify, vertexops
from gammaq.gamma import GammaElement, d_dp, one, p_monomial, pair
from gammaq.memo import cached, clear_memos
from gammaq.partitions import enumerate_odd, enumerate_strict, multiplicities, z_factor
from gammaq.tpoly import ONE, TPoly, inv_z_t
from gammaq.vertexops import (
    G_SPEC,
    GSTAR_SPEC,
    Q_SPEC,
    QSTAR_SPEC,
    apply_component,
    expand_in_schur_q,
    g_modes_on_vacuum,
    gstar_on_schur,
    q_row,
    qhl,
    schur_q,
)


def test_q_modes_on_vacuum():
    for n in range(7):
        assert apply_component(Q_SPEC, n, one()) == q_row(n)
    for n in range(1, 7):
        assert apply_component(Q_SPEC, -n, one()).is_zero


def test_gstar_modes_on_vacuum():
    for n in range(7):
        lhs = apply_component(GSTAR_SPEC, -n, one())
        rhs = GammaElement({rho: inv_z_t(rho) for rho in enumerate_odd(n)})
        assert lhs == rhs, n


def test_schur_q():
    assert schur_q(()) == one()
    assert schur_q((1,)) == p_monomial((1,)) * 2
    assert pair(schur_q((2, 1)), schur_q((2, 1))) == TPoly([4])
    with pytest.raises(ValueError):
        schur_q((3, 3))


def test_q_rows():
    assert q_row(0) == one()
    assert q_row(1) == p_monomial((1,)) * 2
    assert q_row(2) == p_monomial((1, 1)) * 2
    with pytest.raises(ValueError):
        q_row(-1)


def test_qhl_expansions():
    assert expand_in_schur_q(qhl((3, 2))) == {
        (3, 2): ONE,
        (4, 1): TPoly([0, 2]),
        (5,): TPoly([0, 0, 2]),
    }
    assert expand_in_schur_q(qhl((4, 1))) == {(4, 1): ONE, (5,): TPoly([0, 2])}
    assert expand_in_schur_q(qhl((5,))) == {(5,): ONE}
    with pytest.raises(ValueError):
        qhl((1, 3))


def _vacuum_text(n: int) -> str:
    """Canonical JSON of the terms of qhl(lam) and schur_q(lam), lam strict of weight n."""
    doc = {
        name: [[list(lam), [[list(mu), c.to_json()] for mu, c in vector(lam).terms()]] for lam in enumerate_strict(n)]
        for name, vector in (("qhl", qhl), ("schur_q", schur_q))
    }
    return json.dumps(doc, sort_keys=True)


# sha256 of _vacuum_text(n): n = 0..13 recorded from the mode expansion that
# chained d/dp_n over every odd rho of each weight, n = 14..18 from the
# substitution modes while the creation terms were still TPoly products.
VACUUM_DIGESTS = json.loads((Path(__file__).parent / "data" / "vacuum_sha256.json").read_text())


def test_vacuum_vectors_are_pinned():
    clear_memos()
    changed = [n for n, digest in VACUUM_DIGESTS.items()
               if hashlib.sha256(_vacuum_text(int(n)).encode("utf-8")).hexdigest() != digest]
    assert not changed


def _exp_weight(rule, rho) -> TPoly:
    """prod_j rule(rho_j) / aut(rho): the coefficient of rho in exp(sum_n rule(n) x_n)."""
    aut = prod(factorial(k) for k in multiplicities(rho).values())
    return prod((rule(part) for part in rho), start=ONE) * Fraction(1, aut)


@pytest.mark.parametrize("spec", [Q_SPEC, G_SPEC, GSTAR_SPEC, QSTAR_SPEC], ids=lambda spec: spec.key)
def test_creation_terms_match_exponential_definition(spec):
    # r runs past 16, the top z-degree that a weight-16 expand --basis p reaches.
    clear_memos()
    for r in range(19):
        expected = GammaElement({rho: _exp_weight(spec.creation, rho) for rho in enumerate_odd(r)})
        term = vertexops._creation_term(spec, r)
        assert term == expected, r
        if spec is QSTAR_SPEC and r:
            assert term.is_zero, r


def test_q_rows_have_the_power_sum_weights():
    clear_memos()
    for r in range(19):
        expected = GammaElement({rho: Fraction(2 ** len(rho), z_factor(rho)) for rho in enumerate_odd(r)})
        assert q_row(r) == expected, r


def _reference_component(spec, m: int, mu) -> GammaElement:
    """The mode of index m on p_mu from the exponentials' definition: every
    odd rho of the annihilation exponential acts by composed d/dp_n."""
    result = GammaElement()
    for s in range(sum(mu) + 1):
        r = (s - m) if spec.star else (m + s)
        if r < 0:
            continue
        creation = GammaElement({nu: _exp_weight(spec.creation, nu) for nu in enumerate_odd(r)})
        for rho in enumerate_odd(s):
            g = p_monomial(mu)
            for part in rho:
                g = d_dp(part, g)
            result = result + creation * g * _exp_weight(spec.annihilation, rho)
    return result


@pytest.mark.parametrize("spec", [Q_SPEC, G_SPEC, GSTAR_SPEC, QSTAR_SPEC], ids=lambda spec: spec.key)
def test_apply_component_matches_exponential_definition(spec):
    for n in range(7):
        for mu in enumerate_odd(n):
            for m in range(-6, 7):
                assert apply_component(spec, m, p_monomial(mu)) == _reference_component(spec, m, mu), (mu, m)
    # Same support, different coefficients, back to back on shared memos: a
    # memo keyed on the support alone would return the first vector's image.
    for c in (TPoly([0, 1]), 2, Fraction(1, 2)):
        f = GammaElement({(3,): 1, (1, 1, 1): c})
        for m in range(-6, 7):
            expected = _reference_component(spec, m, (3,)) + _reference_component(spec, m, (1, 1, 1)) * c
            assert apply_component(spec, m, f) == expected, (c, m)


def test_apply_component_is_memoized_by_value(monkeypatch):
    calls = []
    creation_term = vertexops._creation_term

    def counting(spec, r):
        calls.append(r)
        return creation_term(spec, r)

    monkeypatch.setattr(vertexops, "_creation_term", counting)
    clear_memos()
    f = GammaElement({(3,): 1, (1, 1, 1): TPoly([0, 2])})
    g = GammaElement({(1, 1, 1): TPoly([0, 2]), (3,): 1})
    assert list(f._terms) != list(g._terms)
    first = apply_component(G_SPEC, 1, f)
    assert calls
    calls.clear()
    assert apply_component(G_SPEC, 1, g) == first
    assert not calls
    clear_memos()
    assert not vertexops._apply_memo


def test_apply_memo_key_holds_the_denominator():
    # Equal numerators over different denominators: a memo keyed on the
    # numerators alone would hand one vector's image to the other.
    clear_memos()
    f = p_monomial((3,))
    g = f * Fraction(1, 2)
    assert g._terms == f._terms and g._den != f._den
    for m in range(-3, 4):
        assert apply_component(Q_SPEC, m, g) == apply_component(Q_SPEC, m, f) * Fraction(1, 2), m


def test_a_non_integral_annihilation_rule_is_refused():
    spec = vertexops.OperatorSpec("half", Q_SPEC.creation, lambda n: TPoly([Fraction(1, 2)]))
    with pytest.raises(ValueError, match="integer polynomial"):
        apply_component(spec, 0, p_monomial((1,)))


_specs = st.sampled_from([Q_SPEC, G_SPEC, GSTAR_SPEC, QSTAR_SPEC])
_odd_small = [mu for w in range(7) for mu in enumerate_odd(w)]
_coeffs = st.one_of(
    st.integers(-3, 3),
    st.fractions(-2, 2, max_denominator=4),
    st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(TPoly),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_specs, st.integers(-5, 5), st.dictionaries(st.sampled_from(_odd_small), _coeffs, min_size=1, max_size=4))
def test_apply_component_does_not_depend_on_memo_state(spec, m, terms):
    f = GammaElement(terms)
    linear = GammaElement()
    for mu, c in terms.items():
        linear = linear + apply_component(spec, m, p_monomial(mu)) * c
    warm = apply_component(spec, m, f)
    assert warm == linear
    assert apply_component(spec, m, f) == warm
    clear_memos()
    assert apply_component(spec, m, f) == warm


def test_modes_of_one_vector_share_one_annihilation(monkeypatch):
    calls = []
    expand = vertexops._annihilate.__wrapped__

    def spy(spec, f):
        calls.append(spec.key)
        return expand(spec, f)

    monkeypatch.setattr(
        vertexops, "_annihilate", cached(vertexops._annihilate_memo, key=lambda spec, f: (spec.key, f))(spy)
    )
    clear_memos()
    terms = {(3, 1): TPoly([1, -1]), (1, 1, 1, 1): Fraction(1, 3), (5,): 2}
    f = GammaElement(terms)
    for spec in (Q_SPEC, G_SPEC, GSTAR_SPEC, QSTAR_SPEC):
        for m in range(-4, 5):
            linear = GammaElement()
            for mu, c in terms.items():
                linear = linear + _reference_component(spec, m, mu) * c
            assert apply_component(spec, m, f) == linear, (spec.key, m)
    # _reference_component applies no mode, so f alone was expanded
    assert calls == ["Q", "G", "G*", "q*"]
    clear_memos()


def test_operator_identities_cover_the_shared_annihilation(monkeypatch):
    # Drop every group that takes weight off: the modes then act as pure
    # creation, and the operator suite must notice.
    annihilate = vertexops._annihilate

    def s_zero_only(spec, f):
        return [(s, group) for s, group in annihilate(spec, f) if s == 0]

    monkeypatch.setattr(vertexops, "_annihilate", s_zero_only)
    clear_memos()
    try:
        results, _ = verify.run_suite("operators", 2)
    finally:
        clear_memos()
    assert any(r.fatal for r in results), results


def test_g_squared_is_not_zero():
    assert g_modes_on_vacuum((1, 1)) == schur_q((2,)) * TPoly([0, 2])


@pytest.mark.parametrize("modes", [(2.9,), (2.0,), ("3",), (True,), (1, Fraction(1))])
def test_g_modes_on_vacuum_refuses_a_mode_that_is_not_an_int(modes):
    # int() would read 2.9 as 2, "3" as 3 and True as 1; a partition's parts
    # are refused the same way
    with pytest.raises(TypeError):
        g_modes_on_vacuum(modes)


def test_gstar_on_schur_examples():
    assert gstar_on_schur(3, (4, 1)) == q_row(1) * schur_q((1,)) * TPoly([0, 2])
    for k in range(1, 6):
        assert gstar_on_schur(k, (k,)) == one() * 2
    # index 2 on (3,1): only the first row survives
    assert gstar_on_schur(2, (3, 1)) == apply_component(GSTAR_SPEC, 2, schur_q((3, 1)))
    assert gstar_on_schur(2, (3, 1)) == q_row(1) * schur_q((1,)) * TPoly([0, 2])
    with pytest.raises(ValueError):
        gstar_on_schur(0, (2,))
