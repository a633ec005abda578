"""The package namespace: every export resolves, on first access, to the
object its defining module holds, and `import *` still works."""

import importlib

import pytest

import gammaq

# The export list, by defining module; the submodules themselves are
# exported too.
EXPORTS = {
    "gamma": ("GammaElement", "d_dp", "one", "p_monomial", "pair", "pn_star"),
    "partitions": (
        "Partition", "check_odd", "check_partition", "check_strict", "dominance_leq",
        "enumerate_odd", "enumerate_partitions", "enumerate_strict", "epsilon",
        "horizontal_strips", "index_subpartitions", "n_stat", "parse_partition",
        "partition_str", "union_sorted", "z_factor",
    ),
    "qkostka": ("Table", "expand_g_in_q", "l_direct", "l_recursive", "l_table", "l_two_row"),
    "spingreen": (
        "spin_char_table", "spin_character", "y_direct", "y_recursive", "y_table",
        "y_two_row", "y_via_l",
    ),
    "tpoly": ("ONE", "T", "TPoly", "ZERO", "d_poly", "inv_z_t", "signed_t"),
    "vertexops": (
        "G_SPEC", "GSTAR_SPEC", "OperatorSpec", "Q_SPEC", "QSTAR_SPEC", "apply_component",
        "expand_in_schur_q", "gstar_on_schur", "q_row", "qhl", "schur_q",
    ),
    "memo": (),
}  # fmt: skip


def test_all_is_the_export_list():
    names = [name for names in EXPORTS.values() for name in names] + list(EXPORTS)
    assert gammaq.__all__ == sorted(names)
    assert len(gammaq.__all__) == 60


def test_each_export_is_its_defining_modules_object():
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"gammaq.{module}")
        assert getattr(gammaq, module) is defining
        for name in names:
            assert getattr(gammaq, name) is getattr(defining, name), name


def test_star_import_and_dir():
    namespace = {}
    exec("from gammaq import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(gammaq.__all__)
    assert set(gammaq.__all__) <= set(dir(gammaq))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gammaq.no_such_name
