"""Exact symbolic computation in the ring generated by odd power sums:
Schur Q-functions, Q-Hall-Littlewood functions, Q-Kostka polynomials,
spin Green polynomials and spin characters of the symmetric group.

The exports below are resolved on first access (PEP 562), so importing one
submodule, such as gammaq.cli for a table command, loads only what that
submodule imports.  Each name is looked up in its defining module every
time, never copied here, so it is always that module's current object.
"""

__version__ = "0.1.0"

import importlib

_EXPORTS = {
    "gamma": ("GammaElement", "d_dp", "one", "p_monomial", "pair", "pn_star"),
    "partitions": (
        "Partition",
        "check_odd",
        "check_partition",
        "check_strict",
        "dominance_leq",
        "enumerate_odd",
        "enumerate_partitions",
        "enumerate_strict",
        "epsilon",
        "horizontal_strips",
        "index_subpartitions",
        "n_stat",
        "parse_partition",
        "partition_str",
        "union_sorted",
        "z_factor",
    ),
    "qkostka": (
        "Table",
        "expand_g_in_q",
        "l_direct",
        "l_recursive",
        "l_table",
        "l_two_row",
    ),
    "spingreen": (
        "spin_char_table",
        "spin_character",
        "y_direct",
        "y_recursive",
        "y_table",
        "y_two_row",
        "y_via_l",
    ),
    "tpoly": ("ONE", "T", "TPoly", "ZERO", "d_poly", "inv_z_t", "signed_t"),
    "vertexops": (
        "G_SPEC",
        "GSTAR_SPEC",
        "OperatorSpec",
        "Q_SPEC",
        "QSTAR_SPEC",
        "apply_component",
        "expand_in_schur_q",
        "gstar_on_schur",
        "q_row",
        "qhl",
        "schur_q",
    ),
    "memo": (),
}

# export name -> defining submodule; each submodule is exported as itself
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_ORIGIN.update({module: module for module in _EXPORTS})

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = importlib.import_module(f"{__name__}.{module}")
    return mod if name == module else getattr(mod, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
