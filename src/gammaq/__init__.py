"""Exact symbolic computation in the ring generated by odd power sums:
Schur Q-functions, Q-Hall-Littlewood functions, Q-Kostka polynomials,
spin Green polynomials and spin characters of the symmetric group.
"""

__version__ = "0.1.0"

from .gamma import GammaElement, d_dp, one, p_monomial, pair, pn_star
from .partitions import (
    HorizontalStrip,
    Partition,
    check_odd,
    check_partition,
    check_strict,
    dominance_leq,
    enumerate_odd,
    enumerate_partitions,
    enumerate_strict,
    epsilon,
    horizontal_strips,
    index_subpartitions,
    n_stat,
    parse_partition,
    partition_str,
    remove_part,
    union_sorted,
    z_factor,
)
from .qkostka import (
    Table,
    expand_g_in_q,
    l_direct,
    l_recursive,
    l_table,
    l_two_row,
)
from .spingreen import (
    spin_char_table,
    spin_character,
    y_direct,
    y_recursive,
    y_table,
    y_two_row,
    y_via_l,
)
from .tpoly import (
    ONE,
    T,
    TPoly,
    ZERO,
    d_poly,
    inv_z_t,
    signed_t,
)
from .vertexops import (
    G_SPEC,
    GSTAR_SPEC,
    OperatorSpec,
    Q_SPEC,
    QSTAR_SPEC,
    apply_component,
    expand_in_schur_q,
    gstar_on_schur,
    q_row,
    qhl,
    schur_q,
)

__all__ = [name for name in dir() if not name.startswith("_")]
