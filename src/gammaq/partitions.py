"""Integer partition combinatorics.

A partition is a plain tuple of weakly decreasing positive ints; the empty
tuple is the unique partition of 0.  Strict partitions have pairwise
distinct parts, odd partitions have every part odd.  Partitions are
immutable values, safe to share freely.

Canonical ordering for enumeration and table axes is decreasing
lexicographic, e.g. (7), (6,1), (5,2), (4,3), (4,2,1).  Each enumerator
builds a weight from the smaller weights it has already cached: the
partitions of n are (k,) + p for each first part k, largest first, and each
cached p of weight n - k that may follow k.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from typing import Iterable

from .memo import cached, memo

Partition = tuple[int, ...]

_INT_ONLY = frozenset((int,))
_z_memo: dict[Partition, int] = memo()
_subpartitions_memo: dict[tuple[Partition, int], list[tuple[Partition, int]]] = memo()


def check_partition(parts: Iterable[int]) -> Partition:
    """Validate and canonicalize to a tuple: TypeError unless every part is
    an int (not a bool), ValueError unless positive and weakly decreasing."""
    p = tuple(parts)
    if not _INT_ONLY.issuperset(map(type, p)):
        raise TypeError(f"parts must be ints: {p}")
    if p and min(p) < 1:
        raise ValueError(f"parts must be positive integers: {p}")
    if list(p) != sorted(p, reverse=True):
        raise ValueError(f"parts must be weakly decreasing: {p}")
    return p


def check_strict(parts: Iterable[int]) -> Partition:
    """Validate a partition with pairwise distinct parts."""
    p = check_partition(parts)
    if len(set(p)) != len(p):
        raise ValueError(f"parts must be distinct: {p}")
    return p


def check_odd(parts: Iterable[int]) -> Partition:
    """Validate a partition with all parts odd."""
    p = check_partition(parts)
    if any(x % 2 == 0 for x in p):
        raise ValueError(f"parts must be odd: {p}")
    return p


def check_pair(lam, mu, check_mu=check_strict) -> tuple[Partition, Partition]:
    """Validate a strict row index lam and a column index mu of the same
    weight, mu validated by check_mu."""
    lam, mu = check_strict(lam), check_mu(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"weight mismatch: |{lam}| != |{mu}|")
    return lam, mu


def n_stat(p: Partition) -> int:
    """The statistic n(p) = sum of (i-1)*p_i with rows indexed from 1."""
    return sum(i * part for i, part in enumerate(p))


def multiplicities(p: Partition) -> dict[int, int]:
    """Map part value -> multiplicity."""
    m: dict[int, int] = {}
    for part in p:
        m[part] = m.get(part, 0) + 1
    return m


def z_factor(p: Partition) -> int:
    """The order z_p = prod over part values i of i^{m_i} * m_i!; p is
    checked on every call, so a refusal never depends on the memo."""
    return _z(check_partition(p))


@cached(_z_memo, key=tuple)
def _z(p: Partition) -> int:
    """z_factor of a partition already checked, as a tuple: memoized on it."""
    z = 1
    for i, m in multiplicities(p).items():
        z *= i**m * factorial(m)
    return z


def epsilon(p: Partition) -> int:
    """Parity of |p| - l(p): 0 if even, 1 if odd."""
    return (sum(p) - len(p)) % 2


def dominance_leq(a: Partition, b: Partition) -> bool:
    """True iff |a| = |b| and every partial sum of a is <= that of b."""
    if sum(a) != sum(b):
        return False
    ta = tb = 0
    for i in range(max(len(a), len(b))):
        ta += a[i] if i < len(a) else 0
        tb += b[i] if i < len(b) else 0
        if ta > tb:
            return False
    return True


def union_sorted(a: Partition, b: Partition) -> Partition:
    """Multiset union of parts, re-sorted decreasing."""
    return tuple(sorted(a + b, reverse=True))


def partition_str(p: Partition) -> str:
    """Text form: comma-separated parts, empty string for ()."""
    return ",".join(str(x) for x in p)


def parse_partition(text: str) -> Partition:
    """Inverse of partition_str, for parts in ASCII decimal digits; '' or '()' is ()."""
    if text in ("", "()"):
        return ()
    parts = text.split(",")
    if not all(x.isascii() and x.isdigit() for x in parts):
        raise ValueError("each part must be ASCII decimal digits")
    return check_partition(int(x) for x in parts)


def _by_first_part(enumerate_fn, n: int, top: int, step: int, strict: bool) -> tuple[Partition, ...]:
    """(k,) + p for k = top, top - step, ... > 0 and each p of
    enumerate_fn(n - k) whose first part is < k if strict, else <= k, in
    that order, which is decreasing lexicographic.  As k falls the weights
    n - k rise, so the smaller weights are filled bottom-up: a weight not yet
    cached is built from weights read before it, and no call recurses more
    than three deep."""
    if n < 0:
        raise ValueError(f"weight must be non-negative: {n}")
    if n == 0:
        return ((),)
    return tuple([(k,) + p for k in range(top, 0, -step) for p in enumerate_fn(n - k) if not p or p[0] <= k - strict])


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in decreasing lexicographic order."""
    return _by_first_part(enumerate_partitions, n, n, 1, strict=False)


@lru_cache(maxsize=None)
def enumerate_strict(n: int) -> tuple[Partition, ...]:
    """All partitions of n into distinct parts, decreasing lexicographic."""
    return _by_first_part(enumerate_strict, n, n, 1, strict=True)


@lru_cache(maxsize=None)
def enumerate_odd(n: int) -> tuple[Partition, ...]:
    """All partitions of n into odd parts, decreasing lexicographic."""
    return _by_first_part(enumerate_odd, n, n - 1 + n % 2, 2, strict=False)


@cached(_subpartitions_memo, key=lambda p, i: (tuple(p), i))
def index_subpartitions(p: Partition, i: int) -> list[tuple[Partition, int]]:
    """The subpartitions of weight i chosen by index subsequence, each
    distinct nu once as (nu, count), where count = prod_j C(m_j(p), m_j(nu))
    is the number of index subsets that give nu, e.g. ((1,1), 1) -> [((1,), 2)];
    the order of the list is unspecified.  A depth-first walk over the
    distinct part values takes k of the m copies of each, multiplying the
    count by C(m, k).  It abandons a branch once the weight still needed
    exceeds the parts left.  Memoized on (tuple(p), i); p is checked on a
    miss, and the list is shared."""
    p = check_partition(p)
    if not 0 <= i <= sum(p):
        raise ValueError(f"subpartition weight {i} out of range for {p}")
    values = list(multiplicities(p).items())
    suffix = [0] * (len(values) + 1)
    for j in range(len(values) - 1, -1, -1):
        suffix[j] = suffix[j + 1] + values[j][0] * values[j][1]
    out: list[tuple[Partition, int]] = []

    def walk(j: int, need: int, chosen: Partition, ways: int) -> None:
        if need == 0:
            out.append((chosen, ways))
        elif suffix[j] >= need:
            part, m = values[j]
            for k in range(min(m, need // part) + 1):
                walk(j + 1, need - k * part, chosen + (part,) * k, ways * comb(m, k))

    walk(0, i, (), 1)
    return out


def horizontal_strips(inner: Partition, r: int) -> list[tuple[Partition, int]]:
    """The horizontal r-strips on inner as (outer, a) pairs: each strict
    outer whose skew shape outer/inner has at most one box per column.

    One walk over the rows of inner and one new bottom row.  Row i of the
    outer shape lies between inner[i] and inner[i-1] (the new row at most
    inner[-1]) and stays below row i-1.  The rows under row i hold at most
    inner[i] boxes, so row i takes at least the budget left.  The a-statistic
    counts the runs of strip boxes in adjacent columns, kept as the walk
    goes: a row that grows starts a run, unless it reaches inner[i-1] right
    under a row that also grew.

    r = 0 yields the single pair (inner, 0).  Results are in decreasing
    lexicographic order of the outer shape.
    """
    inner = check_strict(inner)
    if r < 0:
        raise ValueError("strip size must be non-negative")
    rows = inner + (0,)
    results: list[tuple[Partition, int]] = []
    outer: list[int] = []

    def walk(i: int, budget: int, grew: bool, a: int) -> None:
        if not budget:
            results.append((tuple(outer) + inner[i:], a))
            return
        lo = rows[i]
        hi = lo + budget if i == 0 else min(lo + budget, rows[i - 1] - (not grew))
        for v in range(hi, max(lo, budget) - 1, -1):
            outer.append(v)
            if v > lo:
                walk(i + 1, budget - (v - lo), True, a + (not (grew and v == rows[i - 1])))
            else:
                walk(i + 1, budget, False, a)
            outer.pop()

    walk(0, r, False, 0)
    return results
