"""Exact univariate polynomials in t over the rationals.

TPoly stores a dense tuple of Fraction coefficients, ascending in t, with no
trailing zeros; the zero polynomial is the empty tuple.  It is immutable and
hashable.

The module also carries the small t-arithmetic gadgets the closed formulas
need: the t-integer [n]_t, the signed t-integer (k)_t, Gauss t-binomials,
the subpartition generating polynomial D_t, and the polynomial weights
(-2)^{l(rho)} / z_rho(t) attached to odd partitions, where
z_rho(t) = z_rho * prod_j (1 - t^{rho_j})^{-1}.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .partitions import Partition, check_odd, z_factor

Scalar = Union[int, Fraction]


def _as_scalar(x) -> Fraction | None:
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    return None


class TPoly:
    """Polynomial in t with exact rational coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @staticmethod
    def term(coeff: Scalar, power: int) -> "TPoly":
        """The monomial coeff * t^power, power >= 0."""
        if power < 0:
            raise ValueError("TPoly exponents must be non-negative")
        return TPoly((0,) * power + (coeff,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of t^k (zero outside the stored range)."""
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return Fraction(0)

    @property
    def degree(self) -> int:
        """Degree in t; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        return self._coeffs[-1] if self._coeffs else Fraction(0)

    def __add__(self, other) -> "TPoly":
        s = _as_scalar(other)
        if s is not None:
            other = TPoly((s,))
        if not isinstance(other, TPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return TPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "TPoly":
        return TPoly(tuple(-c for c in self._coeffs))

    def __sub__(self, other) -> "TPoly":
        s = _as_scalar(other)
        if s is not None:
            other = TPoly((s,))
        if not isinstance(other, TPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "TPoly":
        return (-self) + other

    def __mul__(self, other) -> "TPoly":
        s = _as_scalar(other)
        if s is not None:
            if s == 0:
                return TPoly()
            return TPoly(tuple(c * s for c in self._coeffs))
        if not isinstance(other, TPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return TPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return TPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = TPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: Scalar) -> Fraction:
        """Evaluate at an exact rational point."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        s = _as_scalar(other)
        if s is not None:
            other = TPoly((s,))
        if not isinstance(other, TPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"TPoly({list(self._coeffs)!r})"

    def __str__(self) -> str:
        """Human form, descending powers: '2t^2+8t+5'."""
        if not self._coeffs:
            return "0"
        pieces = []
        for k in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if pieces else "")
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                tpow = "t" if k == 1 else f"t^{k}"
                if mag == 1:
                    body = tpow
                elif mag.denominator == 1:
                    body = f"{mag}{tpow}"
                else:
                    body = f"({mag}){tpow}"
            pieces.append(sign + body)
        return "".join(pieces)

    def to_json(self) -> list[str]:
        """Ascending coefficient strings, 'num/den' or plain integer."""
        return [str(c) for c in self._coeffs]

    @staticmethod
    def from_json(data: list[str]) -> "TPoly":
        """Inverse of to_json.  Raises TypeError unless data is a list of
        strings, and ValueError on a string that is neither an integer nor
        'num/den' (so '1.5' and '1e3' are refused)."""
        if not isinstance(data, list):
            raise TypeError(f"TPoly JSON must be a list of coefficients: {data!r}")
        if "/" not in "".join(data):  # join raises TypeError on a non-string
            return TPoly(map(int, data))
        return TPoly(Fraction(s) if "/" in s else int(s) for s in data)


ZERO = TPoly()
ONE = TPoly((1,))
T = TPoly((0, 1))


def t_integer(n: int) -> TPoly:
    """The t-integer [n]_t = 1 + t + ... + t^{n-1}; [0]_t = 1 by convention."""
    if n < 0:
        raise ValueError("t-integer undefined for negative n")
    if n == 0:
        return ONE
    return TPoly((1,) * n)


def signed_t(k: int) -> TPoly:
    """The signed t-integer (k)_t = (t^k - (-1)^k)/(t+1); (0)_t = 1, 0 for k < 0."""
    if k < 0:
        return ZERO
    if k == 0:
        return ONE
    return TPoly(tuple((-1) ** (k - 1 - j) for j in range(k)))


def exact_div(f: TPoly, g: TPoly) -> TPoly:
    """Quotient f/g; raise ValueError if g is zero or the remainder is nonzero."""
    if g.is_zero:
        raise ValueError("division by the zero polynomial")
    rem = list(f.coeffs)
    gc = g.coeffs
    dg = len(gc) - 1
    lead = gc[-1]
    if len(rem) - 1 < dg:
        if any(rem):
            raise ValueError(f"({f}) is not divisible by ({g})")
        return ZERO
    out = [Fraction(0)] * (len(rem) - dg)
    for i in range(len(rem) - 1, dg - 1, -1):
        q = rem[i] / lead
        out[i - dg] = q
        if q:
            for j, c in enumerate(gc):
                rem[i - dg + j] -= q * c
    if any(rem):
        raise ValueError(f"({f}) is not divisible by ({g})")
    return TPoly(out)


def d_poly(p: Partition) -> TPoly:
    """Generating polynomial of index subpartitions by weight: prod (1 + t^part)."""
    result = ONE
    for part in p:
        result = result * TPoly((1,) + (0,) * (part - 1) + (1,))
    return result


def d_count(p: Partition, i: int) -> int:
    """Number of index subpartitions of p with weight i."""
    c = d_poly(p).coefficient(i)
    assert c.denominator == 1
    return int(c)


def inv_z_t(rho: Partition) -> TPoly:
    """The polynomial weight (-2)^{l(rho)} / z_rho(t) of an odd partition.

    With z_rho(t) = z_rho * prod_j (1 - t^{rho_j})^{-1} this equals
    (-2)^{l(rho)} * prod_j (1 - t^{rho_j}) / z_rho, a genuine polynomial.
    """
    rho = check_odd(rho)
    result = ONE
    for part in rho:
        result = result * TPoly((1,) + (0,) * (part - 1) + (-1,))
    return result * Fraction((-2) ** len(rho), z_factor(rho))
