"""Exact univariate polynomials in t over the rationals, and the int
coefficient code every integer polynomial of the package runs on.

TPoly stores an integer numerator and one common denominator, the
representation of FLINT's fmpq_poly:

  * _num is a tuple of ints, the coefficients ascending in t, with no
    trailing zeros; the zero polynomial is the empty tuple;
  * _den is a positive int with gcd(content(_num), _den) = 1, and 1 for the
    zero polynomial.

This normal form is unique, so equality and hashing compare the pair
directly.  Arithmetic runs on ints with one gcd reduction per result, and
denominator 1, the case of every L, Y and character value, takes no gcd at
all.  _pmul and _padd, the int products and sums of TPoly, are also those of
gamma and vertexops; _text, the one writer of polynomial text, plain or
LaTeX, writes every TPoly straight from its ints.  Only int and Fraction
scalars are accepted, so no float or string can slip into an exact value.
A TPoly is immutable and hashable.

The module also carries the small t-arithmetic gadgets the closed formulas
need: the signed t-integer (k)_t, from which the two-row spin Green form
builds its division by t+1; the subpartition generating polynomial D_t,
whose integer coefficients count index subpartitions by weight; and the
polynomial weights (-2)^{l(rho)} / z_rho(t) attached to odd partitions,
where z_rho(t) = z_rho * prod_j (1 - t^{rho_j})^{-1}.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .memo import cached, memo
from .partitions import Partition, _z, check_odd, check_partition

Scalar = Union[int, Fraction]

_inv_z_t_memo: dict[Partition, TPoly] = memo()


def _as_tpoly(x) -> TPoly | None:
    """x itself if it is a TPoly, an exact scalar as a constant polynomial,
    None for anything else."""
    if isinstance(x, TPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return TPoly((x,))
    return None


def _ratio_str(n: int, d: int) -> str:
    """n/d, d > 0, in lowest terms as Fraction prints it: '3', '-1/2'."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _parse_ratio(s: str) -> tuple[int, int]:
    """(n, d) of a string 'n/d' over the characters -/0123456789, as
    from_json checks them: ValueError unless it is -?digits/digits, which
    Fraction reads as n/d, ZeroDivisionError on d = 0."""
    n, _, d = s.partition("/")
    if not d.isdigit():  # no sign and no second slash in d
        raise ValueError(f"coefficient must be an integer or num/den: {s!r}")
    n, d = int(n), int(d)
    if not d:
        raise ZeroDivisionError(f"zero denominator: {s!r}")
    return n, d


def _pmul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two int coefficient sequences, ascending in t."""
    if len(a) == 1:
        s = a[0]
        return [s * c for c in b]
    if len(b) == 1:
        s = b[0]
        return [c * s for c in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _padd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Sum of two int coefficient sequences, as a new list."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _text(num: Sequence[int], den: int = 1, brace: bool = False) -> str:
    """num/den in normal form as text, descending: '2t^2+8t+5', '(1/2)t^3-1/3',
    '0' for no terms; brace braces every exponent for LaTeX, as in
    2t^{10}+t^{2}.  Denominator 1 writes each int as it is, with no gcd."""
    pieces = []
    for k in range(len(num) - 1, -1, -1):
        c = num[k]
        if not c:
            continue
        if c < 0:
            sign, c = "-", -c
        else:
            sign = "+" if pieces else ""
        if den != 1:
            g = gcd(c, den)
            c //= g
            if g != den:  # not an integer: c becomes its text, which is never 1
                c = f"({c}/{den // g})" if k else f"{c}/{den // g}"
        if k == 0:
            pieces.append(f"{sign}{c}")
        else:
            tpow = "t" if k == 1 else f"t^{{{k}}}" if brace else f"t^{k}"
            pieces.append(sign + tpow if c == 1 else f"{sign}{c}{tpow}")
    return "".join(pieces) or "0"


class TPoly:
    """Polynomial in t with exact rational coefficients."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        num = list(coeffs)
        den = 1
        convert = False
        for c in num:
            if type(c) is int:
                continue
            if isinstance(c, Fraction):
                den = lcm(den, c.denominator)
            elif not isinstance(c, int):
                raise TypeError(f"TPoly coefficients must be int or Fraction, not {type(c).__name__}")
            convert = True
        if convert:
            # Each Fraction is reduced, so over the lcm of the denominators
            # the numerators have no common factor with it.
            num = [
                c.numerator * (den // c.denominator) if isinstance(c, Fraction) else int(c) * den
                for c in num
            ]
        while num and not num[-1]:
            num.pop()
        self._num = tuple(num)
        self._den = den if num else 1

    @classmethod
    def _raw(cls, num: tuple[int, ...], den: int) -> "TPoly":
        """Internal constructor: (num, den) must already be in normal form."""
        self = object.__new__(cls)
        self._num = num
        self._den = den
        return self

    @classmethod
    def _reduce(cls, num: list[int], den: int) -> "TPoly":
        """Internal constructor: strip trailing zeros and cancel the content
        against den > 0."""
        while num and not num[-1]:
            num.pop()
        if not num:
            return ZERO
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                den //= g
                num = [c // g for c in num]
        return cls._raw(tuple(num), den)

    @staticmethod
    def term(coeff: Scalar, power: int) -> "TPoly":
        """The monomial coeff * t^power, power >= 0."""
        if power < 0:
            raise ValueError("TPoly exponents must be non-negative")
        return TPoly((0,) * power + (coeff,))

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        """Ascending coefficients: the ints themselves when every one is an
        integer, Fractions otherwise."""
        if self._den == 1:
            return self._num
        d = self._den
        return tuple(Fraction(c, d) for c in self._num)

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of t^k (zero outside the stored range)."""
        if 0 <= k < len(self._num):
            return Fraction(self._num[k], self._den)
        return Fraction(0)

    @property
    def degree(self) -> int:
        """Degree in t; -1 for the zero polynomial."""
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def leading_coefficient(self) -> Fraction:
        return Fraction(self._num[-1], self._den) if self._num else Fraction(0)

    def __add__(self, other) -> "TPoly":
        if not isinstance(other, TPoly):
            other = _as_tpoly(other)
            if other is None:
                return NotImplemented
        a, da = self._num, self._den
        b, db = other._num, other._den
        if da == db:
            den = da
        else:
            g = gcd(da, db)
            den = da // g * db
            fa, fb = db // g, da // g
            a = [c * fa for c in a] if fa != 1 else a
            b = [c * fb for c in b] if fb != 1 else b
        out = _padd(a, b)
        if den == 1 and len(a) != len(b):
            return TPoly._raw(tuple(out), 1)
        return TPoly._reduce(out, den)

    __radd__ = __add__

    def __neg__(self) -> "TPoly":
        return TPoly._raw(tuple([-c for c in self._num]), self._den)

    def __sub__(self, other) -> "TPoly":
        if isinstance(other, (TPoly, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other) -> "TPoly":
        return (-self) + other

    def __mul__(self, other) -> "TPoly":
        a, da = self._num, self._den
        if isinstance(other, TPoly):
            b, db = other._num, other._den
            if not a or not b:
                return ZERO
            out = _pmul(a, b)
            den = da * db
            if den == 1:
                # A product of nonzero integer polynomials has a nonzero top.
                return TPoly._raw(tuple(out), 1)
            return TPoly._reduce(out, den)
        # A scalar n/d.  With gcd(content(a), da) = gcd(n, d) = 1 the content
        # of a*n shares exactly gcd(n, da) * gcd(content(a), d) with da*d.
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        n, d = other.numerator, other.denominator
        if not n or not a:
            return ZERO
        g = gcd(n, da)
        if g != 1:
            n //= g
            da //= g
        if d != 1:
            g = gcd(d, *a)
            if g != 1:
                d //= g
                a = [c // g for c in a]
        return TPoly._raw(tuple([c * n for c in a]), da * d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: Scalar) -> Fraction:
        """The exact value at an int or Fraction x."""
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"TPoly evaluates at an int or Fraction, not {type(x).__name__}")
        return Fraction(sum(c * x**k for k, c in enumerate(self._num)), self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TPoly):
            other = _as_tpoly(other)
            if other is None:
                return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"TPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        """Human form, descending powers: '2t^2+8t+5'."""
        return _text(self._num, self._den)

    def to_json(self) -> list[str]:
        """Ascending coefficient strings, 'num/den' or plain integer."""
        den = self._den
        if den == 1:
            return [str(c) for c in self._num]
        return [_ratio_str(c, den) for c in self._num]

    @staticmethod
    def from_json(data: list[str]) -> "TPoly":
        """Inverse of to_json.  Raises TypeError unless data is a list of
        strings, and ValueError on a string that is neither -?digits nor
        -?digits/digits in ASCII, as to_json writes them (so '1.5', '1e3',
        '+1', ' 1/2', '1_0' and non-ASCII digits are refused);
        ZeroDivisionError on a zero den.  Integers with a nonzero top are
        already the normal form; with a slash, the numerators are scaled to
        the lcm of the denominators and reduced once."""
        if not isinstance(data, list):
            raise TypeError(f"TPoly JSON must be a list of coefficients: {data!r}")
        text = "".join(data)  # raises TypeError on a non-string
        if text.lstrip("-/0123456789"):  # one grammar, checked at C level
            raise ValueError(f"coefficients must be ASCII integers or num/den: {data!r}")
        if "/" in text:
            ratios = [_parse_ratio(s) if "/" in s else (int(s), 1) for s in data]
            den = lcm(*(d for _, d in ratios))
            return TPoly._reduce([n * (den // d) for n, d in ratios], den)
        num = tuple(map(int, data))
        if num and num[-1]:
            return TPoly._raw(num, 1)  # already in normal form
        return TPoly._reduce(list(num), 1)


ZERO = TPoly()
ONE = TPoly((1,))
T = TPoly((0, 1))


def signed_t(k: int) -> TPoly:
    """The signed t-integer (k)_t = (t^k - (-1)^k)/(t+1); (0)_t = 1, 0 for k < 0."""
    if k < 0:
        return ZERO
    if k == 0:
        return ONE
    return TPoly(tuple((-1) ** (k - 1 - j) for j in range(k)))


def d_poly(p: Partition) -> TPoly:
    """Generating polynomial of index subpartitions by weight: prod (1 + t^part)."""
    result = ONE
    for part in check_partition(p):
        result = result * TPoly((1,) + (0,) * (part - 1) + (1,))
    return result


@cached(_inv_z_t_memo, key=tuple)
def inv_z_t(rho: Partition) -> TPoly:
    """The polynomial weight (-2)^{l(rho)} / z_rho(t) of an odd partition.

    With z_rho(t) = z_rho * prod_j (1 - t^{rho_j})^{-1} this equals
    (-2)^{l(rho)} * prod_j (1 - t^{rho_j}) / z_rho, a genuine polynomial.
    Memoized on tuple(rho).
    """
    rho = check_odd(rho)
    result = ONE
    for part in rho:
        result = result * TPoly((1,) + (0,) * (part - 1) + (-1,))
    return result * Fraction((-2) ** len(rho), _z(rho))
