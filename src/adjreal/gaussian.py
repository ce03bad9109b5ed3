"""Exact scalars over the Gaussian rationals Q(i).

A scalar is a pair of ``fractions.Fraction`` values (re, im) representing
re + im*i.  Both components are kept in lowest terms with positive
denominator, so equality is plain structural equality and every
operation is exact.

The wire format is the string grammar ``a/b+c/d*i`` ("1/2-3*i", "2", "-i"
and friends); :func:`GaussRat.parse` and ``str()`` round-trip it at any
number of digits, converting long digit runs in chunks below Python's
int <-> str digit limit.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction as _Q

from .errors import ParseError


def rational(num=0, den=1):
    """Build the underlying exact rational type."""
    return _Q(num, den)


_R_ZERO = _Q(0)
_R_ONE = _Q(1)

# a/b with ASCII digits; the imaginary part is c/d*i or a bare i
_RATIONAL = r"[0-9]+(?:/[0-9]+)?"
_IMAGINARY = rf"(?:({_RATIONAL})\s*\*\s*)?i"
_SCALAR = re.compile(
    rf"\s*(?:([+-]?)\s*({_RATIONAL})(?:\s*([+-])\s*{_IMAGINARY})?"
    rf"|([+-]?)\s*{_IMAGINARY})\s*"
)


# Digits per int <-> str conversion: Python (3.11+) refuses longer runs
# when its digit limit is on, and no setting of that limit is below 640.
_CHUNK = 640
_CHUNK_BASE = 10**_CHUNK


def _int_of_digits(digits: str) -> int:
    value = 0
    for k in range(0, len(digits), _CHUNK):
        chunk = digits[k : k + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _digits_of_int(n: int) -> str:
    if n < 0:
        return "-" + _digits_of_int(-n)
    chunks = []
    while n >= _CHUNK_BASE:
        n, low = divmod(n, _CHUNK_BASE)
        chunks.append(f"{low:0{_CHUNK}d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _rational_text(q) -> str:
    text = _digits_of_int(q.numerator)
    return text if q.denominator == 1 else f"{text}/{_digits_of_int(q.denominator)}"


def _signed_rational(sign: str, text: str):
    num, _, den = text.partition("/")
    value = _Q(_int_of_digits(num), _int_of_digits(den) if den else 1)
    return -value if sign == "-" else value


class GaussRat:
    """Immutable Gaussian rational re + im*i with exact arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is _Q else _Q(re)
        self.im = im if type(im) is _Q else _Q(im)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "GaussRat":
        return GaussRat(_Q(n), _R_ZERO)

    @staticmethod
    def parse(text: str) -> "GaussRat":
        """Parse the ``a/b+c/d*i`` grammar: a real part ``a/b``, an
        imaginary part ``c/d*i``, or both joined by their sign.  A unit
        imaginary coefficient may be left out (``i``, ``-i``) and spaces
        may surround the parts; nothing else is accepted."""
        m = _SCALAR.fullmatch(text) if isinstance(text, str) else None
        if m is None:
            raise ParseError(f"not a Gaussian rational: {text!r}")
        re_sign, re_abs, im_sign, im_abs, lone_sign, lone_abs = m.groups()
        if re_abs is None:  # imaginary part only
            re_sign, re_abs, im_sign, im_abs = "", "0", lone_sign, lone_abs
        try:
            real = _signed_rational(re_sign, re_abs)
            imag = (
                _R_ZERO if im_sign is None
                else _signed_rational(im_sign, im_abs or "1")
            )
        except ZeroDivisionError as exc:
            raise ParseError(f"not a Gaussian rational: {text!r}") from exc
        return GaussRat(real, imag)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, GaussRat):
            return GaussRat(self.re + other.re, self.im + other.im)
        if isinstance(other, int):
            return GaussRat(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussRat):
            return GaussRat(self.re - other.re, self.im - other.im)
        if isinstance(other, int):
            return GaussRat(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, GaussRat):
            a, b, c, d = self.re, self.im, other.re, other.im
            return GaussRat(a * c - b * d, a * d + b * c)
        if isinstance(other, int):
            return GaussRat(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = GaussRat.from_int(other)
        if not isinstance(other, GaussRat):
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussRat((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        return GaussRat.from_int(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return GaussRat.from_int(1) / (self ** (-k))
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "GaussRat":
        return GaussRat.from_int(1) / self

    def norm(self):
        """Field norm re^2 + im^2, an exact rational."""
        return self.re * self.re + self.im * self.im

    # -- predicates / ordering --------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussRat):
            return self.re == other.re and self.im == other.im
        if isinstance(other, int):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def lex_key(self):
        """Deterministic (re, im) sort key; not a number ordering."""
        return (self.re, self.im)

    # -- formatting --------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        if self.re:
            parts.append(_rational_text(self.re))
        if self.im:
            mag = f"{_rational_text(abs(self.im))}*i"
            if not parts:
                parts.append(mag if self.im > 0 else "-" + mag)
            else:
                parts.append(("+" if self.im > 0 else "-") + mag)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"GaussRat({self})"


ZERO = GaussRat.from_int(0)
ONE = GaussRat.from_int(1)
I = GaussRat(_R_ZERO, _R_ONE)
MINUS_ONE = GaussRat.from_int(-1)


def _cleared(values):
    """(d, [(index, re, im)]) for a sequence of GaussRat values: d is the
    lcm of their denominators and re + im*i = d * value in Python ints,
    listed for the nonzero values only."""
    d = 1
    for v in values:
        a, b = v.re.denominator, v.im.denominator
        if a != 1 or b != 1:
            d = math.lcm(d, a, b)
    if d == 1:
        return d, [
            (k, v.re.numerator, v.im.numerator)
            for k, v in enumerate(values) if v.re or v.im
        ]
    return d, [
        (k, v.re.numerator * (d // v.re.denominator),
         v.im.numerator * (d // v.im.denominator))
        for k, v in enumerate(values) if v.re or v.im
    ]


def gr(re=0, im=0) -> GaussRat:
    """Shorthand constructor accepting ints, rationals, or strings."""
    if isinstance(re, str):
        return GaussRat.parse(re) if im == 0 else GaussRat(_Q(re), _Q(im))
    return GaussRat(_Q(re), _Q(im))
