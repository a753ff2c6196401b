"""Exact complex scalars with rational real and imaginary parts.

All symbolic computation in this package is exact: coefficients are complex
numbers whose real and imaginary parts are ``fractions.Fraction`` values.
Rational literals use the grammar ``sign? digits ('/' digits)?``, e.g. ``"3"``
or ``"-1/2"``.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction

from .errors import FormatError

_RATIONAL_RE = _re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal like ``"3"`` or ``"-1/2"`` into a Fraction."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise FormatError(f"bad rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise FormatError(f"zero denominator in rational literal: {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Render a Fraction in the same grammar ``parse_rational`` accepts."""
    return str(Fraction(value))


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True, slots=True)
class ExactComplex:
    """Immutable complex number with rational real/imaginary parts.

    Arithmetic takes a real-only branch when both imaginary parts are zero.
    """

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", _coerce(self.re))
        object.__setattr__(self, "im", _coerce(self.im))

    @staticmethod
    def of(value) -> "ExactComplex":
        """Coerce an int, Fraction, or ExactComplex to an ExactComplex."""
        if isinstance(value, ExactComplex):
            return value
        return _exact(_coerce(value), Fraction(0))

    def __add__(self, other) -> "ExactComplex":
        other = ExactComplex.of(other)
        if not self.im and not other.im:
            return _exact(self.re + other.re, self.im)
        return _exact(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "ExactComplex":
        other = ExactComplex.of(other)
        if not self.im and not other.im:
            return _exact(self.re - other.re, self.im)
        return _exact(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "ExactComplex":
        return ExactComplex.of(other) - self

    def __mul__(self, other) -> "ExactComplex":
        other = ExactComplex.of(other)
        if not self.im and not other.im:
            return _exact(self.re * other.re, self.im)
        return _exact(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "ExactComplex":
        return _exact(-self.re, -self.im)

    def conjugate(self) -> "ExactComplex":
        return _exact(self.re, -self.im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        if self.im == 0:
            return format_rational(self.re)
        imag = f"{format_rational(self.im)}i"
        if self.re == 0:
            return imag
        sign = "+" if self.im > 0 else ""
        return f"{format_rational(self.re)}{sign}{imag}"


def _exact(re: Fraction, im: Fraction) -> ExactComplex:
    # Arithmetic results: the parts are Fractions already, so the coercion
    # of __post_init__ is skipped.
    z = object.__new__(ExactComplex)
    object.__setattr__(z, "re", re)
    object.__setattr__(z, "im", im)
    return z


ZERO = ExactComplex(Fraction(0), Fraction(0))
ONE = ExactComplex(Fraction(1), Fraction(0))
I = ExactComplex(Fraction(0), Fraction(1))


def scalar_from_json(data) -> ExactComplex:
    """Parse ``{"re": "1/2", "im": "-3"}`` into an ExactComplex."""
    if not isinstance(data, dict) or set(data) - {"re", "im"}:
        raise FormatError(f"bad scalar object: {data!r}")
    return ExactComplex(
        parse_rational(data.get("re", "0")), parse_rational(data.get("im", "0"))
    )


def scalar_to_json(value: ExactComplex) -> dict:
    return {"re": format_rational(value.re), "im": format_rational(value.im)}
