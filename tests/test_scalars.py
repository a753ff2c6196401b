"""Exact complex scalar arithmetic and the rational-string grammar."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfp import ExactComplex, FormatError, format_rational, parse_rational
from graphfp.scalars import I, ONE, ZERO, scalar_from_json, scalar_to_json


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", Fraction(0)),
        ("3", Fraction(3)),
        ("-7", Fraction(-7)),
        ("+5", Fraction(5)),
        ("1/2", Fraction(1, 2)),
        ("-3/6", Fraction(-1, 2)),
        ("10/4", Fraction(5, 2)),
    ],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["", "1.5", "1/0", "a", "1/ 2", "1//2", "2/-3", " 1"])
def test_parse_rational_rejects(text):
    with pytest.raises(FormatError):
        parse_rational(text)


def test_format_round_trip():
    for num in (-9, -1, 0, 1, 7):
        for den in (1, 2, 3, 5):
            f = Fraction(num, den)
            assert parse_rational(format_rational(f)) == f


def test_field_operations():
    a = ExactComplex(Fraction(1, 2), Fraction(3))
    b = ExactComplex(Fraction(2), Fraction(-1, 3))
    assert a + b == ExactComplex(Fraction(5, 2), Fraction(8, 3))
    assert a - b == ExactComplex(Fraction(-3, 2), Fraction(10, 3))
    # (1/2 + 3i)(2 - i/3) = 1 + 1/6 i + 6i + 1 = 2 + 37/6 i
    assert a * b == ExactComplex(Fraction(2), Fraction(35, 6))


def test_conjugate_and_negation():
    a = ExactComplex(Fraction(2, 3), Fraction(-5))
    assert a.conjugate() == ExactComplex(Fraction(2, 3), Fraction(5))
    assert -a == ExactComplex(Fraction(-2, 3), Fraction(5))
    assert (a * a.conjugate()).im == 0


def test_units_and_zero():
    assert ZERO.is_zero() and not bool(ZERO)
    assert not ONE.is_zero() and bool(ONE)
    assert I * I == -ONE


def test_of_coercion():
    assert ExactComplex.of(3) == ExactComplex(Fraction(3), Fraction(0))
    assert ExactComplex.of(Fraction(1, 4)).re == Fraction(1, 4)
    x = ExactComplex(Fraction(1), Fraction(2))
    assert ExactComplex.of(x) is x
    with pytest.raises(TypeError):
        ExactComplex(1.5, 0)


def test_json_round_trip():
    x = ExactComplex(Fraction(-7, 3), Fraction(1, 2))
    assert scalar_from_json(scalar_to_json(x)) == x
    assert scalar_to_json(x) == {"re": "-7/3", "im": "1/2"}


def test_json_shape_errors():
    with pytest.raises(FormatError):
        scalar_from_json(["1", "2"])
    with pytest.raises(FormatError):
        scalar_from_json({"re": "1.5", "im": "0"})


# -- the value contract ------------------------------------------------------------

_RATIONALS = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
# Imaginary parts are often zero, so both the real-only and the complex branch
# of the arithmetic are drawn.
_PARTS = st.tuples(_RATIONALS, st.one_of(st.just(Fraction(0)), _RATIONALS))


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


@settings(max_examples=150, deadline=None)
@given(_PARTS, _PARTS)
def test_arithmetic_matches_pairs_of_fractions(x, y):
    a, b = ExactComplex(*x), ExactComplex(*y)
    cases = [
        (a + b, (x[0] + y[0], x[1] + y[1])),
        (a - b, (x[0] - y[0], x[1] - y[1])),
        (a * b, _ref_mul(x, y)),
        (-a, (-x[0], -x[1])),
        (a.conjugate(), (x[0], -x[1])),
        (y[0] - a, (y[0] - x[0], -x[1])),
        (y[0] + a, (y[0] + x[0], x[1])),
        (y[0] * a, (y[0] * x[0], y[0] * x[1])),
    ]
    for got, (re, im) in cases:
        assert type(got.re) is Fraction and type(got.im) is Fraction
        assert (got.re, got.im) == (re, im)
        assert got.is_zero() == (re == 0 and im == 0)


@settings(max_examples=150, deadline=None)
@given(_PARTS, _PARTS)
def test_equal_values_are_equal_and_hash_alike_however_built(x, y):
    re, im = _ref_mul(x, y)
    built = [
        ExactComplex(*x) * ExactComplex(*y),
        ExactComplex(re, im),
        ExactComplex(re, im) + ZERO,
        ONE * ExactComplex(re, im),
    ]
    if im == 0:
        built.append(ExactComplex.of(re))
        if re.denominator == 1:
            built += [ExactComplex(int(re), 0), ExactComplex.of(int(re))]
    assert len(set(built)) == 1
    assert all(z == built[0] and hash(z) == hash(built[0]) for z in built)
    # The chain-product table keys pending diagonals by their entry sets.
    assert len({frozenset({"v": z}.items()) for z in built}) == 1


def test_scalars_never_equal_plain_numbers():
    assert ExactComplex.of(0) != 0
    assert not ExactComplex.of(0) == 0
    assert ONE != 1 and ONE != Fraction(1)


def test_scalars_are_immutable_slotted_values():
    z = ExactComplex(Fraction(1), Fraction(2))
    for name in ("re", "im", "other"):
        with pytest.raises((AttributeError, TypeError)):
            setattr(z, name, Fraction(0))
    assert not hasattr(z, "__dict__")
    assert (z.re, z.im) == (1, 2)
    for twin in (copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
        assert twin == z and hash(twin) == hash(z)


def test_repr_and_str():
    z = ExactComplex(Fraction(1, 2), Fraction(-3))
    assert repr(z) == "ExactComplex(re=Fraction(1, 2), im=Fraction(-3, 1))"
    assert repr(z * ONE) == repr(z)
    assert repr(ExactComplex.of(2) + 1) == "ExactComplex(re=Fraction(3, 1), im=Fraction(0, 1))"
    assert [str(w) for w in (z, ExactComplex.of(2), I * 2, -I + 1)] == ["1/2-3i", "2", "2i", "1-1i"]
