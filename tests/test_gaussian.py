"""Field arithmetic and the scalar wire grammar."""

import sys

import pytest
from hypothesis import given, strategies as st

from adjreal.errors import ParseError
from adjreal.gaussian import GaussRat, I, ONE, ZERO, gr, rational


def gauss_rats(max_num=9, max_den=5):
    def build(pn, pd, qn, qd):
        return GaussRat(rational(pn, pd), rational(qn, qd))

    small = st.integers(min_value=-max_num, max_value=max_num)
    den = st.integers(min_value=1, max_value=max_den)
    return st.builds(build, small, den, small, den)


@given(gauss_rats(), gauss_rats(), gauss_rats())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(gauss_rats())
def test_additive_and_multiplicative_inverses(a):
    assert (a + (-a)).is_zero()
    if not a.is_zero():
        assert a * a.inverse() == ONE
        assert a.inverse() == ONE / a


@given(gauss_rats())
def test_norm_is_multiplicative_with_conjugate(a):
    assert a * a.conjugate() == GaussRat(a.norm(), 0)


@given(gauss_rats())
def test_string_round_trip(a):
    assert GaussRat.parse(str(a)) == a


def test_canonical_strings():
    assert str(gr(0)) == "0"
    assert str(gr("1/2") - gr(0, 3)) == "1/2-3*i"
    assert str(gr(2)) == "2"
    assert str(-I) == "-1*i"
    assert str(gr(5, 7) / gr(1)) == "5+7*i"


def test_parse_convenience_forms():
    assert GaussRat.parse("i") == I
    assert GaussRat.parse("-i") == -I
    assert GaussRat.parse("3*i") == gr(0, 3)
    assert GaussRat.parse(" 1/2 - 3*i ") == gr("1/2") - gr(0, 3)


def test_parse_rejects_garbage():
    for bad in ("", "1+2", "x", "1/0", "1+2*i+3*i"):
        with pytest.raises(ParseError):
            GaussRat.parse(bad)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_powers():
    assert I ** 2 == -ONE
    assert (gr(1, 1)) ** 2 == gr(0, 2)
    assert gr(2) ** -1 == gr("1/2")


@pytest.mark.parametrize(
    "bad",
    ["1e5", "1.5", "1_000", "+-1", "--1", "3i", "*i", "i+1", "1 2", "1/-2",
     "١"],
)
def test_parse_is_strictly_the_documented_grammar(bad):
    with pytest.raises(ParseError):
        GaussRat.parse(bad)


def test_long_literals_parse_and_round_trip():
    """The grammar puts no bound on the number of digits: long literals
    parse, and parse(str(v)) == v, whatever Python's int <-> str digit
    limit is set to (640 is the lowest setting it allows)."""
    def check():
        assert GaussRat.parse("1" * 5000) == GaussRat((10**5000 - 1) // 9)
        assert str(GaussRat((10**5000 - 1) // 9)) == "1" * 5000
        for k in (639, 640, 641, 1280, 1281):  # around the chunk size
            assert str(GaussRat(10**k)) == "1" + "0" * k
            assert str(GaussRat(0, 1 - 10**k)) == "-" + "9" * k + "*i"
            assert GaussRat.parse("-1/1" + "0" * k) == gr(rational(-1, 10**k))
        for v in (
            GaussRat(rational(-(10**5000 + 7), 3**4000), rational(2**20000 + 1, 10**700)),
            GaussRat(0, rational(1, 7**3000)),
        ):
            assert GaussRat.parse(str(v)) == v

    check()
    if hasattr(sys, "set_int_max_str_digits"):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            check()
        finally:
            sys.set_int_max_str_digits(saved)


def test_parse_accepts_both_parts_with_unit_imaginary():
    assert GaussRat.parse("+1") == ONE
    assert GaussRat.parse("1+i") == gr(1, 1)
    assert GaussRat.parse("-7/3 + 5/2 * i") == gr("-7/3") + gr(0, rational(5, 2))


def test_parse_rejects_non_strings():
    for bad in (None, 5, ["1"]):
        with pytest.raises(ParseError):
            GaussRat.parse(bad)
