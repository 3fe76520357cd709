from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from acm5.errors import ExtensionOverflowError, ModeMismatchError
from acm5.scalars import (
    COS_F,
    COS_G,
    SIN_F,
    SIN_G,
    TrigScalar,
    fmt_scalar,
    rat,
    sis_zero,
)


def test_pythagoras_collapses_to_rational():
    x = SIN_F * SIN_F + COS_F * COS_F
    assert type(x) is int and x == 1


def test_product_to_sum_identities():
    # sin f cos f = sin(2f)/2
    assert SIN_F * COS_F == TrigScalar.atom("s", 2, 0, Fraction(1, 2))
    # cos f cos g = (cos(f-g) + cos(f+g))/2
    prod = COS_F * COS_G
    expected = TrigScalar({("c", 1, -1): Fraction(1, 2), ("c", 1, 1): Fraction(1, 2)})
    assert prod == expected
    # sin(f)sin(g) recombined with cos(f)cos(g) gives cos(f-g)
    assert SIN_F * SIN_G + COS_F * COS_G == TrigScalar.atom("c", 1, -1)


def test_negative_frequency_normalization():
    assert TrigScalar.atom("s", -1, 0) == -SIN_F
    assert TrigScalar.atom("c", -1, 0) == COS_F
    assert TrigScalar.atom("c", 0, -2) == TrigScalar.atom("c", 0, 2)


def test_rational_embedding_and_collapse():
    two = Fraction(2) * COS_F
    assert isinstance(two, TrigScalar)
    back = two + Fraction(-2) * COS_F
    assert back == 0 and type(back) is int
    assert TrigScalar.const(3) * TrigScalar.const(Fraction(1, 3)) == 1
    assert type(SIN_F * 0) is int and type(SIN_F * Fraction(0)) is int
    assert TrigScalar.const(Fraction(1, 2)) * 2 == 1 and type(-TrigScalar.const(3)) is int


def test_derivative_terms():
    d = SIN_F.deriv_terms()
    assert d == [(COS_F, 1, 0)] or d == [(1 * COS_F, 1, 0)]
    (factor, m, n), = COS_G.deriv_terms()
    assert factor == -SIN_G and (m, n) == (0, 1)
    assert TrigScalar.const(7).deriv_terms() == []


def test_float_never_mixes_with_trig():
    with pytest.raises(ModeMismatchError):
        SIN_F * 0.5


@pytest.mark.parametrize(
    "build",
    [
        lambda: TrigScalar.atom("c", 1, 0, 0.1),
        lambda: TrigScalar.const(0.5),
        lambda: TrigScalar({("s", 0, 1): 2, ("c", 1, 0): -0.25}),
    ],
    ids=["atom", "const", "init"],
)
def test_constructors_refuse_a_float_coefficient(build):
    """A float coefficient raises as a float operand does; it is never stored
    as the Fraction of its binary64 value."""
    with pytest.raises(ModeMismatchError):
        build()


def test_division_by_trig_rejected():
    with pytest.raises(ExtensionOverflowError):
        Fraction(1) / SIN_F
    assert SIN_F / Fraction(2) == TrigScalar.atom("s", 1, 0, Fraction(1, 2))


def test_float_zero_uses_relative_tolerance():
    assert sis_zero(1e-12)
    assert not sis_zero(1e-6)


def test_rat_parsing_and_formatting():
    assert rat("3/4") == Fraction(3, 4)
    assert fmt_scalar(Fraction(-7, 2)) == "-7/2"
    assert fmt_scalar(Fraction(5)) == "5"
    assert fmt_scalar(COS_F + Fraction(2)) == "2 + cos(f)"


_coefs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_atoms = st.tuples(st.sampled_from("cs"), st.integers(-2, 2), st.integers(-2, 2))
trig_scalars = st.dictionaries(_atoms, _coefs, max_size=3).map(TrigScalar)
operands = st.one_of(trig_scalars, st.integers(-3, 3), _coefs)


def _collapsed(r):
    """A result is a TrigScalar exactly when it is non-constant, else a rational
    under the storage rule: an int when integral, else a Fraction."""
    if isinstance(r, TrigScalar):
        return not r.is_constant()
    return type(r) is int or (type(r) is Fraction and r.denominator != 1)


@given(trig_scalars, operands, operands)
def test_operators_form_a_ring_and_collapse_constants(x, y, z):
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    for r in (x + y, y + x, x * y, y * x, x - y, y - x, -x, x + z * y):
        assert _collapsed(r)
    diff = x - x
    assert diff == 0 and type(diff) is int


@given(trig_scalars, st.floats(allow_nan=False, allow_infinity=False))
def test_float_on_either_side_raises(x, f):
    for op in (
        lambda: x + f,
        lambda: f + x,
        lambda: x - f,
        lambda: f - x,
        lambda: x * f,
        lambda: f * x,
        lambda: x / f,
        lambda: f / x,
    ):
        with pytest.raises(ModeMismatchError):
            op()
