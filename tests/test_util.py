from fractions import Fraction

import pytest

from sponge.util import (common_denominator, decimal_str, frac_str,
                         parse_fraction, quad_leq, sqrt_bracket,
                         sqrt_decimal_str, sqrt_leq_quad)


def test_parse_fraction():
    assert parse_fraction("1/3") == Fraction(1, 3)
    assert parse_fraction("7") == Fraction(7)
    assert parse_fraction("-2/5") == Fraction(-2, 5)
    with pytest.raises(ValueError):
        parse_fraction("1.5x")


def test_common_denominator():
    values = [Fraction(1, 6), Fraction(-3, 4), 2, Fraction(0)]
    den, ints = common_denominator(values)
    assert (den, ints) == (12, [2, -9, 24, 0])
    assert [Fraction(k, den) for k in ints] == values
    assert common_denominator([]) == (1, [])


def test_frac_str():
    assert frac_str(Fraction(613, 73)) == "613/73"
    assert frac_str(Fraction(4, 2)) == "2"


def test_decimal_str():
    assert decimal_str(Fraction(1, 4), 3) == "0.25"
    assert decimal_str(Fraction(1, 3), 6) == "0.333333"


def test_sqrt_decimal_str():
    assert sqrt_decimal_str(Fraction(4), 3) == "2"
    assert sqrt_decimal_str(Fraction(2), 5) == "1.4142"


def test_sqrt_bracket():
    lo, hi = sqrt_bracket(Fraction(2), 10)
    assert lo * lo <= 2 <= hi * hi
    assert hi - lo <= Fraction(1, 10 ** 9)


def test_sqrt_leq_quad():
    # sqrt(2) <= 1 + 1*sqrt(2) and sqrt(8) <= 0 + 2*sqrt(2), tight
    assert sqrt_leq_quad(Fraction(2), Fraction(1), Fraction(1), Fraction(2))
    assert sqrt_leq_quad(Fraction(8), Fraction(0), Fraction(2), Fraction(2))
    assert not sqrt_leq_quad(Fraction(9), Fraction(0), Fraction(2), Fraction(2))


def test_quad_leq():
    # 1 + sqrt(2) <= 3 + 0*sqrt(2); 2 + 2 sqrt(2) > 3 + sqrt(2)
    assert quad_leq(Fraction(1), Fraction(1), Fraction(3), Fraction(0),
                    Fraction(2))
    assert not quad_leq(Fraction(2), Fraction(2), Fraction(3), Fraction(1),
                        Fraction(2))
