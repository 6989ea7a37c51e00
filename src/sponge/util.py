"""Exact-arithmetic helpers shared across modules.

All predicates in this package compare exact rationals.  Square roots
appear only in human-readable output; where an irrational quantity must
enter a comparison it is carried as a quadratic expression p + q*sqrt(s)
with rational p, q, s and compared by repeated squaring.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt, lcm


def parse_fraction(text):
    """Parse an integer or 'p/q' literal into a Fraction."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        d = int(den)
        if d == 0:
            raise ValueError("zero denominator in %r" % text)
        return Fraction(int(num), d)
    return Fraction(int(text))


def common_denominator(values):
    """(den, ints): the rationals as integers over their least common
    denominator, values[k] == ints[k] / den."""
    values = [Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def frac_str(fr):
    """Serialize a Fraction as 'p/q' (or 'p' when integral)."""
    fr = Fraction(fr)
    if fr.denominator == 1:
        return str(fr.numerator)
    return "%d/%d" % (fr.numerator, fr.denominator)


def decimal_str(fr, digits=12):
    """Decimal rendering of a rational to `digits` significant figures."""
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(fr.numerator) / Decimal(fr.denominator)
    return str(d)


def sqrt_decimal_str(fr_sq, digits=12):
    """Decimal rendering of sqrt(fr_sq) to `digits` significant figures.

    fr_sq must be a nonnegative rational.
    """
    if fr_sq < 0:
        raise ValueError("negative radicand")
    with localcontext() as ctx:
        ctx.prec = digits + 6
        d = (Decimal(fr_sq.numerator) / Decimal(fr_sq.denominator)).sqrt()
        ctx.prec = digits
        d = +d
    return str(d)


def sqrt_bracket(fr_sq, digits=12):
    """Rational bracket (lo, hi) with lo <= sqrt(fr_sq) <= hi.

    Width of the bracket is at most 10**-digits.
    """
    if fr_sq < 0:
        raise ValueError("negative radicand")
    scale = 10 ** digits
    # sqrt(p/q) = sqrt(p*q)/q
    p, q = fr_sq.numerator, fr_sq.denominator
    root = isqrt(p * q * scale * scale)
    lo = Fraction(root, q * scale)
    hi = Fraction(root + 1, q * scale)
    return lo, hi


def sqrt_leq_quad(r, p, q, s):
    """Exact test of sqrt(r) <= p + q*sqrt(s) for rationals r,s >= 0, p,q >= 0."""
    if r < 0 or s < 0 or p < 0 or q < 0:
        raise ValueError("sqrt_leq_quad requires nonnegative arguments")
    # square once: r <= p^2 + q^2 s + 2pq sqrt(s)
    t = r - p * p - q * q * s
    if t <= 0:
        return True
    # square again: t^2 <= 4 p^2 q^2 s
    return t * t <= 4 * p * p * q * q * s


def quad_leq(p1, q1, p2, q2, s):
    """Exact test of p1 + q1*sqrt(s) <= p2 + q2*sqrt(s), s >= 0 rational."""
    dp = p2 - p1
    dq = q2 - q1
    # want 0 <= dp + dq*sqrt(s)
    if dp >= 0 and dq >= 0:
        return True
    if dp < 0 and dq < 0:
        return False
    if dq >= 0:
        # dp < 0: need dq*sqrt(s) >= -dp
        return dq * dq * s >= dp * dp
    # dq < 0, dp >= 0: need dp >= -dq*sqrt(s)
    return dp * dp >= dq * dq * s


class ResourceCapError(Exception):
    """Raised when an enumeration would exceed the configured object cap."""

    def __init__(self, module, requested, cap):
        super().__init__(
            "%s: would enumerate %d objects, cap is %d" % (module, requested, cap)
        )
        self.module = module
        self.requested = requested
        self.cap = cap


DEFAULT_CAP = 200_000
