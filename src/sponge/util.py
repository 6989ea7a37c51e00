"""Exact-arithmetic helpers, the immutable-record base and the error
bases shared across modules.

All predicates in this package compare exact rationals.  Square roots
appear only in human-readable output; where an irrational quantity must
enter a comparison it is carried as a quadratic expression p + q*sqrt(s)
with rational p, q, s and compared by repeated squaring.
"""

import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt, lcm
from operator import attrgetter


class Record:
    """Base of the package's immutable records.  The fields are the names
    annotated in the class body, in order, passed by position or keyword
    and then checked by __post_init__.  A record equals only records of
    its class with equal field tuples, hashes as its field tuple, prints
    as Name(field=value, ...) and refuses assignment and deletion."""

    _fields = ()

    def __init_subclass__(cls):
        cls._fields = fields = cls._fields + tuple(cls.__annotations__)
        get = attrgetter(*fields)
        # attrgetter of one name gives the value, not a 1-tuple
        cls._values = staticmethod(
            get if len(fields) > 1 else lambda record: (get(record),))
        # the one generated method: a constructor taking the fields
        namespace = {"_set": object.__setattr__}
        exec("def __init__(self, %s):%s\n    self.__post_init__()" % (
            ", ".join(fields),
            "".join("\n    _set(self, %r, %s)" % (f, f) for f in fields)),
            namespace)
        cls.__init__ = namespace["__init__"]

    def __post_init__(self):
        """Checks and derived attributes (set with object.__setattr__)."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            get = self._values
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % item for item in zip(self._fields, self._values(self))))

    def _immutable(self, name, *value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __setattr__ = __delattr__ = _immutable


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


def exact_fraction(value):
    """An int or Fraction as a Fraction.  Only those convert exactly, so
    anything else, a float included, is a TypeError, as in
    common_denominator."""
    if isinstance(value, Fraction):
        return value
    if not isinstance(value, int):
        raise TypeError("exact arithmetic takes ints and Fractions, got %s"
                        % type(value).__name__)
    return Fraction(value)


def common_denominator(values):
    """(den, ints): ints and Fractions as integers over their least common
    denominator, values[k] == ints[k] / den.  No value is converted:
    anything else, a float included, is a TypeError."""
    values = list(values)
    if not all(issubclass(t, (int, Fraction)) for t in set(map(type, values))):
        raise TypeError("common_denominator takes ints and Fractions")
    pairs = [v.as_integer_ratio() for v in values]
    den = lcm(*{d for _, d in pairs})
    return den, [n * (den // d) for n, d in pairs]


def frac_str(fr):
    """Serialize an int or Fraction as 'p/q' (or 'p' when integral); a
    DigitLimitError when a part is too long for Python to convert to text.
    Anything else, a float included, is a TypeError, as in exact_fraction."""
    if not isinstance(fr, (int, Fraction)):
        raise TypeError("frac_str takes ints and Fractions, got %s"
                        % type(fr).__name__)
    num, den = fr.numerator, fr.denominator
    try:
        if den == 1:
            return str(num)
        return "%d/%d" % (num, den)
    except ValueError:
        # log10(2) > 30102/100000, so this undercounts the digits
        bits = max(abs(num), den).bit_length()
        raise DigitLimitError("output", (bits - 1) * 30102 // 100000 + 1,
                              sys.get_int_max_str_digits()) from None


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


class DomainError(Exception):
    """A rejected input; base of IFSError, TreeError, ClassifyError,
    ComponentsError and CantorError."""


class ResourceCapError(Exception):
    """Raised when an enumeration would exceed the configured object cap;
    `requested` is a lower bound on the count, past the cap."""

    message = "%s: would enumerate at least %d objects, cap is %d"

    def __init__(self, module, requested, cap):
        super().__init__(self.message % (module, requested, cap))
        self.module = module
        self.requested = requested
        self.cap = cap


class DigitLimitError(ResourceCapError):
    """An exact value with more decimal digits than Python converts to
    text (sys.get_int_max_str_digits()); `requested` is a lower bound."""

    message = "%s: an exact value has at least %d digits, the print limit is %d"


def capped_power(base, exp, cap):
    """base ** exp when that is at most cap; otherwise the first partial
    power past cap, so a cap check never builds a huge integer."""
    if base < 2:
        return base ** exp
    power = 1
    for _ in range(exp):
        if power > cap:
            break
        power *= base
    return power


DEFAULT_CAP = 200_000
