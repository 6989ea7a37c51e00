import ast
import collections
import dataclasses
import functools
import importlib
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sponge.util import (DigitLimitError, Record, ResourceCapError,
                         capped_power, common_denominator, decimal_str,
                         exact_fraction, frac_str, parse_fraction, quad_leq,
                         sqrt_bracket, sqrt_decimal_str, sqrt_leq_quad)


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
    assert common_denominator(iter(values)) == (12, [2, -9, 24, 0])
    # ints and Fractions only: a float is rejected, not converted
    with pytest.raises(TypeError):
        common_denominator([Fraction(1, 2), 0.5])
    with pytest.raises(TypeError):
        common_denominator([1.0])


def test_exact_fraction():
    half = Fraction(1, 2)
    assert exact_fraction(half) is half
    assert exact_fraction(3) == Fraction(3)
    assert type(exact_fraction(3)) is Fraction
    # no value is converted: a float or a string is rejected
    for bad in (0.5, "1/2", None):
        with pytest.raises(TypeError):
            exact_fraction(bad)


def test_frac_str():
    assert frac_str(Fraction(613, 73)) == "613/73"
    assert frac_str(Fraction(4, 2)) == "2"
    assert frac_str(-3) == "-3"
    # ints and Fractions only: a float or a string is rejected, not converted
    for bad in (0.5, 2.0, "1/2", None):
        with pytest.raises(TypeError):
            frac_str(bad)


def test_frac_str_too_long_to_print():
    # 3**20000 has 9543 digits, past Python's default limit of 4300
    with pytest.raises(DigitLimitError) as err:
        frac_str(Fraction(1, 3 ** 20000))
    assert isinstance(err.value, ResourceCapError)
    assert 9000 < err.value.requested <= 9543
    assert len(str(err.value).splitlines()) == 1


def test_decimal_str():
    assert decimal_str(Fraction(1, 4), 3) == "0.25"
    assert decimal_str(Fraction(1, 3), 6) == "0.333333"


def test_sqrt_decimal_str():
    assert sqrt_decimal_str(Fraction(4), 3) == "2"
    assert sqrt_decimal_str(Fraction(2), 5) == "1.4142"
    with pytest.raises(ValueError, match="negative radicand"):
        sqrt_decimal_str(Fraction(-1, 4))


def test_sqrt_bracket():
    lo, hi = sqrt_bracket(Fraction(2), 10)
    assert lo * lo <= 2 <= hi * hi
    assert hi - lo <= Fraction(1, 10 ** 9)
    with pytest.raises(ValueError, match="negative radicand"):
        sqrt_bracket(Fraction(-1, 4))


def test_sqrt_leq_quad():
    # sqrt(2) <= 1 + 1*sqrt(2) and sqrt(8) <= 0 + 2*sqrt(2), tight
    assert sqrt_leq_quad(Fraction(2), Fraction(1), Fraction(1), Fraction(2))
    assert sqrt_leq_quad(Fraction(8), Fraction(0), Fraction(2), Fraction(2))
    assert not sqrt_leq_quad(Fraction(9), Fraction(0), Fraction(2), Fraction(2))
    # each argument in turn negative
    for k in range(4):
        args = [Fraction(1)] * 4
        args[k] = Fraction(-1, 3)
        with pytest.raises(ValueError, match="nonnegative arguments"):
            sqrt_leq_quad(*args)
    # sqrt(1) <= 1 + 0*sqrt(0), tight with p > 0: the first square is 0
    assert sqrt_leq_quad(Fraction(1), Fraction(1), Fraction(0), Fraction(0))


_NONNEGATIVE = st.fractions(min_value=0, max_value=4, max_denominator=6)


@given(_NONNEGATIVE, _NONNEGATIVE, _NONNEGATIVE, _NONNEGATIVE, st.booleans())
def test_sqrt_leq_quad_matches_exact_oracle(u, p, q, x, square_r):
    # one of the two roots is rational, so the oracle squares once, with
    # the sign of the side it squares written out
    if square_r:
        # sqrt(u^2) = u <= p + q sqrt(x) iff u - p <= 0, or both sides of
        # u - p <= q sqrt(x) are positive and their squares keep the order
        r, s = u * u, x
        want = u - p <= 0 or (u - p) ** 2 <= q * q * x
    else:
        # sqrt(u) <= p + q x, whose right side is >= 0
        r, s = u, x * x
        want = u <= (p + q * x) ** 2
    assert sqrt_leq_quad(r, p, q, s) is want


def test_quad_leq():
    # 1 + sqrt(2) <= 3 + 0*sqrt(2); 2 + 2 sqrt(2) > 3 + sqrt(2)
    assert quad_leq(Fraction(1), Fraction(1), Fraction(3), Fraction(0),
                    Fraction(2))
    assert not quad_leq(Fraction(2), Fraction(2), Fraction(3), Fraction(1),
                        Fraction(2))
    # mixed signs, each way round: 2 <= 2 sqrt(2) but not 2 <= sqrt(2);
    # sqrt(2) > 1 but sqrt(1/4) <= 1
    s = Fraction(2)
    assert quad_leq(Fraction(2), Fraction(0), Fraction(0), Fraction(2), s)
    assert not quad_leq(Fraction(2), Fraction(0), Fraction(0), Fraction(1), s)
    assert not quad_leq(Fraction(0), Fraction(1), Fraction(1), Fraction(0), s)
    assert quad_leq(Fraction(0), Fraction(1), Fraction(1), Fraction(0),
                    Fraction(1, 4))
    # both differences negative: 3 + 2 sqrt(2) > 1 + sqrt(2), though the
    # squares of the differences alone (4 against 2) order them the other way
    assert not quad_leq(Fraction(3), Fraction(2), Fraction(1), Fraction(1), s)
    # differences strictly between 0 and 1 in size, on the branch that
    # decides: 1/2 - sqrt(1/16) >= 0 and -1/4 + (1/2) sqrt(1) >= 0
    assert quad_leq(Fraction(0), Fraction(1), Fraction(1, 2), Fraction(0),
                    Fraction(1, 16))
    assert quad_leq(Fraction(1, 4), Fraction(0), Fraction(0), Fraction(1, 2),
                    Fraction(1))


def test_capped_power():
    assert capped_power(5, 3, 125) == 125           # exact when within cap
    assert capped_power(5, 3, 124) == 125           # first power past cap
    assert capped_power(5, 4, 125) == 625           # reaching cap is not past
    assert capped_power(5, 9, 1000) == 3125         # stops there
    assert capped_power(5, 10 ** 8, 1000) == 3125   # without building 5^(10^8)
    assert capped_power(4, 0, 0) == 1
    assert capped_power(1, 10 ** 8, 0) == 1
    assert capped_power(2, 10, 10 ** 6) == 1024


def test_no_float_in_the_package():
    # no float enters any decision: no module of the package writes a
    # float literal or calls float()
    src = Path(__file__).resolve().parent.parent / "src" / "sponge"
    paths = sorted(src.glob("*.py"))
    assert len(paths) > 1
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, (float, complex))) or (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "float"):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_every_import_is_read():
    # each name a module of the package imports is read in that module,
    # unless its line says "# noqa: F401"; __init__ imports to re-export
    src = Path(__file__).resolve().parent.parent / "src" / "sponge"
    paths = sorted(p for p in src.glob("*.py") if p.name != "__init__.py")
    assert len(paths) > 1
    unread = []
    for path in paths:
        text = path.read_text()
        lines = text.splitlines()
        nodes = list(ast.walk(ast.parse(text, str(path))))
        read = {node.id for node in nodes if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unread += ["%s:%d %s" % (path.name, node.lineno, name)
                   for node in nodes
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and "# noqa: F401" not in lines[node.lineno - 1]
                   for alias in node.names
                   for name in [(alias.asname or alias.name).split(".")[0]]
                   if name not in read]
    assert unread == []


# every record class of the package, in the modules that define them
RECORDS = [cls for name in ("ifs", "tree", "classify", "components", "cantor")
           for cls in vars(importlib.import_module("sponge." + name)).values()
           if isinstance(cls, type) and issubclass(cls, Record)
           and cls.__module__ == "sponge." + name]

_VALUES = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=4),
                    st.booleans(), st.none(), st.text(max_size=2),
                    st.tuples(st.integers(0, 2), st.fractions(max_denominator=3)))


def test_every_record_class_is_found():
    assert len(RECORDS) == 22
    assert all(cls._fields for cls in RECORDS)


@functools.cache
def _oracle(cls):
    """A frozen dataclass with the fields of record class `cls`."""
    return dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)


def _field_values(cls):
    n = len(cls._fields)
    return st.lists(_VALUES, min_size=n, max_size=n)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=20)
@given(data=st.data())
def test_record_matches_frozen_dataclass(cls, data):
    # a frozen dataclass with the same fields is the oracle for ==, hash
    # and repr; __post_init__ is switched off so that any values will do
    oracle = _oracle(cls)
    xs = data.draw(_field_values(cls))
    ys = data.draw(st.one_of(st.just(list(xs)), _field_values(cls)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cls, "__post_init__", lambda self: None)
        x, y = cls(*xs), cls(**dict(zip(cls._fields, ys)))
    ox, oy = oracle(*xs), oracle(*ys)
    assert (x == y, x != y) == (ox == oy, ox != oy)
    assert repr(x) == repr(ox)
    # AffineMap1D, DiagonalAffineMap and Vertex cache their hash in
    # __post_init__, switched off here
    if "__hash__" not in vars(cls):
        assert hash(x) == hash(ox)
    assert x != ox and ox != x


def test_vertex_and_map_hash_once(lg4):
    # both hash as their field tuple, computed at construction, so a
    # classify never reaches Record.__hash__ for them
    from sponge import Interval, build_labeled_tree, classify
    for level in build_labeled_tree(lg4).levels:
        for v in level:
            assert hash(v) == hash((v.rank, v.projected_map))
    for m in lg4.maps:
        assert hash(m) == hash((m.coords,))
    counts = collections.Counter()
    record_hash = Record.__hash__

    def counting(self):
        counts[type(self).__name__] += 1
        return record_hash(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Record, "__hash__", counting)
        hash(Interval(0, 1))
        classify(lg4)
    assert counts["Interval"] >= 1
    assert counts["Vertex"] == counts["DiagonalAffineMap"] == 0


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_signature_and_immutability(cls, monkeypatch):
    monkeypatch.setattr(cls, "__post_init__", lambda self: None)
    values = list(range(len(cls._fields)))
    record = cls(*values)
    assert [getattr(record, f) for f in cls._fields] == values
    assert cls(**dict(zip(cls._fields, values))) == record
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values, no_such_field=0)
    with pytest.raises(TypeError):
        cls(*values, **{cls._fields[0]: 0})
    for name in cls._fields + ("no_such_field",):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, f) for f in cls._fields] == values


def test_records_of_different_classes_are_unequal(monkeypatch):
    pairs = [(a, b) for a, b in itertools.combinations(RECORDS, 2)
             if len(a._fields) == len(b._fields)]
    assert pairs
    for a, b in pairs:
        monkeypatch.setattr(a, "__post_init__", lambda self: None)
        monkeypatch.setattr(b, "__post_init__", lambda self: None)
        values = range(len(a._fields))
        assert a(*values) != b(*values)
        assert not a(*values) == b(*values)
