import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import sponge.ifs
from sponge import (AffineMap1D, Box, DiagonalAffineMap, IFSError, Interval,
                    ParseError, SpongeIFS, approx_square, cylinder_box,
                    enumerate_cylinders, fixed_point, parse_ifs,
                    serialize_ifs, validate_lg)
from sponge.ifs import compose_scaled, scale_labels

from conftest import (compose, major_projection, random_lg_system,
                      random_special_system)


def F(s):
    return Fraction(s)


def test_parse_minimal():
    ifs = parse_ifs("dim 1\nmap 1/3 0")
    assert ifs.dim == 1 and ifs.size == 1
    assert ifs.maps[0].coords[0] == AffineMap1D(F("1/3"), F(0))


def test_parse_lg5_fixture(lg5):
    assert lg5.dim == 2
    assert lg5.size == 5
    ratios = sorted(m.coords[0].ratio for m in lg5.maps)
    assert ratios == [F("1/3"), F("1/3"), F("1/2"), F("1/2"), F("1/2")]


def test_parse_rejects_expanding_ratio():
    with pytest.raises(ParseError) as err:
        parse_ifs("dim 2\nmap 3/2 0 ; 1/6 0")
    assert "outside (0,1)" in str(err.value)


@pytest.mark.parametrize("ratio", ["0", "1", "1/1", "2/2", "-1/2", "0/5"])
def test_parse_rejects_boundary_ratios(ratio):
    # the map's own integer check decides, and the file's token and
    # position are reported
    text = "dim 2\n# c\n  map 1/2 0 ; %s 0\n" % ratio
    with pytest.raises(ParseError) as err:
        parse_ifs(text)
    assert str(err.value) == \
        "ifs: line 3, col 3: ratio %s outside (0,1)" % ratio
    assert (err.value.line, err.value.col) == (3, 3)


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as err:
        parse_ifs("dim 2\nmap 1/2 0 ; 1/3")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_ifs("map 1/2 0")   # map before dim
    with pytest.raises(ParseError):
        parse_ifs("dim 0\n")
    with pytest.raises(ParseError):
        parse_ifs("dim 2\nmap 1/2 0\n")  # wrong coordinate count


def test_validate_lg5(lg5):
    report = validate_lg(lg5)
    assert report.lg_type
    assert report.violations == ()


def test_validate_lg_builds_one_box_per_map(lg5, monkeypatch):
    # a projected map's box is a prefix of its first map's box, so the
    # gate composes no box per rank
    words = []

    def counting(ifs, word):
        words.append((ifs, word))
        return cylinder_box(ifs, word)

    monkeypatch.setattr(sponge.ifs, "cylinder_box", counting)
    assert validate_lg(lg5).lg_type
    assert words == [(lg5, (k,)) for k in range(1, lg5.size + 1)]


def test_validate_ordering_violation():
    ifs = parse_ifs("dim 2\nmap 1/6 0 ; 1/3 0")
    report = validate_lg(ifs)
    assert not report.coordinate_ordering_ok
    assert ("coordinate_ordering", (1, 1)) in report.violations
    # strict: equal ratios over different denominators are a violation
    equal = parse_ifs("dim 2\nmap 1/2 0 ; 2/4 0")
    assert validate_lg(equal).violations == (("coordinate_ordering", (1, 1)),)


def test_validate_neat_projection_violation():
    ifs = parse_ifs("dim 2\nmap 1/2 0 ; 1/3 0\nmap 1/2 1/4 ; 1/3 0")
    report = validate_lg(ifs)
    assert not report.neat_projection_ok
    assert any(tag == "neat_projection" and detail[:2] == (1, 2)
               for tag, detail in report.violations)


def test_major_projection_lg5(lg5):
    p1 = major_projection(lg5, 1)
    images = {(m.coords[0].ratio, m.coords[0].offset) for m in p1.maps}
    assert images == {(F("1/3"), F(0)), (F("1/2"), F("1/2"))}
    p2 = major_projection(lg5, 2)
    assert set(p2.maps) == set(lg5.maps)


def test_major_projection_lg4(lg4):
    p1 = major_projection(lg4, 1)
    images = {(m.coords[0].ratio, m.coords[0].offset) for m in p1.maps}
    assert images == {(F("1/4"), F(0)), (F("1/2"), F("1/4")),
                      (F("1/12"), F("3/4")), (F("1/6"), F("5/6"))}


def test_major_projection_range(lg5):
    with pytest.raises(IFSError):
        major_projection(lg5, 0)
    with pytest.raises(IFSError):
        major_projection(lg5, 3)


def test_cylinder_box_lg5(lg5):
    b = cylinder_box(lg5, (1,))
    assert b == Box((Interval(F(0), F("1/3")), Interval(F(0), F("1/6"))))
    assert cylinder_box(lg5, ()) == Box((Interval(F(0), F(1)),) * 2)
    b2 = cylinder_box(lg5, (1, 1))
    assert b2 == Box((Interval(F(0), F("1/9")), Interval(F(0), F("1/36"))))


def test_cylinder_box_composes_through_compose_scaled(monkeypatch, lg5):
    # one composition loop: each side is one compose_scaled call
    calls = []
    original = sponge.ifs.compose_scaled

    def counting(levels):
        calls.append(None)
        return original(levels)

    monkeypatch.setattr(sponge.ifs, "compose_scaled", counting)
    b = cylinder_box(lg5, (1, 1))
    assert b == Box((Interval(F(0), F("1/9")), Interval(F(0), F("1/36"))))
    assert len(calls) == lg5.dim


def test_fixed_points(lg4):
    by_offset = sorted(lg4.maps, key=lambda m: m.coords[0].offset)
    assert fixed_point(by_offset[0]) == (F(0), F(0))
    assert fixed_point(by_offset[-1]) == (F(1), F(1))
    assert AffineMap1D(F("1/2"), F("1/4")).fixed_point() == F("1/2")


def test_roundtrip_fixtures(lg5, lg4, bedford_mcmullen):
    for ifs in (lg5, lg4, bedford_mcmullen):
        assert parse_ifs(serialize_ifs(ifs)) == ifs


def test_roundtrip_random():
    rng = random.Random(20240811)
    for _ in range(100):
        ifs = random_lg_system(rng)
        assert parse_ifs(serialize_ifs(ifs)) == ifs


@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_roundtrip_property(seed, dim):
    ifs = random_lg_system(random.Random(seed), dim=dim)
    assert parse_ifs(serialize_ifs(ifs)) == ifs


def test_cylinder_composition(lg5, lg4):
    rng = random.Random(7)
    for ifs in (lg5, lg4):
        for _ in range(25):
            u = [rng.randint(1, ifs.size) for _ in range(rng.randint(0, 4))]
            v = [rng.randint(1, ifs.size) for _ in range(rng.randint(0, 4))]
            whole = cylinder_box(ifs, u + v)
            inner = cylinder_box(ifs, v)
            comp = compose(ifs.maps[e - 1] for e in u)
            if comp is None:
                assert whole == inner
            else:
                sides = tuple(Interval(c(s.lo), c(s.hi))
                              for c, s in zip(comp.coords, inner.sides))
                assert whole == Box(sides)


def test_width_attained_at_last_coordinate(lg5, lg4):
    rng = random.Random(11)
    for ifs in (lg5, lg4):
        for _ in range(20):
            word = [rng.randint(1, ifs.size) for _ in range(rng.randint(1, 5))]
            box = cylinder_box(ifs, word)
            assert min(s.length for s in box.sides) == box.sides[-1].length


def test_neat_projection_inherited(lg5, lg4):
    for ifs in (lg5, lg4):
        for ell in range(1, ifs.dim + 1):
            proj = major_projection(ifs, ell)
            assert validate_lg(proj).neat_projection_ok


def test_sponge_ifs_invariants():
    m = DiagonalAffineMap((AffineMap1D(F("1/2"), F(0)),))
    with pytest.raises(IFSError):
        SpongeIFS(0, (m,))
    with pytest.raises(IFSError):
        SpongeIFS(1, (m, m))
    with pytest.raises(IFSError):
        SpongeIFS(2, (m,))
    with pytest.raises(IFSError, match="at least one map required"):
        SpongeIFS(2, ())


def _oracle_compose_words(maps, n):
    """The words of length n over `maps`, lexicographic, as (word,
    composition) pairs: word is a tuple of 0-based indices and composition
    is maps[w1] o ... o maps[wn] in Fraction, or None for the empty word."""
    return [(w, compose(maps[j] for j in w))
            for w in itertools.product(range(len(maps)), repeat=n)]


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, "special"]),
       st.integers(0, 3))
def test_cylinder_sides_match_composition_oracle(seed, kind, depth):
    rng = random.Random(seed)
    ifs = random_special_system(rng) if kind == "special" \
        else random_lg_system(rng, dim=kind)
    boxes = [Box((Interval(F(0), F(1)),) * ifs.dim) if c is None
             else Box(tuple(s.image() for s in c.coords))
             for _, c in _oracle_compose_words(ifs.maps, depth)]
    for j in range(ifs.dim):
        den, ends = compose_scaled(
            [scale_labels([m.coords[j] for m in ifs.maps])] * depth)
        assert [(Fraction(lo, den), Fraction(hi, den)) for lo, hi in ends] \
            == [(b.sides[j].lo, b.sides[j].hi) for b in boxes]
    assert enumerate_cylinders(ifs, depth) == boxes


def _over(dens, lo, hi):
    """Rationals p/d in (lo, hi) with d drawn from `dens`."""
    return st.sampled_from(dens).flatmap(lambda d: st.integers(
        lo * d + 1, hi * d - 1).map(lambda n: Fraction(n, d)))


_DENS = [2, 3, 4, 5, 6, 10, 12, 60]
_ratios = _over(_DENS, 0, 1)
# offsets as ints or as Fractions over mixed denominators
_offsets = st.one_of(st.integers(-1, 2), _over(_DENS, -1, 2))
_labels = st.builds(AffineMap1D, _ratios, _offsets)


@given(_ratios, _offsets)
def test_integer_form_gives_back_the_map(ratio, offset):
    g = AffineMap1D(ratio, offset)
    r, o, q = g.ints
    assert (Fraction(r, q), Fraction(o, q)) == (ratio, offset)
    assert q == math.lcm(Fraction(ratio).denominator,
                         Fraction(offset).denominator)
    # the same map with its values written another way
    same = AffineMap1D(Fraction(ratio), Fraction(offset * 6, 6))
    assert same == g and same.ints == g.ints and hash(same) == hash(g)


@given(st.lists(st.builds(AffineMap1D, _over([2, 4], 0, 1),
                          st.one_of(st.integers(0, 1), _over([2, 4], 0, 1))),
                min_size=2, max_size=8))
def test_equal_maps_hash_equal(maps):
    # few values, so that equal maps, written as ints or Fractions, recur
    for f, g in itertools.product(maps, repeat=2):
        assert (f == g) == (f.ints == g.ints)
        if f == g:
            assert hash(f) == hash(g)
    assert len(dict.fromkeys(maps)) == len({g.ints for g in maps})


@given(_labels)
def test_unit_preserving_matches_fraction_predicate(g):
    assert g.unit_preserving() == (0 <= g.offset <= 1 - g.ratio)


@settings(max_examples=60)
@given(st.lists(st.lists(_labels, min_size=1, max_size=3), max_size=3),
       st.lists(st.integers(0, 5), max_size=4))
def test_compose_scaled_matches_composition_oracle(sets, picks):
    # a set may recur, as a family member recurs in a pre-Moran word; the
    # levels go innermost first, the words outermost letter first
    label_sets = sets + [sets[k % len(sets)] for k in picks if sets]
    den, ends = compose_scaled(map(scale_labels, reversed(label_sets)))
    words = itertools.product(*label_sets)
    want = [c.image() if c is not None else Interval(F(0), F(1))
            for c in map(compose, words)]
    assert [Interval(Fraction(lo, den), Fraction(hi, den))
            for lo, hi in ends] == want


@given(_ratios, _ratios)
def test_coordinate_ordering_matches_fraction_predicate(a, b):
    ifs = SpongeIFS(2, (DiagonalAffineMap((AffineMap1D(a, 0),
                                           AffineMap1D(b, 0))),))
    assert validate_lg(ifs).coordinate_ordering_ok == (a > b)


@pytest.mark.parametrize("ratio, offset", [
    (0.5, 0.25), (Fraction(1, 2), 0.25), (0.5, Fraction(1, 4)), (1.5, 0)])
def test_float_label_is_a_type_error(ratio, offset):
    # a float is rejected when the map is built, not converted
    with pytest.raises(TypeError):
        AffineMap1D(ratio, offset)


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda ifs: Interval(1, 0), "interval with lo > hi",
                 id="reversed interval"),
    pytest.param(lambda ifs: AffineMap1D(2, 0), r"ratio 2 outside \(0,1\)",
                 id="ratio 2"),
    pytest.param(lambda ifs: cylinder_box(ifs, (1, 0)),
                 r"symbol 0 out of range 1\.\.5", id="symbol 0"),
    pytest.param(lambda ifs: cylinder_box(ifs, (6, 1)),
                 r"symbol 6 out of range 1\.\.5", id="symbol M+1"),
    pytest.param(lambda ifs: approx_square(ifs, (1, 6), F("1/2")),
                 r"symbol 6 out of range 1\.\.5", id="square symbol M+1"),
])
def test_ifs_errors(lg5, build, match):
    with pytest.raises(IFSError, match=match):
        build(lg5)
