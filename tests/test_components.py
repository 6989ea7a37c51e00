import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sponge import (AffineMap1D, Box, ComponentsError, Interval, PointSet,
                    PreconditionError, ResourceCapError, SimpleIFSFamily,
                    Vertex, approx_square, check_premoran_bound,
                    check_product_decomposition, check_union_bound,
                    component_diameter_profile, cylinder_box,
                    delta0_sequence_exists, delta0_sequence_exists_sq,
                    delta_components, delta_components_sq,
                    enumerate_cylinders, interval_components, parse_ifs,
                    pre_moran_intervals)

from conftest import random_lg_system, random_point_set, random_simple_labels


def F(s, d=None):
    return Fraction(s) if d is None else Fraction(s, d)


def labels(*pairs):
    return tuple(AffineMap1D(F(r), F(o)) for r, o in pairs)


def test_point_components():
    pts = [(F(0),), (F("1/20"),), (F("1/10"),), (F("1/2"),)]
    part = delta_components(pts, F("3/50"))
    assert part.blocks == ((0, 1, 2), (3,))
    assert part.diam_sqs == (F("1/100"), F(0))


def test_lg5_depth1_components(lg5):
    boxes = enumerate_cylinders(lg5, 1)
    part = delta_components(boxes, F("1/10"))
    assert part.blocks == ((0,), (1,), (2,), (3,), (4,))


def test_single_object():
    boxes = enumerate_cylinders(parse_ifs("dim 1\nmap 1/3 0"), 1)
    part = delta_components(boxes, F("1/2"))
    assert part.size == 1
    assert part.diam_sqs == (F("1/9"),)


def test_delta_rejected_nonpositive():
    with pytest.raises(ComponentsError):
        delta_components([(F(0),), (F(1),)], F(0))


def test_delta0_sequence_found():
    pts = [(F(0),), (F("3/10"),), (F("3/5"),), (F(1),)]
    found, seq = delta0_sequence_exists(pts, F("2/5"))
    assert found
    steps = [abs(a[0] - b[0]) for a, b in zip(seq, seq[1:])]
    total = abs(seq[-1][0] - seq[0][0])
    assert all(s <= F("2/5") * total for s in steps)


def test_delta0_sequence_two_points():
    assert not delta0_sequence_exists([(F(0),), (F(1),)], F("1/2"))[0]
    assert delta0_sequence_exists([(F(0),), (F(1),)], F(1))[0]


def test_delta0_sequence_needs_two_points():
    with pytest.raises(ComponentsError):
        delta0_sequence_exists([(F(0),)], F(1))


def test_profile_lg5_depth4(lg5):
    grid = [F(1, 8), F(1, 16), F(1, 32), F(1, 64)]
    rows = component_diameter_profile(lg5, 4, grid)
    got = [(r["delta"], r["num_components"], r["max_diam_sq"], r["ratio_sq"])
           for r in rows]
    assert got == [
        (F(1, 8), 5, F(29, 100), F(464, 25)),
        (F(1, 16), 11, F(5, 36), F(320, 9)),
        (F(1, 32), 32, F(17, 450), F(8704, 225)),
        (F(1, 64), 59, F(29, 3600), F(7424, 225)),
    ]
    # the disconnected fixture keeps a bounded diameter/delta ratio
    assert max(r["ratio_sq"] for r in rows) < 39


def test_profile_lg4_depth4(lg4):
    grid = [F(1, 8), F(1, 16), F(1, 32), F(1, 64)]
    rows = component_diameter_profile(lg4, 4, grid)
    got = [(r["delta"], r["num_components"], r["max_diam_sq"], r["ratio_sq"])
           for r in rows]
    assert got == [
        (F(1, 8), 4, F(5, 16), F(20)),
        (F(1, 16), 6, F(5, 32), F(40)),
        (F(1, 32), 10, F(17, 256), F(68)),
        (F(1, 64), 18, F(5, 288), F(640, 9)),
    ]
    # the connected-fiber fixture's ratio grows as delta shrinks
    ratios = [r["ratio_sq"] for r in rows]
    assert ratios == sorted(ratios)


def test_profile_single_map():
    ifs = parse_ifs("dim 1\nmap 1/3 0")
    rows = component_diameter_profile(ifs, 2, [F(1, 2)])
    assert rows[0]["num_components"] == 1
    assert rows[0]["max_diam_sq"] == F(1, 81)


def test_profile_resource_cap(lg5):
    with pytest.raises(ResourceCapError):
        component_diameter_profile(lg5, 9, [F(1, 8)], cap=1000)


def _half_family():
    return SimpleIFSFamily([labels(("1/4", 0), ("1/4", "3/4"))])


def test_family_constants():
    fam = _half_family()
    assert fam.alpha_star == F("1/4")
    assert fam.beta_star == F("1/4")
    assert fam.L_star == F("1/2")
    assert fam.N_star == 2
    assert fam.g_star == F("1/8")


def test_family_rejects_tiling_member():
    with pytest.raises(PreconditionError):
        SimpleIFSFamily([labels(("1/2", 0), ("1/2", "1/2"))])


def test_pre_moran_word1():
    pm = pre_moran_intervals(_half_family(), (1,))
    assert [(iv.lo, iv.hi) for iv in pm.intervals] == \
        [(F(0), F("1/4")), (F("3/4"), F(1))]


def test_pre_moran_word11():
    pm = pre_moran_intervals(_half_family(), (1, 1))
    assert [(iv.lo, iv.hi) for iv in pm.intervals] == [
        (F(0), F("1/16")), (F("3/16"), F("1/4")),
        (F("3/4"), F("13/16")), (F("15/16"), F(1))]


def test_pre_moran_lg5_fibers(lg5):
    from sponge import build_labeled_tree, fiber_ifs
    tree = build_labeled_tree(lg5)
    fam = SimpleIFSFamily([fiber_ifs(tree, v) for v in tree.levels[1]])
    pm = pre_moran_intervals(fam, (2, 1))
    assert len(pm.intervals) == 6


def test_pre_moran_hutchinson_composition():
    rng = random.Random(5)
    for _ in range(10):
        fam = SimpleIFSFamily([random_simple_labels(rng, tiling=False)
                               for _ in range(rng.randint(1, 3))])
        u = [rng.randint(1, fam.size) for _ in range(rng.randint(1, 2))]
        v = [rng.randint(1, fam.size) for _ in range(rng.randint(1, 2))]
        whole = pre_moran_intervals(fam, u + v).intervals
        inner = pre_moran_intervals(fam, v).intervals
        expected = list(inner)
        for i in reversed(u):
            expected = [Interval(g(iv.lo), g(iv.hi))
                        for g in fam.members[i - 1] for iv in expected]
        assert sorted(whole, key=lambda iv: iv.lo) == \
            sorted(expected, key=lambda iv: iv.lo)


def test_premoran_bound_admissible_case():
    rep = check_premoran_bound(_half_family(), (1, 1), F("1/32"))
    assert rep.admissible
    assert rep.bound == F("65/32")
    assert rep.max_component_diam == F("1/16")
    assert rep.holds


def test_premoran_bound_trivial_delta():
    rep = check_premoran_bound(_half_family(), (1,), F(1))
    assert rep.bound == 65
    assert rep.holds


def test_premoran_bound_inadmissible_delta():
    rep = check_premoran_bound(_half_family(), (1, 1, 1), F("1/4096"))
    assert not rep.admissible


def test_union_bound_translates():
    fam = _half_family()
    pm = pre_moran_intervals(fam, (1, 1, 1)).intervals
    # C from the admissible-regime bound constant
    C = 2 / (fam.g_star * fam.alpha_star) + 1
    shifted = [Interval(iv.lo / 2, iv.hi / 2) for iv in pm]
    grid = [F(1, 2 ** k) for k in range(1, 9)]
    assert check_union_bound([list(pm), shifted], grid, C)


def test_union_bound_single_set_collapses():
    pts = [(F(0),), (F(1),)]
    assert check_union_bound([pts], [F("1/2")], F(1))


def test_union_bound_two_singletons():
    assert check_union_bound([[(F(0),)], [(F(1),)]], [F("1/2")], F(1))


def test_union_bound_precondition_failure():
    pts = [(F(0),), (F("1/2"),), (F(1),)]
    with pytest.raises(PreconditionError):
        check_union_bound([pts], [F("1/2")], F("1/10"))


def test_approx_square_lg5(lg5):
    sq = approx_square(lg5, (1,) * 6, F("1/10"))
    assert sq.depths == (3, 2)
    assert [(s.lo, s.hi) for s in sq.box.sides] == \
        [(F(0), F("1/27")), (F(0), F("1/36"))]


def test_approx_square_lg4(lg4):
    first = next(i for i, m in enumerate(lg4.maps, start=1)
                 if m.coords[0].offset == 0)
    sq = approx_square(lg4, (first,) * 6, F("1/5"))
    assert sq.depths == (2, 1)
    assert [(s.lo, s.hi) for s in sq.box.sides] == \
        [(F(0), F("1/16")), (F(0), F("1/6"))]


def test_approx_square_depths_decrease(lg5):
    sq = approx_square(lg5, (2, 3, 1, 4, 5, 1, 2), F("1/40"))
    assert sorted(sq.depths, reverse=True) == list(sq.depths)


def test_approx_square_word_too_short(lg5):
    with pytest.raises(ComponentsError) as err:
        approx_square(lg5, (1,), F("1/100"))
    assert "coordinate 1" in str(err.value)


def test_product_decomposition(lg5, lg4):
    for ifs in (lg5, lg4):
        for k in (0, 1, 2, 3):
            assert check_product_decomposition(ifs, k)


@given(st.integers(0, 10 ** 6), st.integers(0, 3))
def test_enumerate_cylinders_matches_cylinder_box(seed, depth):
    ifs = random_lg_system(random.Random(seed))
    words = itertools.product(range(1, ifs.size + 1), repeat=depth)
    assert enumerate_cylinders(ifs, depth) == \
        [cylinder_box(ifs, w) for w in words]


def test_uniform_directions_on_random_points():
    # (i) => (ii): no delta0-sequence forces diam <= (2/delta0) * delta
    rng = random.Random(99)
    grid = [F(1, 2 ** k) for k in range(1, 9)]
    for _ in range(15):
        pts = random_point_set(rng)
        delta0 = F(rng.randint(1, 6), 12)
        if delta0_sequence_exists(pts, delta0)[0]:
            continue
        for delta in grid:
            part = delta_components(pts, delta)
            bound = (2 / delta0) * delta
            assert part.max_diam_sq() <= bound * bound


def test_monotone_refinement():
    rng = random.Random(13)
    for _ in range(10):
        pts = random_point_set(rng)
        small = delta_components(pts, F(1, 16))
        large = delta_components(pts, F(1, 4))
        blocks = {i: bi for bi, block in enumerate(large.blocks)
                  for i in block}
        for block in small.blocks:
            assert len({blocks[i] for i in block}) == 1


def test_interval_components_match_generic():
    rng = random.Random(21)
    for _ in range(10):
        ivs = []
        for _ in range(rng.randint(2, 8)):
            lo = F(rng.randint(0, 50), 60)
            ivs.append(Interval(lo, lo + F(rng.randint(0, 8), 60)))
        delta = F(rng.randint(1, 10), 60)
        blocks, diams = interval_components(ivs, delta)
        from sponge.ifs import Box
        part = delta_components([Box((iv,)) for iv in ivs], delta)
        assert blocks == part.blocks
        assert tuple(d * d for d in diams) == part.diam_sqs


# Differential oracle: the per-threshold Fraction union-find that the
# integer single-linkage kernel replaced.  Every pair is tested in exact
# rationals, then each block's diameter is the max over its pairs.

class _OracleUnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def _oracle_point_dist_sq(p, q):
    return sum((a - b) * (a - b) for a, b in zip(p, q))


def _oracle_components_sq(objects, delta_sq):
    """(blocks, diam_sqs) of the closure of dist^2 <= delta_sq."""
    if isinstance(objects, PointSet):
        objects = objects.points
    objects = list(objects)
    if isinstance(objects[0], Box):
        dist_sq = lambda i, j: objects[i].dist_sq(objects[j])
        far_sq = lambda i, j: objects[i].far_sq(objects[j])
    else:
        pts = [tuple(p) for p in objects]
        dist_sq = lambda i, j: _oracle_point_dist_sq(pts[i], pts[j])
        far_sq = dist_sq
    n = len(objects)
    uf = _OracleUnionFind(n)
    for i in range(n):
        for j in range(i + 1, n):
            if dist_sq(i, j) <= delta_sq:
                uf.union(i, j)
    groups = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    blocks = sorted(groups.values(), key=lambda b: b[0])
    diam_sqs = []
    for block in blocks:
        diam = Fraction(0)
        if isinstance(objects[0], Box):
            # a single box has the diameter of its own extent
            diam = max(far_sq(i, j) for i in block for j in block if i <= j)
        elif len(block) > 1:
            diam = max(far_sq(i, j)
                       for a, i in enumerate(block) for j in block[a + 1:])
        diam_sqs.append(diam)
    return tuple(tuple(b) for b in blocks), tuple(diam_sqs)


def _oracle_gaps(objects):
    """Every positive pairwise squared gap, for thresholds that touch."""
    if isinstance(objects[0], Box):
        gap = lambda a, b: a.dist_sq(b)
    else:
        gap = _oracle_point_dist_sq
    return sorted({gap(a, b) for k, a in enumerate(objects)
                   for b in objects[k + 1:]} - {0})


rationals = st.builds(Fraction, st.integers(0, 24), st.integers(1, 12))


@st.composite
def boxes_or_points(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        return [tuple(draw(rationals) for _ in range(dim)) for _ in range(n)]
    boxes = []
    for _ in range(n):
        sides = []
        for _ in range(dim):
            lo, length = draw(rationals), draw(rationals)
            sides.append(Interval(lo, lo + length))
        boxes.append(Box(tuple(sides)))
    return boxes


@st.composite
def thresholds(draw, objects):
    """A squared threshold: a pairwise gap (touching) or any rational,
    which is in general not a square."""
    gaps = _oracle_gaps(objects)
    if gaps and draw(st.booleans()):
        return draw(st.sampled_from(gaps))
    return draw(st.builds(Fraction, st.integers(1, 200), st.integers(1, 60)))


@given(st.data())
def test_delta_components_sq_matches_oracle(data):
    objects = data.draw(boxes_or_points())
    delta_sq = data.draw(thresholds(objects))
    if not isinstance(objects[0], Box) and data.draw(st.booleans()):
        objects = PointSet(tuple(objects))
    part = delta_components_sq(objects, delta_sq)
    blocks, diam_sqs = _oracle_components_sq(objects, delta_sq)
    assert part.delta_sq == delta_sq
    assert part.blocks == blocks
    assert part.diam_sqs == diam_sqs
    assert part.size == len(blocks)
    assert part.max_diam_sq() == max(diam_sqs)


def _touching_deltas(boxes):
    """Thresholds delta whose square is exactly some pair's gap: pairs
    apart in a single coordinate."""
    out = set()
    for k, a in enumerate(boxes):
        for b in boxes[k + 1:]:
            gaps = [g for g in (s.gap_to(t) for s, t in zip(a.sides, b.sides))
                    if g > 0]
            if len(gaps) == 1:
                out.add(gaps[0])
    return sorted(out)


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.data())
def test_profile_rows_match_oracle(seed, depth, data):
    ifs = random_lg_system(random.Random(seed))
    boxes = enumerate_cylinders(ifs, depth)
    pool = [F(1, 2 ** k) for k in range(7)] + [F(1, 3), F(2, 7)]
    pool += _touching_deltas(boxes)
    # duplicates and any order, as a caller may pass them
    grid = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    rows = component_diameter_profile(ifs, depth, grid)
    assert [r["delta"] for r in rows] == grid
    oracle = {d: _oracle_components_sq(boxes, d * d) for d in set(grid)}
    for row in rows:
        delta = row["delta"]
        blocks, diam_sqs = oracle[delta]
        assert row["num_components"] == len(blocks)
        assert row["max_diam_sq"] == max(diam_sqs)
        assert row["ratio_sq"] == max(diam_sqs) / (delta * delta)


def test_profile_empty_grid(lg5):
    assert component_diameter_profile(lg5, 2, []) == []


def test_profile_error_order(lg5):
    not_lg = parse_ifs("dim 2\nmap 1/2 0 ; 1/3 0\nmap 1/2 1/4 ; 1/3 1/3\n")
    with pytest.raises(ComponentsError, match="depth"):
        component_diameter_profile(not_lg, 0, [F(0)])
    with pytest.raises(ComponentsError, match="Lalley-Gatzouras"):
        component_diameter_profile(not_lg, 9, [F(0)], cap=1000)
    with pytest.raises(ResourceCapError):
        component_diameter_profile(lg5, 9, [F(0)], cap=1000)
    with pytest.raises(ComponentsError,
                       match="delta must be positive, got -1/8"):
        component_diameter_profile(lg5, 2, [F(1, 8), F(-1, 8), F(0)])
