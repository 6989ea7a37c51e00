import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import sponge.components
import sponge.ifs
import sponge.tree
from sponge import (AffineMap1D, Box, ComponentsError, FiberIFS, IFSError,
                    Interval, IntervalSet, PointSet, PreconditionError,
                    ResourceCapError, SimpleIFSFamily, Vertex,
                    approx_square, build_labeled_tree, check_premoran_bound,
                    check_product_decomposition, check_union_bound,
                    component_diameter_profile, compose_labels, cylinder_box,
                    delta0_sequence_exists, delta0_sequence_exists_sq,
                    delta_components, delta_components_sq,
                    enumerate_cylinders, interval_components,
                    major_projection, parse_ifs, pre_moran_intervals,
                    validate_lg)

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


@pytest.mark.parametrize("member", [
    labels(("3/5", 0), ("1/10", "1/10"), ("2/5", "3/5")),  # images overlap
    labels(("1/4", 0), ("1/2", "3/4")),                    # leaves [0,1]
    (),
])
def test_family_rejects_member_that_is_not_a_simple_ifs(member):
    with pytest.raises(PreconditionError):
        SimpleIFSFamily([labels(("1/4", 0), ("1/4", "3/4")), member])


def test_family_keeps_members_as_given(lg5):
    from sponge import build_labeled_tree, fiber_ifs
    backwards = labels(("1/4", "3/4"), ("1/4", 0))
    assert SimpleIFSFamily([backwards]).members == (backwards,)
    tree = build_labeled_tree(lg5)
    fibers = [fiber_ifs(tree, v) for v in tree.levels[1]]
    fam = SimpleIFSFamily(fibers)
    assert all(m is f.labels for m, f in zip(fam.members, fibers))


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


def test_union_bound_rejects_empty_input():
    for sets in ([], [[]], [[(F(0),)], []]):
        with pytest.raises(ComponentsError):
            check_union_bound(sets, [F("1/2")], F(1))


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


def _oracle_approx_square(ifs, word, delta):
    """Per coordinate, compose along the word until the running ratio
    product first drops below delta: (depths, sides) or the error."""
    depths, sides = [], []
    for j in range(ifs.dim):
        product, comp = Fraction(1), None
        for k, e in enumerate(word, start=1):
            part = ifs.maps[e - 1].coords[j]
            comp = part if comp is None else comp.compose(part)
            product *= part.ratio
            if product < delta:
                depths.append(k)
                sides.append((comp(F(0)), comp(F(1))))
                break
        else:
            return "components: word too short for coordinate %d at " \
                "delta=%s" % (j + 1, delta)
    return tuple(depths), sides


@given(st.integers(0, 10 ** 6), st.integers(0, 8),
       st.sampled_from([F(1, 2), F(1, 5), F(1, 10), F(1, 40)]))
def test_approx_square_matches_per_coordinate_oracle(seed, length, delta):
    rng = random.Random(seed)
    ifs = random_lg_system(rng)
    word = tuple(rng.randint(1, ifs.size) for _ in range(length))
    try:
        sq = approx_square(ifs, word, delta)
        got = sq.depths, [(s.lo, s.hi) for s in sq.box.sides]
    except ComponentsError as exc:
        got = str(exc)
    assert got == _oracle_approx_square(ifs, word, delta)


def test_product_decomposition(lg5, lg4):
    for ifs in (lg5, lg4):
        for k in (0, 1, 2, 3):
            assert check_product_decomposition(ifs, k)


def _oracle_product_decomposition(ifs, k):
    """The depth-k cylinder boxes against the products of projected
    cylinder boxes and fiber pre-Moran intervals, as sets of Fraction
    Boxes: boxes from cylinder_box, fiber intervals composed map by map.
    The fibers are read through sponge.components, as the fast path
    reads them."""
    proj = major_projection(ifs, ifs.dim - 1)
    tree = build_labeled_tree(ifs)
    fibers = [f.labels
              for f in sponge.components.last_coordinate_fibers(tree)]
    lhs = {cylinder_box(ifs, w)
           for w in itertools.product(range(1, ifs.size + 1), repeat=k)}
    rhs = set()
    for word in itertools.product(range(1, proj.size + 1), repeat=k):
        base = cylinder_box(proj, word).sides
        for gs in itertools.product(*(fibers[j - 1] for j in word)):
            lo, hi = F(0), F(1)
            for g in reversed(gs):
                lo, hi = g(lo), g(hi)
            rhs.add(Box(base + (Interval(lo, hi),)))
    return lhs == rhs


def _product_systems(lg5, lg4, bedford_mcmullen):
    systems = [lg5, lg4, bedford_mcmullen]
    rng = random.Random(31)
    while len(systems) < 15:
        ifs = random_lg_system(rng, dim=2 + len(systems) % 2)
        if validate_lg(ifs).lg_type:
            systems.append(ifs)
    return systems


def test_product_decomposition_matches_box_oracle(lg5, lg4,
                                                  bedford_mcmullen):
    for ifs in _product_systems(lg5, lg4, bedford_mcmullen):
        for k in (1, 2, 3):
            assert check_product_decomposition(ifs, k) \
                == _oracle_product_decomposition(ifs, k), (ifs, k)


# the fibers' last-coordinate labels are over 4 and over 3, the full set
# over 12, so the two sides' denominators differ before scaling
MIXED_DENOMINATORS = ("dim 2\nmap 1/2 0 ; 1/4 0\nmap 1/2 0 ; 1/4 1/2\n"
                      "map 1/2 1/2 ; 1/3 0\nmap 1/2 1/2 ; 1/3 1/3\n")


def test_product_decomposition_across_fiber_denominators():
    ifs = parse_ifs(MIXED_DENOMINATORS)
    fibers = sponge.tree.last_coordinate_fibers(build_labeled_tree(ifs))
    last = [m.coords[-1] for m in ifs.maps]
    assert [compose_labels([f.labels])[0] for f in fibers] == [4, 3]
    assert compose_labels([last])[0] == 12
    for k in (1, 2, 3):
        assert check_product_decomposition(ifs, k)
        assert _oracle_product_decomposition(ifs, k)


def test_product_decomposition_rejects_a_dropped_label(monkeypatch, lg5,
                                                       bedford_mcmullen):
    original = sponge.components.last_coordinate_fibers

    def tampered(tree):
        fibers = original(tree)
        k = next(i for i, f in enumerate(fibers) if f.size > 1)
        fibers[k] = FiberIFS(fibers[k].owner, fibers[k].labels[:-1])
        return fibers

    monkeypatch.setattr(sponge.components, "last_coordinate_fibers",
                        tampered)
    for ifs in (lg5, bedford_mcmullen, parse_ifs(MIXED_DENOMINATORS)):
        for k in (1, 2):
            assert check_product_decomposition(ifs, k) is False
            assert _oracle_product_decomposition(ifs, k) is False


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


def _oracle_side_gap(a, b):
    """Distance between two closed intervals (0 when they touch)."""
    g = max(a.lo, b.lo) - min(a.hi, b.hi)
    return g if g > 0 else Fraction(0)


def _oracle_box_dist_sq(a, b):
    """Squared Euclidean distance between two closed boxes."""
    return sum((_oracle_side_gap(s, t) ** 2 for s, t in zip(a.sides, b.sides)),
               Fraction(0))


def _oracle_box_far_sq(a, b):
    """Squared max distance between points of two closed boxes."""
    return sum((max(s.hi - t.lo, t.hi - s.lo) ** 2
                for s, t in zip(a.sides, b.sides)), Fraction(0))


def _oracle_components_sq(objects, delta_sq):
    """(blocks, diam_sqs) of the closure of dist^2 <= delta_sq."""
    if isinstance(objects, PointSet):
        objects = objects.points
    objects = list(objects)
    if isinstance(objects[0], Box):
        dist_sq = lambda i, j: _oracle_box_dist_sq(objects[i], objects[j])
        far_sq = lambda i, j: _oracle_box_far_sq(objects[i], objects[j])
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
        gap = _oracle_box_dist_sq
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
            gaps = [g for g in (_oracle_side_gap(s, t)
                                for s, t in zip(a.sides, b.sides))
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


# Differential oracles of the 1-D path: the Fraction sort-and-merge that
# the integer sorted gap list replaced, and the Fraction composition that
# integer pre-Moran composition replaced.

def _oracle_interval_components(intervals, delta):
    """(blocks, diams) of closed intervals: merge in order of left end
    while the next one starts within delta of the running right end."""
    order = sorted(range(len(intervals)), key=lambda i: intervals[i].lo)
    blocks, diams = [], []
    cur, cur_hi, cur_lo = [], None, None
    for idx in order:
        iv = intervals[idx]
        if cur and iv.lo - cur_hi > delta:
            blocks.append(tuple(sorted(cur)))
            diams.append(cur_hi - cur_lo)
            cur, cur_hi, cur_lo = [], None, None
        if not cur:
            cur_lo = iv.lo
            cur_hi = iv.hi
        else:
            cur_hi = max(cur_hi, iv.hi)
        cur.append(idx)
    if cur:
        blocks.append(tuple(sorted(cur)))
        diams.append(cur_hi - cur_lo)
    pairs = sorted(zip(blocks, diams), key=lambda bd: bd[0][0])
    return tuple(b for b, _ in pairs), tuple(d for _, d in pairs)


def _oracle_pre_moran_intervals(family, word):
    """Each label applied to each interval in Fraction, innermost member
    first, then a stable sort by left end."""
    intervals = [Interval(F(0), F(1))]
    for i in reversed(word):
        intervals = [Interval(g(iv.lo), g(iv.hi))
                     for g in family.members[i - 1] for iv in intervals]
    return sorted(intervals, key=lambda iv: iv.lo)


fractions_of_unit = st.sampled_from([F(0), F(1, 3), F(1, 2), F(1)])


@st.composite
def interval_sets(draw):
    """Closed intervals, with duplicate, nested, touching and zero-length
    ones drawn on purpose next to fresh, mostly disjoint ones."""
    ivs = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(
            ["fresh", "duplicate", "nested", "touching", "point"]))
        if not ivs or kind == "fresh":
            lo = draw(rationals)
            ivs.append(Interval(lo, lo + draw(rationals)))
            continue
        iv = draw(st.sampled_from(ivs))
        if kind == "duplicate":
            ivs.append(iv)
        elif kind == "nested":
            lo = iv.lo + iv.length * draw(fractions_of_unit)
            ivs.append(Interval(lo, lo + (iv.hi - lo) * draw(fractions_of_unit)))
        elif kind == "touching":
            ivs.append(Interval(iv.hi, iv.hi + draw(rationals)))
        else:
            end = draw(st.sampled_from([iv.lo, iv.hi]))
            ivs.append(Interval(end, end))
    return ivs


@st.composite
def interval_deltas(draw, ivs):
    """A positive delta: one of the set's own gaps, just above or below
    one, or any rational."""
    eps = F(1, 10 ** 6)
    near = sorted({b.lo - a.hi + s for a in ivs for b in ivs
                   for s in (-eps, 0, eps) if b.lo - a.hi + s > 0})
    if near and draw(st.booleans()):
        return draw(st.sampled_from(near))
    return draw(st.builds(Fraction, st.integers(1, 200), st.integers(1, 60)))


@given(st.data())
def test_interval_components_match_oracle(data):
    ivs = data.draw(interval_sets())
    delta = data.draw(interval_deltas(ivs))
    assert interval_components(ivs, delta) == \
        _oracle_interval_components(ivs, delta)


@given(st.data())
def test_interval_components_match_generic(data):
    ivs = data.draw(interval_sets())
    delta = data.draw(interval_deltas(ivs))
    blocks, diams = interval_components(ivs, delta)
    part = delta_components([Box((iv,)) for iv in ivs], delta)
    assert blocks == part.blocks
    assert tuple(d * d for d in diams) == part.diam_sqs


def test_interval_components_empty_and_nonpositive_delta():
    assert interval_components([], F(1, 8)) == ((), ())
    for delta in (F(0), F(-1, 8)):
        with pytest.raises(ComponentsError):
            interval_components([Interval(F(0), F(1))], delta)
        with pytest.raises(ComponentsError):
            interval_components([], delta)


def test_interval_components_reject_float_ends():
    # exact arithmetic only: a float end is refused, not converted
    with pytest.raises(TypeError):
        interval_components([Interval(0.0, 0.5), Interval(F(3, 4), F(1))],
                            F(1, 8))


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6), st.integers(1, 5))
def test_pre_moran_intervals_match_fraction_oracle(seed, length):
    rng = random.Random(seed)
    members = [random_simple_labels(rng, max_maps=3, tiling=False)
               for _ in range(rng.randint(1, 3))]
    # labels in any order, so that the composed intervals need sorting
    fam = SimpleIFSFamily([rng.sample(m, len(m)) for m in members])
    word = tuple(rng.randint(1, fam.size) for _ in range(length))
    assert list(pre_moran_intervals(fam, word).intervals) == \
        _oracle_pre_moran_intervals(fam, word)


def test_pre_moran_cap_counts_word_length():
    # one map per member: one interval, but a length-k word takes k levels
    fam = SimpleIFSFamily([labels(("1/3", 0))])
    with pytest.raises(ResourceCapError):
        pre_moran_intervals(fam, (1,) * 20, cap=19)
    pm = pre_moran_intervals(fam, (1,) * 20, cap=20)
    assert pm.intervals == (Interval(F(0), F(1, 3 ** 20)),)


@given(st.data())
def test_one_interval_set_answers_a_shuffled_grid(data):
    # the gap list is built at the first delta and kept: no delta may see
    # state left by the one before it
    ivs = data.draw(interval_sets())
    grid = data.draw(st.lists(interval_deltas(ivs), min_size=1, max_size=6))
    grid = data.draw(st.permutations(grid + grid[:1]))
    iset = IntervalSet.of(ivs)
    assert iset == tuple(ivs)
    for delta in grid:
        assert interval_components(iset, delta) == \
            _oracle_interval_components(ivs, delta)


def test_interval_set_rejects_reversed_ends():
    with pytest.raises(IFSError, match="lo > hi"):
        IntervalSet(4, [(0, 1), (3, 2)])
    with pytest.raises(ComponentsError):
        IntervalSet(0, [(0, 1)])
    assert IntervalSet(4, [(2, 2)]) == (Interval(F(1, 2), F(1, 2)),)


def test_pre_moran_intervals_read_as_a_tuple():
    pm = pre_moran_intervals(_half_family(), (1, 1))
    expected = tuple(_oracle_pre_moran_intervals(_half_family(), (1, 1)))
    ivs = pm.intervals
    assert len(ivs) == 4
    assert ivs[0] == expected[0] and ivs[-1] == expected[-1]
    assert ivs[1:3] == expected[1:3]
    assert tuple(ivs) == expected and list(ivs) == list(expected)
    assert ivs == expected and expected == ivs
    assert ivs != list(expected) and ivs != expected[:3]
    assert hash(ivs) == hash(expected)
    assert expected[2] in ivs and ivs.index(expected[2]) == 2


def test_pre_moran_components_build_no_intervals(monkeypatch):
    # a pre-Moran set stays integer from composition to components
    fam = SimpleIFSFamily([labels(("1/4", 0), ("1/4", "3/4")),
                           labels(("1/3", 0), ("1/5", "1/2"), ("1/6", "5/6"))])
    first = Interval(F(0), F(1, 4 * 3 * 3 * 4))
    made = []
    original = sponge.ifs.Interval.__post_init__

    def counting(self):
        made.append(None)
        original(self)

    monkeypatch.setattr(sponge.ifs.Interval, "__post_init__", counting)
    pm = pre_moran_intervals(fam, (1, 2, 2, 1))
    for k in range(6):
        interval_components(pm.intervals, F(1, 2 ** k))
    assert made == []
    # the counter sees an Interval built when one is read
    assert pm.intervals[0] == first
    assert len(made) == 1


def test_profile_builds_no_intervals(monkeypatch, lg5):
    # cylinder sides go from compose_labels to the kernel as integers;
    # validation, which builds its own boxes, is taken as done
    report = validate_lg(lg5)
    monkeypatch.setattr(sponge.components, "validate_lg", lambda ifs: report)
    made = []
    original = sponge.ifs.Interval.__post_init__

    def counting(self):
        made.append(None)
        original(self)

    monkeypatch.setattr(sponge.ifs.Interval, "__post_init__", counting)
    rows = component_diameter_profile(lg5, 4, [F(1, 8), F(1, 64)])
    assert made == []
    assert [r["num_components"] for r in rows] == [5, 59]
    # the counter sees the two sides of each box enumerate_cylinders builds
    enumerate_cylinders(lg5, 1)
    assert len(made) == 2 * 5


def test_union_bound_scales_each_set_once(monkeypatch):
    # one common denominator per interval set and one for their union,
    # however many deltas the grid has
    calls = []
    original = sponge.components.common_denominator

    def counting(values):
        calls.append(None)
        return original(values)

    monkeypatch.setattr(sponge.components, "common_denominator", counting)
    fam = _half_family()
    ivs = list(pre_moran_intervals(fam, (1, 1, 1)).intervals)
    shifted = [Interval(iv.lo / 2, iv.hi / 2) for iv in ivs]
    grid = [F(1, 2 ** k) for k in range(1, 9)]
    C = 2 / (fam.g_star * fam.alpha_star) + 1
    assert check_union_bound([ivs, shifted], grid, C)
    assert len(calls) == 3


def _threshold_calls(lg5):
    pts = [(F(0),), (F(1, 2),)]
    ivs = [Interval(F(0), F(1, 4)), Interval(F(1, 2), F(1))]
    return {
        "delta_components": lambda t: delta_components(pts, t),
        "delta_components_sq": lambda t: delta_components_sq(pts, t),
        "interval_components": lambda t: interval_components(ivs, t),
        "delta0_sequence_exists": lambda t: delta0_sequence_exists(pts, t),
        "delta0_sequence_exists_sq":
            lambda t: delta0_sequence_exists_sq(pts, t),
        "component_diameter_profile":
            lambda t: component_diameter_profile(lg5, 1, [F(1, 8), t]),
        "check_premoran_bound":
            lambda t: check_premoran_bound(_half_family(), (1,), t),
        "check_union_bound delta":
            lambda t: check_union_bound([ivs], [F(1, 8), t], F(4)),
        "check_union_bound C":
            lambda t: check_union_bound([ivs], [F(1, 8)], 8 * t),
        "approx_square": lambda t: approx_square(lg5, (1,) * 6, t),
    }


@pytest.mark.parametrize("entry", sorted(_threshold_calls(None)))
def test_thresholds_are_exact(lg5, entry):
    # a threshold is an int or a Fraction; a float would decide the
    # result, so it is refused like a float interval end
    call = _threshold_calls(lg5)[entry]
    call(F(1, 2))
    for bad in (0.5, "1/2"):
        with pytest.raises(TypeError):
            call(bad)
    # a threshold of 0 or below is a ComponentsError; a C of 0 or below
    # fails the C*delta precondition instead (a PreconditionError)
    for bad in (0, F(-1, 8)):
        with pytest.raises(ComponentsError) as err:
            call(bad)
        if entry != "check_union_bound C":
            assert str(err.value).endswith("must be positive, got %s" % bad)


@pytest.mark.parametrize("objects", [
    [(0,), (1, 5)],
    [(0,), (1, 5), (2, 0)],
    PointSet(((F(0), F(1)), (F(1), F(5), F(2)))),
    [Box((Interval(F(0), F(1)),)),
     Box((Interval(F(0), F(1)), Interval(F(2), F(3))))],
    [Box((Interval(F(0), F(1)),)), (F(2),)],
    [(F(2),), Box((Interval(F(0), F(1)),))],
], ids=["points", "three points", "point set", "boxes", "box then point",
        "point then box"])
@pytest.mark.parametrize("call", [
    delta_components, delta_components_sq, delta0_sequence_exists,
    delta0_sequence_exists_sq], ids=lambda f: f.__name__)
def test_mixed_objects_rejected(objects, call):
    # zipping coordinates would drop the extra ones and answer wrongly
    with pytest.raises(ComponentsError,
                       match="must all be boxes or all points, of one"):
        call(objects, 4)
