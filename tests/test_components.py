import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import sponge.components
import sponge.ifs
import sponge.tree
from sponge import (AffineMap1D, Analysis, Box, ComponentsError, FiberIFS,
                    IFSError, Interval, IntervalSet, PointSet,
                    PreconditionError, ResourceCapError, SimpleIFSFamily,
                    SpongeIFS, TreeError, approx_square, build_labeled_tree,
                    check_premoran_bound, check_product_decomposition,
                    check_union_bound, component_diameter_profile,
                    cylinder_box, delta0_sequence_exists,
                    delta0_sequence_exists_sq, delta_components,
                    delta_components_sq, enumerate_cylinders,
                    interval_components, last_coordinate_fibers, parse_ifs,
                    pre_moran_intervals, validate_lg)
from sponge.components import Runs, product_decompositions
from sponge.ifs import compose_scaled, scale_labels
from sponge.util import DEFAULT_CAP, DomainError

from conftest import (FIXTURES, class_and_rank, compose, major_projection,
                      random_column_system, random_lg_system, random_point_set,
                      random_simple_labels, reflect)


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


def _oracle_delta0_sequence(points, delta0_sq):
    """One breadth-first search per ordered pair (a, b) along steps of
    squared length <= delta0_sq * |a - b|^2: (found, sequence or None)."""
    pts = sorted(set(map(tuple, points)))
    n = len(pts)
    dist_sq = [[sum((x - y) ** 2 for x, y in zip(p, q)) for q in pts]
               for p in pts]
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            step_sq = delta0_sq * dist_sq[a][b]
            prev = {a: None}
            frontier = [a]
            while frontier and b not in prev:
                nxt = []
                for u in frontier:
                    for v in range(n):
                        if v not in prev and dist_sq[u][v] <= step_sq:
                            prev[v] = u
                            nxt.append(v)
                frontier = nxt
            if b in prev:
                path = []
                v = b
                while v is not None:
                    path.append(pts[v])
                    v = prev[v]
                return True, tuple(reversed(path))
    return False, None


@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_delta0_search_matches_bfs_oracle(seed, dim):
    # the single-linkage search finds a delta0-sequence exactly when some
    # ordered pair's breadth-first search does, and what it returns is one;
    # delta0^2 is a ratio of two squared distances of the set, so that
    # steps fall exactly on the threshold
    rng = random.Random(seed)
    pts = random_point_set(rng, dim=dim)
    dists = [sum((x - y) ** 2 for x, y in zip(p, q))
             for p, q in itertools.combinations(pts, 2)]
    # a sequence exists iff delta0 * M0 >= 1, M0^2 the largest squared
    # block diameter over threshold at a pairwise distance, as in
    # acceptance 03 (b): found at 1/M0^2, not just below it
    m0_sq = max(delta_components_sq(pts, d).max_diam_sq() / d
                for d in set(dists))
    assert delta0_sequence_exists_sq(pts, 1 / m0_sq)[0]
    assert delta0_sequence_exists_sq(pts, F(999999, 1000000) / m0_sq) == (
        False, None)
    delta0_sq = rng.choice(dists) / rng.choice(dists)
    found, seq = delta0_sequence_exists_sq(pts, delta0_sq)
    assert found == _oracle_delta0_sequence(pts, delta0_sq)[0]
    if not found:
        assert seq is None
        return
    assert len(seq) >= 2 and len(set(seq)) == len(seq)
    assert set(seq) <= set(pts)
    total_sq = sum((x - y) ** 2 for x, y in zip(seq[0], seq[-1]))
    for p, q in zip(seq, seq[1:]):
        assert sum((x - y) ** 2 for x, y in zip(p, q)) <= delta0_sq * total_sq


def _corners(ifs, depth):
    """The lo and hi corners of the depth-n cylinder boxes, as points."""
    return sorted({tuple(getattr(side, end) for side in box.sides)
                   for box in enumerate_cylinders(ifs, depth)
                   for end in ("lo", "hi")})


# M0^2 of the depth-3 cylinder corners, recorded from the per-pair search
# that merged the kernel to each pair's own threshold
@pytest.mark.parametrize("name, size, m0_sq", [
    ("lg5", 250, F(15625, 338)),
    ("bedford_mcmullen", 360, F(5756913, 69413)),
    ("lg4", 128, F(1053, 34)),
])
def test_delta0_search_on_fixture_corners(request, name, size, m0_sq):
    pts = _corners(request.getfixturevalue(name), 3)
    assert len(pts) == size
    found, seq = delta0_sequence_exists_sq(pts, 1 / m0_sq)
    assert found
    total_sq = sum((x - y) ** 2 for x, y in zip(seq[0], seq[-1]))
    assert all(sum((x - y) ** 2 for x, y in zip(p, q)) * m0_sq <= total_sq
               for p, q in zip(seq, seq[1:]))
    assert delta0_sequence_exists_sq(pts, F(999999, 1000000) / m0_sq) == (
        False, None)
    assert delta0_sequence_exists(pts, F(1, 100)) == (False, None)


@pytest.mark.parametrize("delta0, kept", [(F(1, 100), 0), (F(1, 4), 17338)])
def test_delta0_search_keeps_pairs_within_delta0_diagonal(
        monkeypatch, bedford_mcmullen, delta0, kept):
    # no block is wider than the bounding box's diagonal, so the kernel
    # keeps only the pairs within delta0 times it, not all 64,620
    sizes = []

    class Recording(sponge.components._SingleLinkage):
        def __init__(self, columns, grid_sq, *args):
            super().__init__(columns, grid_sq, *args)
            # the search asks for one threshold, so one bucket, which
            # holds gap, i, j for each pair
            sizes.append(len(self.buckets[0]) // 3)

    monkeypatch.setattr(sponge.components, "_SingleLinkage", Recording)
    pts = _corners(bedford_mcmullen, 3)
    # the brute-force count on integer coordinates
    den = lcm(*(x.denominator for p in pts for x in p))
    ints = [tuple(int(x * den) for x in p) for p in pts]
    limit = delta0 * delta0 * sum((max(c) - min(c)) ** 2 for c in zip(*ints))
    within = sum(sum((x - y) ** 2 for x, y in zip(p, q)) <= limit
                 for p, q in itertools.combinations(ints, 2))
    delta0_sequence_exists(pts, delta0)
    assert sizes == [within] == [kept]


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


# Recorded from the pair-loop kernel before the extent pruning, lg5 at
# depth 5 from the first-coordinate sweep before the axis choice, and
# bedford_mcmullen at depth 5 from the kernel that sorted every kept pair
# by gap; lg4 and lg5 have the same rows at depth 5 as at depth 4.  Each
# case runs on the grid of its own rows.
@pytest.mark.parametrize("name, depth, expected", [
    ("bedford_mcmullen", 4, [
        (F(1, 8), 2, F(394594, 390625), F(25254016, 390625)),
        (F(1, 16), 6, F(426346, 3515625), F(109144576, 3515625)),
        (F(1, 32), 12, F(392146, 3515625), F(401557504, 3515625)),
        (F(1, 64), 36, F(404314, 31640625), F(1656070144, 31640625)),
    ]),
    ("lg4", 5, [
        (F(1, 8), 4, F(5, 16), F(20)),
        (F(1, 16), 6, F(5, 32), F(40)),
        (F(1, 32), 10, F(17, 256), F(68)),
        (F(1, 64), 18, F(5, 288), F(640, 9)),
    ]),
    ("lg5", 5, [
        (F(1, 8), 5, F(29, 100), F(464, 25)),
        (F(1, 16), 11, F(5, 36), F(320, 9)),
        (F(1, 32), 32, F(17, 450), F(8704, 225)),
        (F(1, 64), 59, F(29, 3600), F(7424, 225)),
    ]),
    ("bedford_mcmullen", 5, [
        (F(1, 32), 12, F(9801346, 87890625), F(9801346 * 1024, 87890625)),
        (F(1, 64), 36, F(10087114, 791015625),
         F(10087114 * 4096, 791015625)),
    ]),
])
def test_profile_at_depth(request, name, depth, expected):
    grid = [row[0] for row in expected]
    rows = component_diameter_profile(request.getfixturevalue(name), depth,
                                      grid)
    assert [(r["delta"], r["num_components"], r["max_diam_sq"],
             r["ratio_sq"]) for r in rows] == expected


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


def test_family_members_are_offset_ordered_fiber_labels(lg5):
    from sponge import build_labeled_tree, fiber_ifs
    backwards = labels(("1/4", "3/4"), ("1/4", 0))
    assert SimpleIFSFamily([backwards]).members == (backwards[::-1],)
    tree = build_labeled_tree(lg5)
    fibers = [fiber_ifs(tree, v) for v in tree.levels[1]]
    fam = SimpleIFSFamily(fibers)
    assert all(m is f.labels for m, f in zip(fam.members, fibers))


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6))
def test_family_members_align_with_scaled(seed):
    # members given in any order come out in offset order, each label
    # beside its own integer step, and the constants read the fibers
    rng = random.Random(seed)
    members = [random_simple_labels(rng, tiling=False)
               for _ in range(rng.randint(1, 3))]
    fam = SimpleIFSFamily([rng.sample(m, len(m)) for m in members])
    assert fam.members == tuple(
        tuple(sorted(m, key=lambda g: g.offset)) for m in members)
    for member, (scale, steps) in zip(fam.members, fam.scaled):
        assert [(g.ratio * scale, g.offset * scale) for g in member] == \
            [(F(r), F(o)) for r, o in steps]
    assert fam.counts == tuple(map(len, members))
    assert fam.L_star == max(sum(g.ratio for g in m) for m in members)
    assert fam.alpha_star == min(g.ratio for m in members for g in m)


def test_family_tiling_verdict_is_attractor_is_unit_interval(monkeypatch):
    # the family asks attractor_is_unit_interval, and nothing else,
    # whether a member tiles
    gapped, tiling = labels(("1/4", 0), ("1/4", "3/4")), \
        labels(("1/2", 0), ("1/2", "1/2"))
    monkeypatch.setattr(sponge.components, "attractor_is_unit_interval",
                        lambda fiber: fiber.labels == gapped)
    with pytest.raises(PreconditionError, match="member 1 has attractor"):
        SimpleIFSFamily([gapped])
    assert SimpleIFSFamily([tiling]).members == (tiling,)


def test_family_scaled_is_each_fibers_own(lg5, bedford_mcmullen):
    # a fiber's labels are scaled once, by the FiberIFS itself
    for ifs in (lg5, bedford_mcmullen):
        fibers = last_coordinate_fibers(build_labeled_tree(ifs))
        fam = SimpleIFSFamily(fibers)
        assert all(fam.scaled[j] is f.scaled for j, f in enumerate(fibers))


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


def test_union_bound_one_set_of_one_point():
    # one set of one point: its kernel has one box and no pair to file
    assert check_union_bound([[(F(1, 3), F(2, 3))]], [F(1, 2), F(1, 4)], F(1))


def test_union_bound_two_singletons():
    assert check_union_bound([[(F(0),)], [(F(1),)]], [F("1/2")], F(1))
    assert check_union_bound([[(F(0),)], [(F(1),)]], [], F(1))


def test_union_bound_rejects_empty_input():
    for sets in ([], [[]], [[(F(0),)], []]):
        with pytest.raises(ComponentsError):
            check_union_bound(sets, [F("1/2")], F(1))


def test_union_bound_precondition_failure():
    pts = [(F(0),), (F("1/2"),), (F(1),)]
    with pytest.raises(PreconditionError):
        check_union_bound([pts], [F("1/2")], F("1/10"))
    # every delta is checked before any set is walked: a delta of 0 is
    # the error even after a delta at which the precondition fails
    with pytest.raises(ComponentsError, match="delta must be positive, got 0"):
        check_union_bound([pts], [F("1/2"), F(0)], F("1/10"))
    # no diameter is at most a negative C*delta, not even a point's 0
    for objects in ([(F(0),)], [Interval(F(0), F(0))]):
        with pytest.raises(PreconditionError, match="set 1 violates"):
            check_union_bound([objects], [F("1/2")], F(-1))


@pytest.mark.parametrize("grid, C, verdict", [
    ([F(1, 4)], F(1), True),
    ([F(1, 4)], F(1, 9), False),
    ([F(1, 2)], F(1, 9), None),  # set 1's points 1/2 apart join
])
def test_union_bound_takes_point_sets(grid, C, verdict):
    # a PointSet reads as its points, as in delta_components: each form
    # of the sets gives the list form's verdict
    sets = [[(F(k, 2),) for k in range(3)], [(F(1, 4),), (F(3, 4),)]]
    forms = (sets, [PointSet(tuple(s)) for s in sets],
             [PointSet(tuple(sets[0])), sets[1]])
    for form in forms:
        if verdict is None:
            with pytest.raises(PreconditionError, match="set 1 violates"):
                check_union_bound(form, grid, C)
        else:
            assert check_union_bound(form, grid, C) is verdict


def test_approx_square_lg5(lg5):
    sq = approx_square(lg5, (1,) * 6, F("1/10"))
    assert sq.depths == (3, 2)
    assert [(s.lo, s.hi) for s in sq.box.sides] == \
        [(F(0), F("1/27")), (F(0), F("1/36"))]
    # a word may be any iterable, read once
    assert approx_square(lg5, iter((1,) * 6), F("1/10")) == sq


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
        product = Fraction(1)
        for k, e in enumerate(word, start=1):
            product *= ifs.maps[e - 1].coords[j].ratio
            if product < delta:
                comp = compose(ifs.maps[w - 1].coords[j] for w in word[:k])
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
    Boxes: boxes from cylinder_box over major_projection, fiber intervals
    composed map by map.  The fibers are read through sponge.components,
    as the fast path reads them, each matched to its projected map by
    its owner."""
    proj = major_projection(ifs, ifs.dim - 1)
    tree = build_labeled_tree(ifs)
    fibers = {f.owner.projected_map: f.labels
              for f in sponge.components.last_coordinate_fibers(tree)}
    lhs = {cylinder_box(ifs, w)
           for w in itertools.product(range(1, ifs.size + 1), repeat=k)}
    rhs = set()
    for word in itertools.product(range(1, proj.size + 1), repeat=k):
        base = cylinder_box(proj, word).sides
        for gs in itertools.product(*(fibers[proj.maps[j - 1].coords]
                                      for j in word)):
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
    # several labels per last-coordinate fiber, tiling ones included
    for dim in (2, 3):
        systems += [random_column_system(rng, dim, tile_rank, max_children=2)
                    for tile_rank in (None, *range(dim))]
        systems += [random_column_system(rng, dim) for _ in range(2)]
    return systems


def test_product_decomposition_matches_box_oracle(lg5, lg4,
                                                  bedford_mcmullen):
    for ifs in _product_systems(lg5, lg4, bedford_mcmullen):
        for k in (1, 2, 3) if ifs.size <= 8 else (1, 2):
            assert check_product_decomposition(ifs, k) \
                == _oracle_product_decomposition(ifs, k), (ifs, k)


def test_product_decomposition_reads_projected_maps_from_the_fibers(
        monkeypatch, lg5, lg4, bedford_mcmullen):
    # the projected maps are the fibers' owners, so listing the fibers in
    # another order moves both sides together and the check still holds
    original = sponge.components.last_coordinate_fibers
    monkeypatch.setattr(sponge.components, "last_coordinate_fibers",
                        lambda tree: original(tree)[::-1])
    for ifs in _product_systems(lg5, lg4, bedford_mcmullen):
        for k in (1, 2):
            assert check_product_decomposition(ifs, k), (ifs, k)
            assert _oracle_product_decomposition(ifs, k), (ifs, k)


# the fibers' last-coordinate labels are over 4 and over 3, the full set
# over 12, so the two sides' denominators differ before scaling
MIXED_DENOMINATORS = ("dim 2\nmap 1/2 0 ; 1/4 0\nmap 1/2 0 ; 1/4 1/2\n"
                      "map 1/2 1/2 ; 1/3 0\nmap 1/2 1/2 ; 1/3 1/3\n")


def test_product_decomposition_across_fiber_denominators():
    ifs = parse_ifs(MIXED_DENOMINATORS)
    fibers = sponge.tree.last_coordinate_fibers(build_labeled_tree(ifs))
    last = [m.coords[-1] for m in ifs.maps]
    assert [scale_labels(f.labels)[0] for f in fibers] == [4, 3]
    assert scale_labels(last)[0] == 12
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


@settings(max_examples=30)
@given(st.integers(2, 3), st.integers(0, 10 ** 6), st.integers(-1, 2),
       st.integers(0, 2))
def test_reflection_keeps_the_component_profile(dim, seed, tile_rank, j):
    # x -> 1 - x on one coordinate is an isometry that maps the depth-n
    # cylinder boxes onto the reflected system's: every delta keeps its
    # component count and its exact max squared diameter
    ifs = random_column_system(random.Random(seed), dim,
                               tile_rank if 0 <= tile_rank < dim else None,
                               max_children=3 if dim == 2 else 2)
    deltas = [F(1, 4), F(1, 8), F(1, 16), F(1, 32)]

    def rows(system):
        return [(row["num_components"], row["max_diam_sq"])
                for row in component_diameter_profile(system, 2, deltas)]

    assert rows(reflect(ifs, j % dim)) == rows(ifs)


def _square(ifs):
    """F^2: the maps f o g, in word order, so that its depth-n cylinders
    are F's depth-2n ones."""
    return SpongeIFS(ifs.dim, tuple(compose([f, g]) for f in ifs.maps
                                    for g in ifs.maps))


@pytest.mark.parametrize("name", ["lg5", "bedford_mcmullen", "lg4"])
def test_iteration_keeps_the_verdict_and_the_profile(request, name):
    # F^2 has F's attractor, so its verdict, and its depth-n cylinders are
    # F's at depth 2n, so its profile rows; the LG gate is checked, not
    # assumed
    ifs = request.getfixturevalue(name)
    square = _square(ifs)
    assert validate_lg(square).lg_type
    assert class_and_rank(square) == class_and_rank(ifs)
    grid = [F(1, 8), F(1, 16), F(1, 32), F(1, 64)]
    for n in (1, 2):
        assert (component_diameter_profile(square, n, grid)
                == component_diameter_profile(ifs, 2 * n, grid))


@settings(max_examples=20)
@given(st.integers(2, 3), st.integers(0, 10 ** 6), st.integers(-1, 2))
def test_iteration_keeps_the_verdict_and_the_profile_rows(dim, seed,
                                                          tile_rank):
    ifs = random_column_system(random.Random(seed), dim,
                               tile_rank if 0 <= tile_rank < dim else None,
                               max_children=3 if dim == 2 else 2)
    square = _square(ifs)
    assert validate_lg(square).lg_type
    assert class_and_rank(square) == class_and_rank(ifs)
    grid = [F(1, 4), F(1, 8), F(1, 16), F(1, 32)]
    assert (component_diameter_profile(square, 1, grid)
            == component_diameter_profile(ifs, 2, grid))


def _per_depth_product_decomposition(ifs, k):
    """check_product_decomposition as one depth composed from scratch:
    each column of both sides' maps scaled and composed k levels at once,
    one compose_scaled of k levels per projected word for the fiber
    pre-Moran sets.  The oracle of the levels that product_decompositions
    shares across depths."""
    analysis = Analysis.of(ifs)
    ifs = analysis.ifs
    if ifs.dim < 2:
        raise ComponentsError("components: product decomposition needs d >= 2")
    scaled = sponge.components._scaled

    def columns(rows):
        return [compose_scaled([scale_labels(column)] * k)
                for column in zip(*rows)]

    lhs = columns(m.coords for m in ifs.maps)
    fibers = sponge.components.last_coordinate_fibers(analysis.tree)
    base = columns(f.owner.projected_map for f in fibers)
    last = [compose_scaled([fibers[j].scaled for j in reversed(word)])
            for word in itertools.product(range(len(fibers)), repeat=k)]
    scales = [lcm(a, b) for (a, _), (b, _) in zip(lhs, base)]
    scales.append(lcm(lhs[-1][0], *(den for den, _ in last)))
    left = set(zip(*(scaled(ends, den, s)
                     for (den, ends), s in zip(lhs, scales))))
    right = set()
    for sides, (den, ends) in zip(
            zip(*(scaled(ends, den, s)
                  for (den, ends), s in zip(base, scales))),
            last):
        right.update(sides + (iv,) for iv in scaled(ends, den, scales[-1]))
    return left == right


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc), str(exc)


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6), st.integers(2, 3), st.booleans(),
       st.integers(-1, 2))
def test_product_decompositions_match_per_depth_composition(seed, dim,
                                                            columns,
                                                            tile_rank):
    # depth k + 1 extends depth k's ends by one outer level; each depth
    # must equal the same depth composed from scratch
    rng = random.Random(seed)
    if columns:
        ifs = random_column_system(rng, dim, tile_rank if tile_rank < dim
                                   else None, max_children=2)
    else:
        ifs = random_lg_system(rng, dim=dim)
    depths = (1, 2, 3) if ifs.size <= 8 else (1, 2)
    want = _outcome(lambda: {k: _per_depth_product_decomposition(ifs, k)
                             for k in depths})
    assert _outcome(product_decompositions, ifs, depths) == want
    assert _outcome(lambda: {k: check_product_decomposition(ifs, k)
                             for k in depths}) == want


def test_product_decompositions_match_per_depth_on_a_dropped_label(
        monkeypatch, lg5, bedford_mcmullen):
    original = sponge.components.last_coordinate_fibers

    def tampered(tree):
        fibers = original(tree)
        k = next(i for i, f in enumerate(fibers) if f.size > 1)
        fibers[k] = FiberIFS(fibers[k].owner, fibers[k].labels[:-1])
        return fibers

    monkeypatch.setattr(sponge.components, "last_coordinate_fibers",
                        tampered)
    for ifs in (lg5, bedford_mcmullen, parse_ifs(MIXED_DENOMINATORS)):
        assert product_decompositions(ifs, (1, 2, 3)) == {
            k: _per_depth_product_decomposition(ifs, k) for k in (1, 2, 3)
        } == {1: False, 2: False, 3: False}


def test_product_decompositions_reads_only_the_depths_asked():
    ifs = parse_ifs(MIXED_DENOMINATORS)
    assert product_decompositions(ifs, (2, 0)) == {0: True, 2: True}
    assert product_decompositions(ifs, ()) == {}
    with pytest.raises(ComponentsError, match="depth must be >= 0"):
        check_product_decomposition(ifs, -1)
    # the cap counts the deepest depth's words, as the one-depth call does
    with pytest.raises(ResourceCapError) as both:
        product_decompositions(ifs, (1, 9), cap=1000)
    with pytest.raises(ResourceCapError) as one:
        check_product_decomposition(ifs, 9, cap=1000)
    assert str(both.value) == str(one.value)


@given(st.integers(0, 10 ** 6), st.integers(0, 3))
def test_enumerate_cylinders_matches_cylinder_box(seed, depth):
    ifs = random_lg_system(random.Random(seed))
    words = itertools.product(range(1, ifs.size + 1), repeat=depth)
    assert enumerate_cylinders(ifs, depth) == \
        [cylinder_box(ifs, w) for w in words]


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(0, 3),
       st.integers(1, 4))
@example(0, 1, 0, 1)
@example(0, 3, 3, 1)
def test_cylinder_levels_match_cylinder_box(seed, dim, depth, keep):
    # every level k <= n of the shared composition is cylinder_box, word by
    # word in lexicographic order; the first `keep` maps of an LG system
    # are an LG system, with one map when keep is 1
    ifs = random_lg_system(random.Random(seed), dim=dim)
    ifs = SpongeIFS(dim, ifs.maps[:keep])
    levels = sponge.components._cylinder_levels(
        [m.coords for m in ifs.maps], depth, DEFAULT_CAP)
    assert len(levels) == depth + 1
    for k, level in enumerate(levels):
        sides = [[Interval(F(lo, den), F(hi, den)) for lo, hi in ends]
                 for den, ends in level]
        words = itertools.product(range(1, ifs.size + 1), repeat=k)
        assert list(zip(*sides)) == [cylinder_box(ifs, w).sides
                                     for w in words]


def test_cylinder_levels_count_boundary(lg5):
    # the depth-n words are checked before any level is composed: a count
    # equal to cap passes, one past it raises, and a one-map system's
    # depth-n word counts n
    levels = sponge.components._cylinder_levels
    rows = [m.coords for m in lg5.maps]
    assert len(levels(rows, 3, 5 ** 3)) == 4
    with pytest.raises(ResourceCapError) as err:
        levels(rows, 3, 5 ** 3 - 1)
    assert err.value.requested == 5 ** 3
    assert len(levels(rows[:1], 7, 7)) == 8
    with pytest.raises(ResourceCapError) as err:
        levels(rows[:1], 7, 6)
    assert err.value.requested == 7


def test_product_decomposition_checks_the_cap_before_the_tree():
    # the tree of a system that is not LG raises TreeError; at depth 100
    # its 2^100 words are past the cap, which is checked first
    ifs = parse_ifs("dim 2\nmap 1/6 0 ; 1/3 0\nmap 1/6 1/2 ; 1/3 1/2\n")
    with pytest.raises(TreeError):
        check_product_decomposition(ifs, 1)
    with pytest.raises(ResourceCapError):
        check_product_decomposition(ifs, 100)


@pytest.mark.parametrize("fixture", sorted(
    path.stem for path in FIXTURES.glob("*.ifs")))
def test_product_decompositions_match_per_depth_on_fixtures(fixture):
    ifs = parse_ifs((FIXTURES / (fixture + ".ifs")).read_text())
    assert product_decompositions(ifs, (0, 1, 2, 3)) == {
        k: _per_depth_product_decomposition(ifs, k) for k in (0, 1, 2, 3)}


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


def _oracle_matrices(objects):
    """(dist_sq, far_sq): every pair's squared distance and squared max
    distance, as n x n Fraction matrices; a point is 0 from itself, and
    a box is its own diameter far from itself."""
    if isinstance(objects, PointSet):
        objects = objects.points
    objects = list(objects)
    if isinstance(objects[0], Box):
        return ([[_oracle_box_dist_sq(a, b) for b in objects] for a in objects],
                [[_oracle_box_far_sq(a, b) for b in objects] for a in objects])
    pts = [tuple(p) for p in objects]
    dist_sq = [[_oracle_point_dist_sq(p, q) for q in pts] for p in pts]
    return dist_sq, dist_sq


def _oracle_components_sq(objects, delta_sq, matrices=None):
    """(blocks, diam_sqs) of the closure of dist^2 <= delta_sq; `matrices`
    is the objects' _oracle_matrices, computed here when not given."""
    dist_sq, far_sq = matrices or _oracle_matrices(objects)
    n = len(dist_sq)
    uf = _OracleUnionFind(n)
    for i in range(n):
        for j in range(i + 1, n):
            if dist_sq[i][j] <= delta_sq:
                uf.union(i, j)
    groups = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    blocks = sorted(groups.values(), key=lambda b: b[0])
    return tuple(tuple(b) for b in blocks), tuple(
        max(far_sq[i][j] for a, i in enumerate(block) for j in block[a:])
        for block in blocks)


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


@st.composite
def box_layouts(draw, min_dim=1):
    """Up to 30 boxes in d = min_dim..3, each fresh, in an earlier box's
    first-coordinate range (a column, as in bedford_mcmullen) or nested
    in an earlier box.  Coordinate j's ends are k / den_j, k <= 12."""
    dens = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=min_dim,
                         max_size=3))
    boxes = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["fresh", "column", "nested"]))
        outer = draw(st.sampled_from(boxes)).sides if boxes else None
        sides = []
        for j, den in enumerate(dens):
            ends = [Fraction(k, den) for k in range(13)]
            if outer and kind == "column" and j == 0:
                sides.append(outer[0])
                continue
            if outer and kind == "nested":
                ends = [v for v in ends if outer[j].lo <= v <= outer[j].hi]
            sides.append(Interval(*sorted(draw(st.sampled_from(ends))
                                          for _ in range(2))))
        boxes.append(Box(tuple(sides)))
    return boxes


@settings(max_examples=40, deadline=None)
@given(box_layouts())
def test_single_linkage_stepwise_matches_oracle(boxes):
    # every distinct gap in ascending order, so each union of the kernel,
    # pruned or not, is checked against the oracle's max diameter, and
    # every partition on the way, with all its blocks; the oracle's
    # distances are computed once and answer every gap
    matrices = _oracle_matrices(boxes)
    gaps = sorted({d for k, row in enumerate(matrices[0]) for d in row[k + 1:]})
    grid = gaps or [F(1)]
    linkage = sponge.components._SingleLinkage(
        sponge.components._columns(boxes), grid)
    for k, delta_sq in enumerate(grid):
        linkage.merge_to(k)
        blocks, diam_sqs = _oracle_components_sq(boxes, delta_sq, matrices)
        assert linkage.count == len(blocks)
        assert linkage.max_diam_sq() == max(diam_sqs)
        part = linkage.partition(delta_sq)
        assert (part.blocks, part.diam_sqs) == (blocks, diam_sqs)


@settings(max_examples=40, deadline=None)
@given(box_layouts(), st.data())
def test_single_linkage_bucket_order_changes_nothing(boxes, data):
    # a coarse grid, its thresholds on gaps or between them, files pairs
    # of many gaps in one bucket; any order of each bucket gives the
    # oracle's count, max diameter and partition at its threshold
    matrices = _oracle_matrices(boxes)
    gaps = sorted({d for k, row in enumerate(matrices[0]) for d in row[k + 1:]})
    grid = sorted(set(data.draw(st.lists(st.sampled_from(
        [g * F(3, 2) for g in gaps] + gaps or [F(1)]), min_size=1,
        max_size=3))))
    linkage = sponge.components._SingleLinkage(
        sponge.components._columns(boxes), grid)
    for k, delta_sq in enumerate(grid):
        flat = iter(linkage.buckets[k])
        pairs = list(zip(flat, flat, flat))
        data.draw(st.randoms()).shuffle(pairs)
        linkage.buckets[k] = [x for pair in pairs for x in pair]
        linkage.merge_to(k)
        blocks, diam_sqs = _oracle_components_sq(boxes, delta_sq, matrices)
        assert linkage.count == len(blocks)
        assert linkage.max_diam_sq() == max(diam_sqs)
        part = linkage.partition(delta_sq)
        assert (part.blocks, part.diam_sqs) == (blocks, diam_sqs)


@settings(max_examples=40, deadline=None)
@given(box_layouts(min_dim=2), st.data())
def test_single_linkage_invariant_under_coordinate_permutation(boxes, data):
    # the swept axis follows the coordinates, the results must not: after
    # every merge_to up to a drawn largest gap, the kernel on permuted
    # coordinates has the same count, max diameter and partition
    perm = data.draw(st.permutations(range(boxes[0].dim)))
    permuted = [Box(tuple(b.sides[p] for p in perm)) for b in boxes]
    gaps = sorted({_oracle_box_dist_sq(a, b) for k, a in enumerate(boxes)
                   for b in boxes[k + 1:]}) or [F(1)]
    top = data.draw(st.sampled_from(gaps))
    grid = gaps[:gaps.index(top) + 1]
    kernels = [sponge.components._SingleLinkage(
        sponge.components._columns(layout), grid)
        for layout in (boxes, permuted)]
    for k, delta_sq in enumerate(grid):
        for linkage in kernels:
            linkage.merge_to(k)
        a, b = kernels
        assert (a.count, a.max_diam_sq()) == (b.count, b.max_diam_sq())
        assert a.partition(delta_sq) == b.partition(delta_sq)


def test_single_linkage_sweeps_the_axis_with_fewest_pairs():
    # a grid of 3 columns of 4 maps: at depth 2 each of the 9 columns
    # holds 16 boxes and shares its x-window, so y holds fewer pairs; the
    # transposed layout is rows and sweeps x, as does a tie
    grid = parse_ifs("dim 2\n" + "".join(
        "map 1/3 %d/3 ; 1/4 %d/4\n" % (c, r) for c in range(3)
        for r in range(4)))
    columns = enumerate_cylinders(grid, 2)
    rows = [Box(b.sides[::-1]) for b in columns]
    single = [Box((Interval(F(0), F(1)), Interval(F(0), F(1))))]
    assert [sponge.components._SingleLinkage(
        sponge.components._columns(layout), [F(1, 64)]).axis
        for layout in (columns, rows, single)] == [1, 0, 0]


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
    assert IntervalSet(1, []).gap_list() == (range(0), [], [], [], [])
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
    # labels in any order: the family puts each member's steps in offset
    # order, so the composed intervals come out sorted
    fam = SimpleIFSFamily([rng.sample(m, len(m)) for m in members])
    word = tuple(rng.randint(1, fam.size) for _ in range(length))
    assert list(pre_moran_intervals(fam, word).intervals) == \
        _oracle_pre_moran_intervals(fam, word)


def test_pre_moran_touching_images_given_right_to_left():
    # images that touch leave gaps of 0; labels come right to left, and a
    # one-label member composes too: the family's offset-ordered steps
    # still list each word's intervals by strictly increasing left end
    fam = SimpleIFSFamily([labels(("1/4", "1/4"), ("1/4", 0)),
                           labels(("1/3", "2/3"), ("1/6", "1/2"),
                                  ("1/6", "1/3")),
                           labels(("2/5", "3/5"))])
    for word in itertools.chain.from_iterable(
            itertools.product(range(1, 4), repeat=n) for n in range(1, 5)):
        iset = pre_moran_intervals(fam, word).intervals
        los = [lo for lo, _ in iset.ends]
        assert all(a < b for a, b in zip(los, los[1:]))
        assert isinstance(iset.gap_list()[0], range)
        assert list(iset) == _oracle_pre_moran_intervals(fam, word)
        for delta in (F(1, 1000), F(1, 10)):
            assert interval_components(iset, delta) == \
                _oracle_interval_components(list(iset), delta)


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


@given(st.data())
def test_a_set_answers_each_cut_as_a_fresh_set(data):
    # a set keeps its answer at each cut and one Fraction per block
    # length: in any order of asking, repeats included, every answer is
    # the oracle's and a fresh set's, and the set still reads as before;
    # tied gaps over den 6 repeat block lengths across cuts
    ivs = data.draw(st.one_of(interval_sets(), tied_gap_sets()))
    grid = data.draw(st.lists(interval_deltas(ivs), min_size=2, max_size=8))
    grid += data.draw(st.lists(st.sampled_from(grid), min_size=1, max_size=4))
    how = data.draw(st.sampled_from(["ascending", "descending", "shuffled"]))
    if how == "shuffled":
        grid = data.draw(st.permutations(grid))
    else:
        grid.sort(reverse=how == "descending")
    for ordered in (ivs, sorted(ivs, key=lambda iv: iv.lo)):
        iset = IntervalSet.of(ordered)
        for delta in grid:
            answer = interval_components(iset, delta)
            assert answer == _oracle_interval_components(ordered, delta)
            fresh = interval_components(IntervalSet.of(ordered), delta)
            assert answer == fresh
            assert type(answer[0]) is type(fresh[0])
        assert iset == IntervalSet.of(ordered) == tuple(ordered)
        assert hash(iset) == hash(IntervalSet.of(ordered))


def test_a_repeated_cut_returns_the_same_pair():
    # gaps 1/4, 1/2, 1/2 over den 4: 1/4 and 3/7 cut at the same place
    # (floor(12/7) = 1), in left-end order and shuffled alike
    for ends in ([(0, 1), (2, 3), (5, 6), (8, 9)],
                 [(5, 6), (0, 1), (8, 9), (2, 3)]):
        iset = IntervalSet(4, ends)
        apart = interval_components(iset, F(1, 5))
        first = interval_components(iset, F(1, 4))
        assert interval_components(iset, F(3, 7)) is first
        assert interval_components(iset, F(1, 5)) is apart
        assert interval_components(iset, F(1, 2)) is not first
        # each block length is one Fraction per set, met at any cut
        assert set(map(id, apart[1])) == {id(first[1][-1])}
        assert first[1].count(F(1, 4)) == 2


def test_runs_and_an_answered_set_read_as_before():
    iset = IntervalSet(4, [(0, 1), (2, 3), (5, 6)])
    blocks, _ = interval_components(iset, F(1, 4))
    assert (blocks.firsts, blocks.stops) == ((0, 2), (2, 3))
    fresh = IntervalSet(4, [(0, 1), (2, 3), (5, 6)])
    assert iset == fresh and hash(iset) == hash(fresh)
    assert repr(iset) == repr(fresh) and list(iset) == list(fresh)


@st.composite
def tied_gap_sets(draw):
    """Intervals over den 6, each starting 0, 1 or 2 sixths after the one
    before it ends, so gaps repeat; in left-end order or shuffled."""
    ivs, hi = [], 0
    for _ in range(draw(st.integers(1, 12))):
        lo = hi + draw(st.sampled_from([0, 1, 1, 2]))
        hi = lo + draw(st.integers(0, 2))
        ivs.append(Interval(F(lo, 6), F(hi, 6)))
    return draw(st.permutations(ivs)) if draw(st.booleans()) else ivs


@given(tied_gap_sets())
def test_tied_gaps_up_and_down_one_grid(ivs):
    # 1/6 and 1/3 are gaps, so they must not cut there; one set answers
    # the grid ascending, then descending
    grid = [F(k, 12) for k in range(1, 6)]
    iset = IntervalSet.of(ivs)
    for delta in grid + grid[::-1]:
        assert interval_components(iset, delta) == \
            _oracle_interval_components(ivs, delta)


@pytest.mark.parametrize("delta, blocks", [
    (F(1, 5), ((0,), (1,), (2,))),
    (F(1, 4), ((0, 1), (2,))),     # delta is the first gap
    (F(3, 7), ((0, 1), (2,))),     # delta * 4 = 12/7: its floor, 1, decides
    (F(1, 2), ((0, 1, 2),)),       # delta is the second gap
    (F(5, 9), ((0, 1, 2),)),
])
def test_interval_components_cut_only_above_delta(delta, blocks):
    # gaps of 1/4 and 1/2 over den 4: a gap equal to delta joins, and the
    # floor of delta * den (never its ceiling) is compared with the gaps
    iset = IntervalSet(4, [(0, 1), (2, 3), (5, 6)])
    assert interval_components(iset, delta)[0] == blocks
    assert interval_components(iset, delta) == \
        _oracle_interval_components(list(iset), delta)


def _assert_reads_as(blocks, eager):
    """blocks is a Runs that reads as the tuple eager in every way."""
    assert isinstance(blocks, Runs)
    assert eager == blocks and blocks == eager
    assert not (eager != blocks) and not (blocks != eager)
    assert hash(blocks) == hash(eager)
    assert len(blocks) == len(eager)
    for k in range(-len(eager), len(eager)):
        assert blocks[k] == eager[k]
    for cut in (slice(1, None), slice(None, -1), slice(None, None, -1)):
        assert blocks[cut] == eager[cut]
    assert tuple(blocks) == eager and list(blocks) == list(eager)
    assert repr(blocks) == repr(eager)
    assert blocks != list(eager) and blocks != eager + ((),)


def _fixed_family():
    return SimpleIFSFamily([labels(("1/4", 0), ("1/4", "3/4")),
                            labels(("1/3", 0), ("1/5", "1/2"),
                                   ("1/6", "5/6"))])


@given(st.data())
def test_interval_blocks_read_as_their_eager_tuple(data):
    # in left-end order the blocks are runs, read on demand; they must
    # read as the tuple of index tuples that they stand for
    ivs = sorted(data.draw(interval_sets()), key=lambda iv: iv.lo)
    delta = data.draw(interval_deltas(ivs))
    blocks, _ = interval_components(ivs, delta)
    _assert_reads_as(blocks, tuple(map(tuple, map(range, blocks.firsts,
                                                  blocks.stops))))
    _assert_reads_as(blocks, delta_components(
        [Box((iv,)) for iv in ivs], delta).blocks)


def test_pre_moran_blocks_read_as_their_eager_tuple():
    fam = _fixed_family()
    for word in itertools.chain.from_iterable(
            itertools.product(range(1, 3), repeat=n) for n in range(1, 4)):
        ivs = pre_moran_intervals(fam, word).intervals
        for delta in (F(1, 2 ** k) for k in range(6)):
            blocks, _ = interval_components(ivs, delta)
            _assert_reads_as(blocks, delta_components(
                [Box((iv,)) for iv in ivs], delta).blocks)


@given(interval_sets())
@example([Interval(F(0), F(4)), Interval(F(1), F(2)), Interval(F(3), F(5))])
@example([Interval(F(0), F(1)), Interval(F(0), F(1)), Interval(F(2), F(3))])
def test_gap_list_reach_is_the_running_maximum(ivs):
    # right ends that already ascend (duplicates too) are taken as they
    # are; a nested interval needs the running maximum
    for ordered in (ivs, sorted(ivs, key=lambda iv: iv.lo)):
        iset = IntervalSet.of(ordered)
        order, _, reach, _, _ = iset.gap_list()
        his = [iset.ends[i][1] for i in order]
        assert reach == list(itertools.accumulate(his, max))


def test_premoran_checks_read_no_block(monkeypatch):
    # every 1-D caller keeps only the diameters: with the blocks' tuples
    # made unreadable, the pre-Moran bound and the acceptance-04 loop
    # still run to the end
    def unread(self):
        raise AssertionError("a block was read")

    monkeypatch.setattr(Runs, "blocks", property(unread))
    fam = _fixed_family()
    grid = [F(1, 2 ** k) for k in range(6)]
    words = [()]
    for _ in range(5):
        words = [w + (i,) for w in words for i in range(1, fam.size + 1)]
        for word in words:
            if len(word) <= 4:
                for delta in grid:
                    report = check_premoran_bound(fam, word, delta)
                    assert report.holds or not report.admissible
            pm = pre_moran_intervals(fam, word)
            threshold = fam.g_star / fam.alpha_star
            for i in word:
                threshold *= fam.betas[i - 1]
            for delta in grid:
                if delta >= threshold:
                    _, diams = interval_components(pm.intervals, delta)
                    assert max(diams) <= (2 / (fam.g_star * fam.alpha_star)
                                          + 1) * delta
    with pytest.raises(AssertionError, match="a block was read"):
        list(interval_components(pm.intervals, F(1))[0])


def test_interval_set_rejects_reversed_ends():
    # one check, one message, for Fraction and for integer ends
    for reversed_ends in (lambda: IntervalSet(4, [(0, 1), (3, 2)]),
                          lambda: Interval(F(3, 4), F(1, 2))):
        with pytest.raises(IFSError, match=r"^ifs: interval with lo > hi$"):
            reversed_ends()
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
    # against another IntervalSet, over its own denominator or another
    doubled = IntervalSet(2 * ivs.den,
                          [(2 * lo, 2 * hi) for lo, hi in ivs.ends])
    assert ivs == IntervalSet.of(expected) and ivs == doubled
    assert ivs != IntervalSet.of(expected[:3])
    assert repr(IntervalSet(4, [(0, 1), (2, 4)])) == \
        "IntervalSet(4, ((0, 1), (2, 4)))"


def test_pre_moran_components_build_no_intervals(monkeypatch):
    # a pre-Moran set stays integer from composition to components
    fam = _fixed_family()
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
    # cylinder sides go from compose_scaled to the kernel as integers;
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


def _oracle_union_bound(sets, grid, C):
    """None when some set has a delta-component wider than C * delta at a
    delta of the grid; otherwise whether no delta-component of the union
    is wider than (9C)^(2^(n-1))/9 * delta.  Widths are compared squared."""
    def widest_sq(objects, delta):
        if isinstance(objects[0], Interval):
            return max(_oracle_interval_components(objects, delta)[1]) ** 2
        return max(_oracle_components_sq(objects, delta * delta)[1])

    if any(widest_sq(s, d) > (C * d) ** 2 for s in sets for d in grid):
        return None
    M = (9 * C) ** (2 ** (len(sets) - 1)) / 9
    union = [x for s in sets for x in s]
    return all(widest_sq(union, d) <= (M * d) ** 2 for d in grid)


@st.composite
def union_bound_inputs(draw):
    """One to three sets, of Intervals or of points in one of d = 1..3, or
    n interleaved point sets on a line (set k holds (n*i + k)/4, so its
    points are n/4 apart and the union's 1/4); a grid with repeats, out
    of order; and a positive C, half the time below 1 (below 1/9 the
    union's constant (9C)^(2^(n-1))/9 is below C itself)."""
    kind = draw(st.sampled_from(["intervals", "points", "interleaved"]))
    if kind == "intervals":
        sets = draw(st.lists(interval_sets(), min_size=1, max_size=3))
    elif kind == "points":
        point = st.tuples(*[rationals] * draw(st.integers(1, 3)))
        sets = draw(st.lists(st.lists(point, min_size=1, max_size=5),
                             min_size=1, max_size=3))
    else:
        n = draw(st.integers(2, 3))
        sets = [[(F(n * i + k, 4),) for i in range(draw(st.integers(1, 4)))]
                for k in range(n)]
    delta = st.builds(Fraction, st.integers(1, 24), st.integers(1, 12))
    grid = draw(st.lists(delta, min_size=1, max_size=4))
    repeats = draw(st.lists(st.sampled_from(grid), max_size=2))
    grid = draw(st.permutations(grid + repeats))
    C = draw(st.builds(Fraction, st.integers(1, 8), st.integers(9, 72))
             | st.builds(Fraction, st.integers(1, 400), st.integers(1, 8)))
    return sets, grid, C


@settings(max_examples=150)
@given(union_bound_inputs())
def test_union_bound_matches_oracle(inputs):
    sets, grid, C = inputs
    expected = _oracle_union_bound(sets, grid, C)
    if expected is None:
        with pytest.raises(PreconditionError):
            check_union_bound(sets, grid, C)
    else:
        assert check_union_bound(sets, grid, C) == expected


def test_pre_moran_sets_scale_no_family_again(monkeypatch, lg5):
    # scale_labels scales each member from its labels' integer forms,
    # made when the labels were: no word rescales a family member
    fam = SimpleIFSFamily(last_coordinate_fibers(build_labeled_tree(lg5)))
    calls = []
    for module in (sponge.ifs, sponge.components):
        original = module.common_denominator

        def counting(values, original=original):
            calls.append(None)
            return original(values)

        monkeypatch.setattr(module, "common_denominator", counting)
    words = [w for n in range(1, 5)
             for w in itertools.product(range(1, fam.size + 1), repeat=n)]
    sets = [pre_moran_intervals(fam, w).intervals for w in words]
    assert sum(map(len, sets)) > len(words)
    assert calls == []


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


_MIXED = {
    "points": [(0,), (1, 5)],
    "three points": [(0,), (1, 5), (2, 0)],
    "point set": PointSet(((F(0), F(1)), (F(1), F(5), F(2)))),
    "boxes": [Box((Interval(F(0), F(1)),)),
              Box((Interval(F(0), F(1)), Interval(F(2), F(3))))],
    "box then point": [Box((Interval(F(0), F(1)),)), (F(2),)],
    "point then box": [(F(2),), Box((Interval(F(0), F(1)),))],
}
_DELTA0_CALLS = [delta0_sequence_exists, delta0_sequence_exists_sq]


@pytest.mark.parametrize("call, objects, match", [
    pytest.param(call, objects, "must all be boxes or all points, of one",
                 id="%s-%s" % (call.__name__, name))
    for call in [delta_components, delta_components_sq] + _DELTA0_CALLS
    for name, objects in _MIXED.items()
] + [
    # boxes of one dimension are fine for delta-components, not for the
    # delta0 search, whose sequences are sequences of points
    pytest.param(call, [Box((Interval(F(0), F(1)),)),
                        Box((Interval(F(2), F(3)),))],
                 "the delta0 search takes points",
                 id="%s-boxes of one dimension" % call.__name__)
    for call in _DELTA0_CALLS
])
def test_mixed_objects_rejected(call, objects, match):
    # zipping coordinates would drop the extra ones and answer wrongly
    with pytest.raises(ComponentsError, match=match):
        call(objects, 4)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: SimpleIFSFamily([]), "empty family",
                 id="empty family"),
    pytest.param(lambda: delta_components_sq([], 1), "empty object list",
                 id="no objects"),
    pytest.param(lambda: check_product_decomposition(
        parse_ifs("dim 1\nmap 1/3 0\nmap 1/3 2/3\n"), 1), "needs d >= 2",
        id="1-D product decomposition"),
])
def test_components_errors(call, match):
    with pytest.raises(ComponentsError, match=match):
        call()
