import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import sponge.tree
from sponge import (AffineMap1D, Box, DiagonalAffineMap, FiberIFS, SpongeIFS,
                    TreeError, ValidationReport, Vertex,
                    attractor_is_unit_interval, build_labeled_tree,
                    cylinder_box, fiber_ifs, last_coordinate_fibers,
                    parse_ifs, validate_lg)
from sponge.ifs import scale_labels, truncations
from sponge.tree import ROOT

from conftest import (load_fixture, major_projection, random_column_system,
                      random_lg_system, random_simple_labels)


def F(s):
    return Fraction(s)


def test_levels_lg5(lg5):
    tree = build_labeled_tree(lg5)
    assert [len(level) for level in tree.levels] == [1, 2, 5]


def test_levels_lg4(lg4):
    tree = build_labeled_tree(lg4)
    assert [len(level) for level in tree.levels] == [1, 4, 4]
    for vertex in tree.levels[1]:
        assert fiber_ifs(tree, vertex).size == 1


def test_levels_1d():
    ifs = parse_ifs("dim 1\nmap 1/3 0\nmap 1/3 2/3")
    tree = build_labeled_tree(ifs)
    assert [len(level) for level in tree.levels] == [1, 2]


def test_rejects_non_lg():
    ifs = parse_ifs("dim 2\nmap 1/6 0 ; 1/3 0")
    with pytest.raises(TreeError):
        build_labeled_tree(ifs)


def test_fiber_lg5(lg5):
    tree = build_labeled_tree(lg5)
    v_third = Vertex(1, (AffineMap1D(F("1/3"), F(0)),))
    fib = fiber_ifs(tree, v_third)
    assert set(fib.labels) == {AffineMap1D(F("1/6"), F(0)),
                               AffineMap1D(F("1/10"), F("1/2"))}
    v_half = Vertex(1, (AffineMap1D(F("1/2"), F("1/2")),))
    fib = fiber_ifs(tree, v_half)
    assert set(fib.labels) == {AffineMap1D(F("1/5"), F(0)),
                               AffineMap1D(F("1/5"), F("2/5")),
                               AffineMap1D(F("1/5"), F("4/5"))}


def test_root_fiber_lg4(lg4):
    tree = build_labeled_tree(lg4)
    fib = fiber_ifs(tree, tree.levels[0][0])
    assert set(fib.labels) == {AffineMap1D(F("1/4"), F(0)),
                               AffineMap1D(F("1/2"), F("1/4")),
                               AffineMap1D(F("1/12"), F("3/4")),
                               AffineMap1D(F("1/6"), F("5/6"))}


def test_fiber_of_leaf_rejected(lg5):
    tree = build_labeled_tree(lg5)
    with pytest.raises(TreeError):
        fiber_ifs(tree, tree.levels[2][0])


def test_all_fiber_counts(lg5, lg4):
    assert len(build_labeled_tree(lg5).fibers) == 3
    assert len(build_labeled_tree(lg4).fibers) == 5
    one_d = parse_ifs("dim 1\nmap 1/3 0\nmap 1/3 2/3")
    assert len(build_labeled_tree(one_d).fibers) == 1


def test_fiber_nonoverlap_and_measure(lg5, lg4):
    for ifs in (lg5, lg4):
        for fib in build_labeled_tree(ifs).fibers.values():
            images = sorted((g.image() for g in fib.labels),
                            key=lambda iv: iv.lo)
            for a, b in zip(images, images[1:]):
                assert a.hi <= b.lo
            assert fib.ratio_sum() <= 1


def test_reconstruction(lg5, lg4):
    for ifs in (lg5, lg4):
        tree = build_labeled_tree(ifs)
        seen = []

        def walk(vertex, labels):
            if vertex.rank == ifs.dim:
                seen.append(DiagonalAffineMap(tuple(labels)))
                return
            for label, child in tree.children(vertex):
                walk(child, labels + [label])

        walk(tree.levels[0][0], [])
        assert sorted(seen, key=str) == sorted(ifs.maps, key=str)


def test_level_sizes_match_projections(lg5, lg4):
    for ifs in (lg5, lg4):
        tree = build_labeled_tree(ifs)
        for ell in range(1, ifs.dim + 1):
            assert len(tree.levels[ell]) == major_projection(ifs, ell).size


def test_fiber_labels_sorted_left_to_right(lg5):
    tree = build_labeled_tree(lg5)
    for fib in tree.fibers.values():
        lows = [g.image().lo for g in fib.labels]
        assert lows == sorted(lows)


def test_fiber_lookups_return_the_tree_fibers(lg5, lg4):
    for ifs in (lg5, lg4):
        tree = build_labeled_tree(ifs)
        for fib in [*tree.fibers.values(), *last_coordinate_fibers(tree)]:
            assert fib is tree.fibers[fib.owner]
            assert fiber_ifs(tree, fib.owner) is fib


def test_vertex_not_in_tree_rejected(lg5):
    tree = build_labeled_tree(lg5)
    with pytest.raises(TreeError, match="not in tree"):
        fiber_ifs(tree, Vertex(1, (AffineMap1D(F("1/7"), F(0)),)))


def test_vertex_rank_must_match_its_maps():
    with pytest.raises(TreeError, match="rank/coefficient mismatch"):
        Vertex(1, ())


# Oracles: the constructions the labeled tree and FiberIFS.gaps replaced.

def _oracle_children(ifs):
    """One (parent, label) -> child edge per major-projection map, inverted
    per parent and sorted by the left end of each label's image."""
    edges = {}
    for ell in range(1, ifs.dim + 1):
        for m in major_projection(ifs, ell).maps:
            edges[(Vertex(ell - 1, m.coords[:-1]), m.coords[-1])] = \
                Vertex(ell, m.coords)
    children = {}
    for (parent, label), child in edges.items():
        children.setdefault(parent, []).append((label, child))
    for kids in children.values():
        kids.sort(key=lambda lc: lc[0].image().lo)
    return children


def _oracle_tiles(labels):
    """The sorted scan attractor_is_unit_interval used to run."""
    images = sorted((g.image() for g in labels), key=lambda iv: iv.lo)
    if images[0].lo != 0 or images[-1].hi != 1:
        return False
    for a, b in zip(images, images[1:]):
        if a.hi != b.lo:
            return False
    return True


def _oracle_biggest_gap(labels):
    """SimpleIFSFamily's former biggest-gap scan."""
    images = sorted((g.image() for g in labels), key=lambda iv: iv.lo)
    best = images[0].lo
    for a, b in zip(images, images[1:]):
        best = max(best, b.lo - a.hi)
    best = max(best, 1 - images[-1].hi)
    return best


def _tree_inputs(lg5, lg4, bedford_mcmullen):
    rng = random.Random(61)
    systems = [lg5, lg4, bedford_mcmullen, parse_ifs(
        "dim 3\nmap 1/2 0 ; 1/3 0 ; 1/4 0\nmap 1/2 0 ; 1/3 1/3 ; 1/4 1/2\n"
        "map 1/2 1/2 ; 1/3 0 ; 1/4 0\nmap 1/2 0 ; 1/3 2/3 ; 1/4 1/4\n")]
    systems += [random_lg_system(rng) for _ in range(12)]
    return [ifs for ifs in systems if validate_lg(ifs).lg_type], rng


def test_tree_matches_edge_inversion_oracle(lg5, lg4, bedford_mcmullen):
    systems, _ = _tree_inputs(lg5, lg4, bedford_mcmullen)
    assert len(systems) >= 10
    for ifs in systems:
        tree = build_labeled_tree(ifs)
        for ell in range(1, ifs.dim + 1):
            assert tree.levels[ell] == tuple(
                Vertex(ell, m.coords) for m in major_projection(ifs, ell).maps)
        oracle = _oracle_children(ifs)
        assert set(tree.fibers) == set(oracle)
        for v, kids in oracle.items():
            assert tree.children(v) == tuple(kids)
            fib = FiberIFS(v, [label for label, _ in kids])
            assert tree.fibers[v].labels == fib.labels
            assert tree.fibers[v].gaps == fib.gaps


def test_tree_invariant_under_map_permutation(lg5, lg4, bedford_mcmullen):
    systems, rng = _tree_inputs(lg5, lg4, bedford_mcmullen)
    for ifs in systems:
        base = build_labeled_tree(ifs)
        for _ in range(4):
            perm = rng.sample(range(ifs.size), ifs.size)
            tree = build_labeled_tree(
                SpongeIFS(ifs.dim, tuple(ifs.maps[i] for i in perm)))
            assert [set(level) for level in tree.levels] == \
                [set(level) for level in base.levels]
            assert {v: fib.labels for v, fib in tree.fibers.items()} == \
                {v: fib.labels for v, fib in base.fibers.items()}


@st.composite
def unit_labels(draw):
    """Self-maps of [0,1] over a small denominator, so that images often
    overlap, nest, touch or tile."""
    q = draw(st.integers(2, 8))
    out = []
    for _ in range(draw(st.integers(1, 5))):
        r = draw(st.integers(1, q - 1))
        out.append(AffineMap1D(Fraction(r, q),
                               Fraction(draw(st.integers(0, q - r)), q)))
    return tuple(out)


def _maps(*pairs):
    return tuple(AffineMap1D(F(r), F(o)) for r, o in pairs)


def _open_overlap(a, b):
    """Do the interiors of two Intervals, or of two Boxes side by side,
    meet?"""
    if isinstance(a, Box):
        return all(map(_open_overlap, a.sides, b.sides))
    return max(a.lo, b.lo) < min(a.hi, b.hi)


@given(unit_labels())
@example(_maps(("1/2", "1/2"), ("1/2", 0)))                # tiles
@example(_maps(("1/4", 0), ("1/4", "1/4"), ("1/4", "3/4")))  # touching
@example(_maps(("1/2", 0), ("1/4", "1/8")))                # nested
@example(_maps(("3/5", 0), ("1/10", "1/10"), ("2/5", "3/5")))  # covers
def test_fiber_gaps_match_pairwise_and_scan_oracles(labels):
    images = [g.image() for g in labels]
    overlap = any(_open_overlap(a, b)
                  for k, a in enumerate(images) for b in images[k + 1:])
    if overlap:
        with pytest.raises(TreeError, match="overlap"):
            FiberIFS(Vertex(0, ()), labels)
        return
    fib = FiberIFS(Vertex(0, ()), labels)
    assert len(fib.gaps) == len(labels) + 1
    assert min(fib.gaps) >= 0
    assert attractor_is_unit_interval(fib) == _oracle_tiles(labels)
    assert Fraction(max(fib.gaps), fib.scaled[0]) == \
        _oracle_biggest_gap(labels)


@pytest.mark.parametrize("fixture", ["lg5", "lg4", "bedford_mcmullen"])
def test_tree_hashes_no_fraction(monkeypatch, fixture):
    # Vertex, label-tuple and truncated-map keys hash through each map's
    # hash, taken once from its integer form; no Fraction is hashed
    ifs = load_fixture(fixture + ".ifs")
    calls = []
    original = Fraction.__hash__

    def counting(self):
        calls.append(None)
        return original(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    tree = build_labeled_tree(ifs)
    assert len(tree.levels) == ifs.dim + 1
    assert calls == []


@st.composite
def unit_systems(draw):
    """Distinct self-maps of the unit cube in d = 1..3 over one small
    denominator, so that cylinders often overlap or touch."""
    dim = draw(st.integers(1, 3))
    q = draw(st.integers(2, 4))
    maps = {}
    for _ in range(draw(st.integers(1, 5))):
        coords = []
        for _ in range(dim):
            r = draw(st.integers(1, q - 1))
            coords.append(AffineMap1D(Fraction(r, q),
                                      Fraction(draw(st.integers(0, q - r)), q)))
        maps[DiagonalAffineMap(tuple(coords))] = None
    return SpongeIFS(dim, tuple(maps))


def _fibers_do_not_overlap(ifs):
    """Oracle: at every rank the truncations, grouped by their parent
    truncation, give fibers that build without TreeError."""
    for ell in range(1, ifs.dim + 1):
        fibers = {}
        for m in major_projection(ifs, ell).maps:
            fibers.setdefault(m.coords[:-1], []).append(m.coords[-1])
        for parent, labels in fibers.items():
            try:
                FiberIFS(Vertex(ell - 1, parent), labels)
            except TreeError:
                return False
    return True


def _system(*rows):
    return SpongeIFS(len(rows[0]), tuple(
        DiagonalAffineMap(_maps(*row)) for row in rows))


@settings(max_examples=300)
@given(unit_systems())
@example(_system([("1/2", 0), ("1/2", 0)], [("1/2", "1/2"), ("1/2", 0)],
                 [("1/2", "1/2"), ("1/2", "1/2")]))      # touching
@example(_system([("1/2", 0), ("1/2", 0)],
                 [("1/2", 0), ("1/2", "1/4")]))          # one parent
@example(_system([("1/2", 0), ("1/4", 0)],
                 [("1/2", "1/4"), ("1/4", "3/4")]))      # two parents
def test_neat_projection_iff_fibers_do_not_overlap(ifs):
    # two rank-l cylinders with one parent overlap iff their fiber images
    # do; with different parents, only if the parents' cylinders do.  This
    # is the exact oracle for taking validate_lg's check from the fibers
    assert validate_lg(ifs).neat_projection_ok == _fibers_do_not_overlap(ifs)


def _oracle_validate_lg(ifs):
    """validate_lg as a loop over Fractions and the major projections:
    per map its unit-cube and ordering violations, then for each rank ell
    the cylinder box of every projected map and every pair of them."""
    unit, ordering, neat = [], [], []
    violations = []
    for k, m in enumerate(ifs.maps, start=1):
        for i, c in enumerate(m.coords, start=1):
            if not (0 <= c.offset and c.offset + c.ratio <= 1):
                unit.append(("unit_cube", (k, i)))
                violations.append(unit[-1])
        for i in range(1, ifs.dim):
            if not m.coords[i - 1].ratio > m.coords[i].ratio:
                ordering.append(("coordinate_ordering", (k, i)))
                violations.append(ordering[-1])
    for ell in range(1, ifs.dim + 1):
        proj = major_projection(ifs, ell)
        boxes = [cylinder_box(proj, (j,)) for j in range(1, proj.size + 1)]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if _open_overlap(boxes[i], boxes[j]):
                    neat.append(("neat_projection", (i + 1, j + 1, ell)))
    return ValidationReport(not unit, not ordering, not neat,
                            tuple(violations + neat))


@settings(max_examples=300)
@given(unit_systems())
@example(_system([("1/2", "3/4"), ("1/4", 0)],
                 [("1/2", 0), ("1/2", 0)]))              # unit cube, ordering
@example(_system([("1/2", 0), ("1/4", 0)], [("1/2", 0), ("1/4", "1/2")],
                 [("1/2", "1/4"), ("1/4", "1/8")]))      # two ranks
def test_validate_lg_matches_projection_oracle(ifs):
    assert validate_lg(ifs) == _oracle_validate_lg(ifs)


def test_neat_projection_violations_at_two_ranks():
    # maps 1 and 2 share their first coordinate, so the rank-1 projection
    # has two maps and map 3 is its second
    ifs = _system([("1/2", 0), ("1/4", 0)], [("1/2", 0), ("1/4", "1/2")],
                  [("1/2", "1/4"), ("1/4", "1/8")])
    report = validate_lg(ifs)
    assert report.violations == (("neat_projection", (1, 2, 1)),
                                 ("neat_projection", (1, 3, 2)))
    assert (report.unit_cube_ok, report.coordinate_ordering_ok,
            report.neat_projection_ok) == (True, True, False)
    assert report == _oracle_validate_lg(ifs)


@settings(max_examples=60)
@given(st.integers(1, 3), st.integers(0, 10 ** 6), st.booleans())
def test_one_truncation_order(dim, seed, columns):
    # the tree's levels, the major projections and the LG gate's
    # projected maps all come from truncations: first occurrence first,
    # each mapped to the index of its first map
    rng = random.Random(seed)
    ifs = (random_column_system(rng, dim) if columns
           else random_lg_system(rng, dim))
    tree = build_labeled_tree(ifs)
    for ell in range(1, dim + 1):
        firsts = truncations(ifs, ell)
        oracle = {}
        for k, m in enumerate(ifs.maps):
            if m.coords[:ell] not in oracle:
                oracle[m.coords[:ell]] = k
        assert list(firsts.items()) == list(oracle.items())
        assert list(firsts) == [v.projected_map for v in tree.levels[ell]]
        assert list(firsts) == [m.coords
                                for m in major_projection(ifs, ell).maps]


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6))
def test_fiber_scaled_is_offset_ordered_scale_labels(seed):
    # the one integer form of a fiber: its labels over the lcm of their
    # denominators; labels and steps both in offset order, step k being
    # label k's, whatever the order the labels come in
    rng = random.Random(seed)
    labels = list(random_simple_labels(rng))
    rng.shuffle(labels)
    fib = FiberIFS(ROOT, labels)
    ordered = sorted(labels, key=lambda g: g.offset)
    scale, steps = scale_labels(ordered)
    assert fib.labels == tuple(ordered)
    assert fib.scaled == (scale, tuple(steps))
    oracle = [(g.ratio * scale, g.offset * scale) for g in ordered]
    assert [(Fraction(r), Fraction(o)) for r, o in fib.scaled[1]] == oracle
    assert scale == math.lcm(*(x.denominator for g in labels
                               for x in (g.ratio, g.offset)))


@settings(max_examples=40)
@given(st.integers(2, 3), st.integers(0, 10 ** 6))
def test_tree_leaves_the_offset_order_to_the_fiber(dim, seed):
    # the tree hands each fiber its labels in truncation order, and only
    # FiberIFS puts them in offset order
    given_labels = {}

    def recording(owner, labels):
        given_labels[owner] = tuple(labels)
        return FiberIFS(owner, labels)

    ifs = random_column_system(random.Random(seed), dim)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sponge.tree, "FiberIFS", recording)
        tree = build_labeled_tree(ifs)
    for ell in range(1, dim + 1):
        for u in tree.levels[ell - 1]:
            labels = tuple(v.projected_map[-1] for v in tree.levels[ell]
                           if v.projected_map[:-1] == u.projected_map)
            assert given_labels[u] == labels
            assert tree.fibers[u].labels == tuple(
                sorted(labels, key=lambda g: g.offset))
