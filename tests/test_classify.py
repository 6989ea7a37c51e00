import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import sponge.cantor
from sponge import (AT_LEAST_ONE, EXACTLY_ONE, ZERO, AffineMap1D, Analysis,
                    CantorError, ClassifyError, DiagonalAffineMap, FiberIFS,
                    SpongeIFS,
                    TreeError, Vertex, analyze_special_system,
                    attractor_is_unit_interval, build_labeled_tree,
                    check_product_decomposition, classify,
                    enumerate_cylinders, extract_special_subsystem, fiber_ifs,
                    line_segment_witness, parse_ifs, validate_lg)

from conftest import (class_and_rank, load_fixture, random_column_system,
                      random_lg_system, random_special_system, reflect)


def F(s):
    return Fraction(s)


def labels(*pairs):
    return tuple(AffineMap1D(F(r), F(o)) for r, o in pairs)


ROOT = Vertex(0, ())


def test_tiling_lg4_root():
    fib = FiberIFS(ROOT, labels(("1/4", 0), ("1/2", "1/4"),
                                ("1/12", "3/4"), ("1/6", "5/6")))
    assert attractor_is_unit_interval(fib)


def test_non_tiling_lg5_fiber():
    fib = FiberIFS(ROOT, labels(("1/5", 0), ("1/5", "2/5"), ("1/5", "4/5")))
    assert not attractor_is_unit_interval(fib)


def test_two_halves_tile():
    fib = FiberIFS(ROOT, labels(("1/2", 0), ("1/2", "1/2")))
    assert attractor_is_unit_interval(fib)


def test_classify_lg5(lg5):
    result = classify(lg5)
    assert result.uniformly_disconnected
    assert result.conformal_dim_class == "Zero"
    assert result.witness is None
    sums = sorted(v.ratio_sum for v in result.fiber_report)
    assert sums == [F("4/15"), F("3/5"), F("5/6")]
    assert not any(v.tiles for v in result.fiber_report)


def test_classify_lg4(lg4):
    result = classify(lg4)
    assert not result.uniformly_disconnected
    assert result.conformal_dim_class == "ExactlyOne"
    assert result.witness == ROOT


def test_classify_1d_tiling():
    ifs = parse_ifs("dim 1\nmap 1/2 0\nmap 1/2 1/2")
    result = classify(ifs)
    assert not result.uniformly_disconnected
    assert result.witness == ROOT


def test_line_segment_witness():
    ifs = parse_ifs("dim 2\nmap 1/2 0 ; 1/3 0\nmap 1/2 0 ; 1/3 2/3\n"
                    "map 1/2 0 ; 1/3 1/3")
    result = classify(ifs)
    assert result.witness.rank == 1
    x0, axis = line_segment_witness(ifs, result.witness)
    assert x0 == (F(0),)
    assert axis == 2


def test_line_segment_witness_shifted():
    ifs = parse_ifs("dim 2\nmap 1/2 1/2 ; 1/3 0\nmap 1/2 1/2 ; 1/3 2/3\n"
                    "map 1/2 1/2 ; 1/3 1/3")
    x0, _ = line_segment_witness(ifs, classify(ifs).witness)
    assert x0 == (F(1),)


def test_rank_two_witness_segment_lies_in_the_cylinders():
    # sponge3_rank2's witness has rank d - 1 = 2, so {x0} x [0,1] lies in
    # K: at each depth the last sides of the cylinders whose first two
    # sides hold x0 cover [0,1]
    ifs = load_fixture("sponge3_rank2.ifs")
    assert class_and_rank(ifs) == (AT_LEAST_ONE, 2)
    x0, axis = line_segment_witness(ifs, classify(ifs).witness)
    assert (x0, axis) == ((0, 0), 3)
    for depth in (1, 2, 3):
        reach = 0
        for lo, hi in sorted((b.sides[-1].lo, b.sides[-1].hi)
                             for b in enumerate_cylinders(ifs, depth)
                             if all(s.lo <= x <= s.hi
                                    for s, x in zip(b.sides, x0))):
            assert lo <= reach
            reach = max(reach, hi)
        assert reach == 1


def test_line_segment_witness_wrong_rank(lg4):
    with pytest.raises(ClassifyError):
        line_segment_witness(lg4, classify(lg4).witness)


def test_extract_subsystem_lg4(lg4):
    sub = extract_special_subsystem(lg4, classify(lg4).witness)
    assert sub.prefix_maps == ()
    assert sub.anchor_point == ()
    assert set(sub.sub_ifs.maps) == set(lg4.maps)


def test_extract_subsystem_3d():
    text = (
        "dim 3\n"
        "map 1/2 0 ; 1/3 0 ; 1/4 0\n"
        "map 1/2 0 ; 1/3 1/3 ; 1/4 1/2\n"
        "map 1/2 0 ; 1/3 2/3 ; 1/4 1/4\n"
    )
    ifs = parse_ifs(text)
    result = classify(ifs)
    witness = result.witness
    assert witness.rank == 1
    sub = extract_special_subsystem(ifs, witness)
    assert sub.anchor_point == (F(0),)
    assert sub.sub_ifs.dim == 2
    assert classify(sub.sub_ifs).conformal_dim_class == "ExactlyOne"


def test_extract_subsystem_requires_witness(lg5):
    with pytest.raises(ClassifyError):
        extract_special_subsystem(lg5, ROOT)


@pytest.mark.parametrize("call, rank, match", [
    pytest.param(line_segment_witness, 1, "witness fiber does not tile",
                 id="segment witness that does not tile"),
    pytest.param(extract_special_subsystem, 2, "witness rank 2 exceeds d-1",
                 id="subsystem witness of rank d"),
    pytest.param(extract_special_subsystem, None, "vertex not in tree",
                 id="subsystem witness not in the tree"),
    # one witness-fiber check: the segment witness goes through
    # extract_special_subsystem, which turns the TreeError into this
    pytest.param(line_segment_witness, None, "vertex not in tree",
                 id="segment witness not in the tree"),
])
def test_witness_rejections(lg5, call, rank, match):
    # lg5 has no tiling fiber; a rank picks one of its tree's vertices
    witness = build_labeled_tree(lg5).levels[rank][0] if rank is not None \
        else Vertex(1, labels(("1/7", 0)))
    with pytest.raises(ClassifyError, match=match):
        call(lg5, witness)


# witness ranks 1 and 2: a segment system in d = 2, and in d = 3 a second
# coordinate that tiles under the first and a third that tiles under both
DEEP_WITNESS_TEXTS = [
    "dim 2\nmap 1/2 0 ; 1/3 0\nmap 1/2 0 ; 1/3 2/3\nmap 1/2 0 ; 1/3 1/3",
    "dim 3\nmap 1/2 0 ; 1/3 0 ; 1/4 0\nmap 1/2 0 ; 1/3 1/3 ; 1/4 1/2\n"
    "map 1/2 0 ; 1/3 2/3 ; 1/4 1/4\n",
    "dim 3\n" + "".join("map 1/2 0 ; 1/3 0 ; 1/4 %d/4\n" % k
                        for k in range(4)),
]


def test_extracted_subsystems_are_special(lg4, bedford_mcmullen):
    # the kept maps have distinct first coordinates whose images tile
    # [0,1], so the subsystem at any tiling fiber passes the LG gate with
    # a tiling root fiber and singletons below: ExactlyOne
    rng = random.Random(37)
    systems = [lg4, bedford_mcmullen]
    systems += [parse_ifs(text) for text in DEEP_WITNESS_TEXTS]
    systems += [random_special_system(rng) for _ in range(10)]
    systems += [random_lg_system(rng, dim) for dim in (2, 3)
                for _ in range(10)]
    ranks = set()
    for ifs in systems:
        for verdict in classify(ifs).fiber_report:
            if verdict.tiles:
                ranks.add(verdict.owner.rank)
                sub = extract_special_subsystem(ifs, verdict.owner)
                assert classify(sub.sub_ifs).conformal_dim_class == EXACTLY_ONE
    assert ranks == {0, 1, 2}


def test_classify_invariant_under_relabeling(lg5, lg4):
    for ifs in (lg5, lg4):
        base = classify(ifs)
        for perm in itertools.permutations(range(ifs.size)):
            permuted = SpongeIFS(ifs.dim, tuple(ifs.maps[i] for i in perm))
            result = classify(permuted)
            assert result.uniformly_disconnected == base.uniformly_disconnected
            assert result.conformal_dim_class == base.conformal_dim_class
    rng = random.Random(17)
    for _ in range(8):
        ifs = random_lg_system(rng)
        base = classify(ifs)
        for _ in range(4):
            perm = rng.sample(range(ifs.size), ifs.size)
            permuted = SpongeIFS(ifs.dim, tuple(ifs.maps[i] for i in perm))
            assert classify(permuted).conformal_dim_class \
                == base.conformal_dim_class


def test_column_systems_reach_every_class_and_witness_rank():
    # a tiling fiber at rank s makes s the witness rank; one map per
    # column below a tiling root is the special form
    for dim in (2, 3):
        seen = set()
        for seed in range(4 * (dim + 1)):
            tile_rank = (None, *range(dim))[seed % (dim + 1)]
            max_children = 1 if seed < dim + 1 else 3
            result = classify(random_column_system(
                random.Random(seed), dim, tile_rank, max_children))
            rank = result.witness.rank if result.witness else None
            assert rank == tile_rank
            seen.add((result.conformal_dim_class, rank))
        assert {cls for cls, _ in seen} == {ZERO, EXACTLY_ONE, AT_LEAST_ONE}
        assert {rank for _, rank in seen} == {None, *range(dim)}


def _fingerprint(ifs):
    """What no order of the maps may change."""
    result = classify(ifs)
    tree = build_labeled_tree(ifs)
    return (result.conformal_dim_class,
            result.witness.rank if result.witness else None,
            sorted(result.fiber_report, key=repr),
            {v: fib.labels for v, fib in tree.fibers.items()},
            [check_product_decomposition(ifs, k) for k in (1, 2)],
            _outcome(analyze_special_system, ifs))


@settings(max_examples=60)
@given(st.integers(2, 3), st.integers(0, 10 ** 6), st.integers(-1, 2),
       st.integers(1, 3))
@example(2, 0, 0, 1)  # ExactlyOne: one map per column under a tiling root
@example(3, 0, 0, 1)
def test_map_order_changes_no_fiber_fact(dim, seed, tile_rank, max_children):
    # the class, the witness rank, the fiber verdicts, every fiber's
    # labels, the product decomposition and the special system
    rng = random.Random(seed)
    ifs = random_column_system(rng, dim, tile_rank if 0 <= tile_rank < dim
                               else None, max_children)
    shuffled = SpongeIFS(dim, tuple(rng.sample(ifs.maps, ifs.size)))
    assert _fingerprint(shuffled) == _fingerprint(ifs)


@settings(max_examples=60)
@given(st.integers(2, 3), st.integers(0, 10 ** 6), st.integers(-1, 2),
       st.integers(1, 3), st.integers(0, 2))
def test_reflection_keeps_the_verdict(dim, seed, tile_rank, max_children, j):
    # x -> 1 - x on one coordinate mirrors every fiber's images, so each
    # fiber tiles [0,1] exactly when it did: the class and the witness
    # rank stay
    ifs = random_column_system(random.Random(seed), dim,
                               tile_rank if 0 <= tile_rank < dim else None,
                               max_children)
    assert class_and_rank(reflect(ifs, j % dim)) == class_and_rank(ifs)


def _grid_patterns(cols, rows):
    """Every set of at least two cells (i, j) of the cols x rows grid."""
    cells = [(i, j) for i in range(cols) for j in range(rows)]
    return [pattern for size in range(2, len(cells) + 1)
            for pattern in itertools.combinations(cells, size)]


def _grid_system(cells, cols, rows):
    """The cells (i, j) of the cols x rows grid as the maps
    (1/cols, i/cols; 1/rows, j/rows)."""
    return SpongeIFS(2, tuple(
        DiagonalAffineMap((AffineMap1D(Fraction(1, cols), Fraction(i, cols)),
                           AffineMap1D(Fraction(1, rows), Fraction(j, rows))))
        for i, j in cells))


def test_grid_patterns_match_the_closed_form():
    # every pattern on the 2 x 3 grid and a seeded sample of the 4083 on
    # the 3 x 4 grid: the root fiber tiles iff every column holds a cell,
    # a column's fiber iff the column is full, and the system is
    # ExactlyOne iff every column holds exactly one cell
    patterns = _grid_patterns(3, 4)
    assert len(patterns) == 4083
    verdicts = []
    for cols, rows, sample in [
            (2, 3, _grid_patterns(2, 3)),
            (3, 4, random.Random(29).sample(patterns, 300))]:
        counts = Counter()
        for cells in sample:
            ifs = _grid_system(cells, cols, rows)
            tree = build_labeled_tree(ifs)
            column = Counter(i for i, _ in cells)
            assert attractor_is_unit_interval(tree.fibers[ROOT]) == \
                (len(column) == cols)
            for v in tree.levels[1]:
                i = v.projected_map[0].offset * cols
                assert attractor_is_unit_interval(tree.fibers[v]) == \
                    (column[i] == rows)
            verdict = class_and_rank(ifs)
            assert (verdict[0] == EXACTLY_ONE) == \
                (len(column) == cols and set(column.values()) == {1})
            counts[verdict] += 1
        verdicts.append(counts)
    assert verdicts[0] == {(ZERO, None): 6, (EXACTLY_ONE, 0): 9,
                           (AT_LEAST_ONE, 0): 40, (AT_LEAST_ONE, 1): 2}
    assert verdicts[1] == {(ZERO, None): 45, (EXACTLY_ONE, 0): 5,
                           (AT_LEAST_ONE, 0): 243, (AT_LEAST_ONE, 1): 7}


def test_special_system_is_f0_at_the_root(monkeypatch, lg4):
    # analyze_special_system takes its maps, in their order, from
    # extract_special_subsystem at the witness
    calls = []

    def recording(ifs, witness):
        calls.append((witness, extract_special_subsystem(ifs, witness)))
        return calls[-1][1]

    monkeypatch.setattr(sponge.cantor, "extract_special_subsystem", recording)
    rng = random.Random(41)
    for ifs in [lg4] + [random_special_system(rng) for _ in range(4)]:
        shuffled = SpongeIFS(ifs.dim, tuple(rng.sample(ifs.maps, ifs.size)))
        sys_, _ = analyze_special_system(shuffled)
        witness, f0 = calls[-1]
        assert witness == ROOT
        assert sys_.base is f0.sub_ifs
        assert [m.coords[0] for m in sys_.base.maps] == \
            list(fiber_ifs(build_labeled_tree(ifs), ROOT).labels)


def _oracle_is_special_form(ifs):
    """Root fiber tiles with full cardinality and every fiber of rank >= 1
    is a singleton, each fiber built afresh from its own tree."""
    tree = build_labeled_tree(ifs)
    root = fiber_ifs(tree, tree.levels[0][0])
    if root.size != len(tree.levels[tree.dim]) \
            or not attractor_is_unit_interval(root):
        return False
    return all(fiber_ifs(tree, v).size == 1
               for level in tree.levels[1:tree.dim] for v in level)


def test_exactly_one_matches_special_form_oracle(lg5, lg4, bedford_mcmullen):
    texts = [
        "dim 3\nmap 1/2 0 ; 1/3 0 ; 1/4 0\nmap 1/2 1/2 ; 1/3 1/3 ; 1/4 1/2\n",
        "dim 3\nmap 1/2 0 ; 1/3 0 ; 1/4 0\nmap 1/2 0 ; 1/3 1/3 ; 1/4 1/2\n"
        "map 1/2 1/2 ; 1/3 0 ; 1/4 0\n",
        "dim 3\nmap 1/2 0 ; 1/3 0 ; 1/4 0\nmap 1/2 0 ; 1/3 1/3 ; 1/4 1/2\n"
        "map 1/2 0 ; 1/3 2/3 ; 1/4 1/4\n",
        "dim 1\nmap 1/2 0\nmap 1/2 1/2\n",
    ]
    rng = random.Random(29)
    systems = [lg5, lg4, bedford_mcmullen] + [parse_ifs(t) for t in texts]
    systems += [random_lg_system(rng) for _ in range(20)]
    systems += [random_special_system(rng) for _ in range(4)]
    classes = set()
    for ifs in systems:
        result = classify(ifs)
        classes.add(result.conformal_dim_class)
        assert (result.conformal_dim_class == EXACTLY_ONE) == \
            (result.witness is not None and _oracle_is_special_form(ifs))
    assert classes == {ZERO, AT_LEAST_ONE, EXACTLY_ONE}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (CantorError, ClassifyError, TreeError) as exc:
        return type(exc), str(exc)


def test_shared_analysis_matches_fresh_calls(lg5, lg4, bedford_mcmullen):
    rng = random.Random(23)
    systems = [lg5, lg4, bedford_mcmullen]
    systems += [random_lg_system(rng) for _ in range(6)]
    systems += [random_special_system(rng) for _ in range(4)]
    for ifs in systems:
        shared = Analysis(ifs)
        assert Analysis.of(shared) is shared
        assert _outcome(classify, shared) == _outcome(classify, ifs)
        for k in (1, 2):
            assert _outcome(check_product_decomposition, shared, k) \
                == _outcome(check_product_decomposition, ifs, k)
        assert _outcome(analyze_special_system, shared) \
            == _outcome(analyze_special_system, ifs)


def test_witnesses_read_the_shared_tree(monkeypatch, lg5, lg4):
    segment = parse_ifs("dim 2\nmap 1/2 0 ; 1/3 0\nmap 1/2 0 ; 1/3 2/3\n"
                        "map 1/2 0 ; 1/3 1/3")
    three_d = parse_ifs("dim 3\nmap 1/2 0 ; 1/3 0 ; 1/4 0\n"
                        "map 1/2 0 ; 1/3 1/3 ; 1/4 1/2\n"
                        "map 1/2 0 ; 1/3 2/3 ; 1/4 1/4\n")
    cases = [(line_segment_witness, segment), (line_segment_witness, lg4),
             (extract_special_subsystem, lg4),
             (extract_special_subsystem, three_d),
             (extract_special_subsystem, lg5)]
    witnesses = [classify(ifs).witness or ROOT for _, ifs in cases]
    fresh = [_outcome(fn, ifs, w) for (fn, ifs), w in zip(cases, witnesses)]
    analyses = [Analysis(ifs) for _, ifs in cases]
    for a in analyses:
        a.tree
    module = sys.modules["sponge.classify"]
    built = []

    def counting(ifs):
        built.append(ifs)
        return build_labeled_tree(ifs)

    monkeypatch.setattr(module, "build_labeled_tree", counting)
    shared = [_outcome(fn, a, w)
              for (fn, _), a, w in zip(cases, analyses, witnesses)]
    assert shared == fresh
    # no tree is built again: not for the input, nor for the subsystem
    assert built == []


def test_validation_passes_on_a_tree_error_without_a_report(monkeypatch, lg5):
    # only the LG gate's rejection carries a ValidationReport; any other
    # TreeError from building the tree is raised again
    def failing(ifs):
        raise TreeError("x")

    monkeypatch.setattr(sys.modules["sponge.classify"], "build_labeled_tree",
                        failing)
    with pytest.raises(TreeError, match="^x$"):
        Analysis(lg5).validation


def test_zero_class_monotone_under_subsets(lg5):
    # subsets of a uniformly disconnected system stay uniformly disconnected
    rng = random.Random(3)
    for _ in range(20):
        k = rng.randint(1, lg5.size)
        subset = tuple(sorted(rng.sample(range(lg5.size), k)))
        sub = SpongeIFS(2, tuple(lg5.maps[i] for i in subset))
        if not validate_lg(sub).lg_type:
            continue
        assert classify(sub).conformal_dim_class == "Zero"
