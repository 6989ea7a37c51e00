import functools
import itertools
import random
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

import sponge.cantor
from sponge import (CantorError, analyze_special_system, bilipschitz_check,
                    build_cantor_tree, cylinder_length, gap_length,
                    lipschitz_constants, parse_ifs, to_binary_tree)
from sponge.cantor import RatioReport, SeriesConstants, SpecialSystem
from sponge.ifs import compose_scaled, scale_labels
from sponge.util import (ResourceCapError, common_denominator, quad_leq,
                         sqrt_leq_quad)

from conftest import FIXTURES, compose, random_special_system, reflect


def F(s, d=None):
    return Fraction(s) if d is None else Fraction(s, d)


M2_TEXT = "dim 2\nmap 1/2 0 ; 1/4 0\nmap 1/2 1/2 ; 1/4 1/2"
# tau_1 = 0 (touching first gap), tau_2 = 2
MIXED_TEXT = ("dim 2\nmap 1/3 0 ; 1/4 0\nmap 1/3 1/3 ; 1/4 1/4\n"
              "map 1/3 2/3 ; 1/4 3/4")
# tau_1 = tau_2 = 2: no endpoints touch
GAPPED_TEXT = ("dim 2\nmap 1/3 0 ; 1/5 0\nmap 1/3 1/3 ; 1/5 2/5\n"
               "map 1/3 2/3 ; 1/5 4/5")
# the d = 3 fixture with taus (3,)
SPONGE3_TEXT = (FIXTURES / "sponge3_special.ifs").read_text()


@pytest.fixture(scope="module")
def sys4(lg4):
    return analyze_special_system(lg4)


def test_analyze_lg4(sys4):
    sys_, consts = sys4
    assert sys_.a == (F(0), F(0))
    assert sys_.b == (F(1), F(1))
    assert sys_.deltas == ((F(0), F(1, 3)), (F(0), F(-5, 12)),
                           (F(0), F(22, 45)))
    assert sys_.taus == (2, 2, 2)
    assert consts.s == (F(107, 180),) * 3
    assert consts.L == F(613, 73)
    assert sys_.r_star == F(1, 12)


def test_analyze_m2():
    sys_, consts = analyze_special_system(parse_ifs(M2_TEXT))
    assert sys_.a == (F(0), F(0))
    assert sys_.b == (F(1), F(2, 3))
    assert sys_.deltas == ((F(0), F(1, 3)),)
    assert sys_.taus == (2,)
    assert consts.s == (F(1, 2),)
    assert consts.L == 3


def test_analyze_rejects_non_special(lg5):
    with pytest.raises(CantorError):
        analyze_special_system(lg5)


def test_analyze_zero_gap_system_degenerates_downstream():
    ifs = parse_ifs("dim 2\nmap 1/2 0 ; 1/3 0\nmap 1/2 1/2 ; 1/3 0")
    sys_, consts = analyze_special_system(ifs)
    assert sys_.taus == (0,)
    assert consts.L == 1
    with pytest.raises(CantorError):
        build_cantor_tree(sys_, consts, 2)


def test_cylinder_length_lg4(sys4):
    sys_, consts = sys4
    assert cylinder_length(sys_, consts, ()) == F(613, 73)
    assert cylinder_length(sys_, consts, (0,)) == F(433, 292)
    assert cylinder_length(sys_, consts, (0,)) == \
        F(1, 4) + 3 * F(1, 6) * F(180, 73)


def test_j_sigma_bound(sys4):
    # |J_w| <= L * phi'_{w,1} for all |w| <= 6
    sys_, consts = sys4
    words = [()]
    for _ in range(6):
        words = [w + (j,) for w in words for j in range(sys_.m)]
        for w in words:
            assert cylinder_length(sys_, consts, w) \
                <= consts.L * sys_.ratio_product(w, 1)


def test_tree_depth3_lg4(sys4):
    sys_, consts = sys4
    tree = build_cantor_tree(sys_, consts, 3)
    # depth-3 intervals lie left to right in lexicographic word order
    words = itertools.product(range(sys_.m), repeat=3)
    ivs = [tree.interval(w) for w in words]
    assert len(ivs) == 64
    assert all(a[1] <= b[0] for a, b in zip(ivs, ivs[1:]))
    # construction already additivity-checks every internal node
    lo, hi = tree.interval(())
    assert (lo, hi) == (F(0), F(613, 73))


def test_root_gaps_lg4(sys4):
    sys_, consts = sys4
    gaps = [gap_length(sys_, consts, (), j) for j in (1, 2, 3)]
    assert gaps == [F(1)] * 3
    children = sum(cylinder_length(sys_, consts, (i,)) for i in range(4))
    assert consts.L == children + 3


def test_tree_depth0(sys4):
    sys_, consts = sys4
    tree = build_cantor_tree(sys_, consts, 0)
    assert tree.interval(()) == (F(0), consts.L)


def test_lipschitz_constants_lg4(sys4):
    sys_, consts = sys4
    lip = lipschitz_constants(sys_, consts)
    assert lip.c0 == F(1, 3)
    assert lip.c1_sq == 8
    assert lip.radicand == 2
    assert lip.Cprime == F(7356, 73)
    assert (lip.C0_p, lip.C0_q) == (F(18142397, 5329), F(108758460, 5329))


def test_c0_is_the_second_term_of_its_max(lg4):
    # the paper's C0 = max{c1, A + B*sqrt(s)} is always A + B*sqrt(s),
    # which is at least 2*c1 = 2d*sqrt(s), so lipschitz_constants keeps it
    rng = random.Random(29)
    systems = [lg4, parse_ifs(M2_TEXT), parse_ifs(MIXED_TEXT)]
    systems += [random_special_system(rng) for _ in range(30)]
    for ifs in systems:
        sys_, consts = analyze_special_system(ifs)
        lip = lipschitz_constants(sys_, consts)
        assert quad_leq(0, 2 * sys_.dim, lip.C0_p, lip.C0_q, lip.radicand)


def test_special_system_invariants(lg4):
    # the first coordinates tile [0,1], so each offset a_j - b_(j-1)
    # starts with 0 and tau_j is 0 or at least 2; a series base sums
    # ratios below the tiling first ones, so 0 <= s < 1; and c0 > 0
    rng = random.Random(31)
    texts = [M2_TEXT, MIXED_TEXT, "dim 3\nmap 1/2 0 ; 1/3 0 ; 1/4 0\n"
             "map 1/2 1/2 ; 1/3 1/3 ; 1/4 1/2\n"]
    systems = [lg4] + [parse_ifs(text) for text in texts]
    systems += [random_special_system(rng) for _ in range(30)]
    for ifs in systems:
        sys_, consts = analyze_special_system(ifs)
        assert all(delta[0] == 0 for delta in sys_.deltas)
        assert all(tau != 1 for tau in sys_.taus)
        assert all(0 <= s < 1 for s in consts.s)
        assert lipschitz_constants(sys_, consts).c0 > 0


def test_lipschitz_constants_single_term():
    sys_, consts = analyze_special_system(parse_ifs(
        "dim 2\nmap 1/2 0 ; 1/3 0\nmap 1/2 1/2 ; 1/3 0"))
    lip = lipschitz_constants(sys_, consts)
    assert lip.c0 == abs(sys_.a[0] - sys_.b[0])
    assert lip.c1_sq == 4 * sum((x - y) ** 2
                                for x, y in zip(sys_.a, sys_.b))


def test_bilipschitz_lg4_depth3(sys4):
    sys_, consts = sys4
    rep = bilipschitz_check(sys_, consts, 3)
    assert rep.passed
    assert rep.pairs == 7225
    assert rep.skipped == 0
    assert rep.min_ratio_sq == F(1263376, 346385)
    assert rep.max_ratio_sq == F(45846441, 181186)


def test_bilipschitz_lg4_depth4(sys4):
    sys_, consts = sys4
    rep = bilipschitz_check(sys_, consts, 4)
    assert rep.passed
    assert rep.pairs == 116281
    assert rep.skipped == 0
    assert rep.min_ratio_sq == F(2917264, 1369553)
    assert rep.max_ratio_sq == F(45846441, 181186)


def _acceptance_08_systems():
    """The five systems acceptance criterion 08 draws after lg4, the same
    way: random special systems (seed 88) that have a gap coordinate."""
    rng = random.Random(88)
    systems = []
    while len(systems) < 5:
        sys_, consts = analyze_special_system(random_special_system(rng))
        if any(tau >= 2 for tau in sys_.taus):
            systems.append((sys_, consts))
    return systems


# depth-5 RatioReports recorded with the word-pair loop (the pair oracle
# takes seconds per system at this depth)
def test_bilipschitz_lg4_depth5(sys4):
    sys_, consts = sys4
    assert bilipschitz_check(sys_, consts, 5) == RatioReport(
        F(8271376, 5462225), F(45846441, 181186), pairs=1863225, skipped=0,
        lower_ok=True, upper_ok=True)


# checked once against _oracle_bilipschitz, which takes tens of seconds
# at this depth; the default cap's word-pair budget is too small for it
def test_bilipschitz_lg4_depth6(sys4):
    sys_, consts = sys4
    assert bilipschitz_check(sys_, consts, 6, cap=10 ** 9) == RatioReport(
        F(27164944, 21832913), F(45846441, 181186), pairs=29822521,
        skipped=0, lower_ok=True, upper_ok=True)


# the last row of the envelope table over depth, recorded with the pair
# loop before its nodes were flattened (0.8 s)
def test_bilipschitz_lg4_depth7(sys4):
    sys_, consts = sys4
    assert bilipschitz_check(sys_, consts, 7, cap=10 ** 9) == RatioReport(
        F(97693456, 87315665), F(45846441, 181186), pairs=477204025,
        skipped=0, lower_ok=True, upper_ok=True)


def test_bilipschitz_composes_each_coordinate_once(sys4, monkeypatch):
    # the node boxes come from the leaves, so only the depth-n sides are
    # composed: one compose_scaled call of n levels per coordinate, each
    # from one scaling of its column
    calls, scaled = [], []
    compose_scaled = sponge.cantor.compose_scaled
    scale_labels = sponge.cantor.scale_labels

    def composing(levels, start=None):
        calls.append(len(levels))
        return compose_scaled(levels, start)

    def scaling(labels):
        scaled.append(labels)
        return scale_labels(labels)

    monkeypatch.setattr(sponge.cantor, "compose_scaled", composing)
    monkeypatch.setattr(sponge.cantor, "scale_labels", scaling)
    sys_, consts = sys4
    rep = bilipschitz_check(sys_, consts, 3)
    assert calls == [3] * sys_.dim
    assert len(scaled) == sys_.dim
    assert rep.min_ratio_sq == F(1263376, 346385)


def test_bilipschitz_report_is_invariant_under_reflection(lg4):
    # a reflection is an isometry of the sponge and of the Cantor model, so
    # the word pairs, the identified codings and both extreme ratios stay;
    # an exact check on the node bounds that needs no pair oracle
    rng = random.Random(5)
    systems = [lg4] + [random_special_system(rng) for _ in range(39)]
    checked = 0
    for ifs in systems:
        sys_, consts = analyze_special_system(ifs)
        if not any(sys_.taus):
            continue  # a segment: every gap vanishes, no Cantor model
        rep = bilipschitz_check(sys_, consts, 4)
        for j in range(ifs.dim):
            mirrored = bilipschitz_check(
                *analyze_special_system(reflect(ifs, j)), 4)
            assert (mirrored.pairs, mirrored.skipped, mirrored.min_ratio_sq,
                    mirrored.max_ratio_sq, mirrored.passed) == \
                (rep.pairs, rep.skipped, rep.min_ratio_sq, rep.max_ratio_sq,
                 rep.passed)
        checked += 1
    assert checked == 39


def test_bilipschitz_acceptance_08_m3_depth5():
    sys_, consts = _acceptance_08_systems()[0]
    assert (sys_.m, sys_.taus) == (3, (2, 2))
    assert bilipschitz_check(sys_, consts, 5) == RatioReport(
        F(100, 49), F(5329, 9), pairs=132496, skipped=0,
        lower_ok=True, upper_ok=True)


# recorded with the pair loop before its nodes were flattened; depth 6
# checked once against _oracle_bilipschitz (2.5 s at this depth)
@pytest.mark.parametrize("depth, pairs", [(6, 1194649), (7, 10758400)])
def test_bilipschitz_acceptance_08_m3_deeper(depth, pairs):
    sys_, consts = _acceptance_08_systems()[0]
    assert bilipschitz_check(sys_, consts, depth, cap=10 ** 9) == RatioReport(
        F(100, 49), F(5329, 9), pairs=pairs, skipped=0,
        lower_ok=True, upper_ok=True)


# exact RatioReports with phi_w(a), phi_w(b) from the per-word Fraction
# composition; the cylinder-box formula lo + (hi - lo) * p must match them
@pytest.mark.parametrize("seed, pairs, min_ratio_sq, max_ratio_sq", [
    (1, 225, "80656/50225", "3600/49"),
    (5, 7225, "1636692924889/1548753129641",
     "3292410577779961/2428479001881"),
    (7, 1600, "12489304428441/10805037863677", "630675810801/5898300388"),
])
def test_bilipschitz_random_special_depth3(seed, pairs, min_ratio_sq,
                                           max_ratio_sq):
    ifs = random_special_system(random.Random(seed))
    sys_, consts = analyze_special_system(ifs)
    rep = bilipschitz_check(sys_, consts, 3)
    assert (rep.pairs, rep.skipped, rep.min_ratio_sq, rep.max_ratio_sq) == \
        (pairs, 0, F(min_ratio_sq), F(max_ratio_sq))
    assert rep.passed


@functools.cache
def _oracle_intervals(sys_, consts):
    """word -> J_word of one system by the per-sibling formula: it starts
    after its earlier siblings and the gaps between them, each length by
    the closed form.  Memoized per system and per word."""
    @functools.cache
    def interval(word):
        if not word:
            return F(0), consts.L
        parent, j = word[:-1], word[-1]
        lo = interval(parent)[0]
        for i in range(j):
            lo += cylinder_length(sys_, consts, parent + (i,))
            lo += gap_length(sys_, consts, parent, i + 1)
        return lo, lo + cylinder_length(sys_, consts, word)
    return interval


def _words_up_to(m, depth):
    return [w for n in range(depth + 1)
            for w in itertools.product(range(m), repeat=n)]


def _oracle_bilipschitz(sys_, consts, depth):
    """bilipschitz_check by comparing every word pair (alpha, beta), one
    at a time: x = phi_alpha(a), y = phi_beta(b) and the matching
    endpoints u, v of the oracle intervals, in integers over one
    denominator each."""
    lip = lipschitz_constants(sys_, consts)
    interval = _oracle_intervals(sys_, consts)
    lengths = range(depth + 1)
    d = sys_.dim
    P, ab = common_denominator(sys_.a + sys_.b)
    sides = [[compose_scaled([scale_labels(column)] * n) for n in lengths]
             for column in zip(*(mp.coords for mp in sys_.base.maps))]
    top = lcm(*(levels[-1][0] for levels in sides))
    M = top * P
    cols = [[(lo * P + (hi - lo) * ab[k]) * (top // den)
             for den, ends in levels for lo, hi in ends for k in (j, d + j)]
            for j, levels in enumerate(sides)]
    points = list(zip(*cols))
    X, Y = points[0::2], points[1::2]
    du, ends = common_denominator(
        v for w in _words_up_to(sys_.m, depth) for v in interval(w))
    U, V = ends[0::2], ends[1::2]
    min_n = min_d = max_n = max_d = None
    pairs = 0
    skipped = 0
    for xa, ua in zip(X, U):
        for yb, vb in zip(Y, V):
            dist2 = sum((s - t) ** 2 for s, t in zip(xa, yb))
            if dist2 == 0:
                if ua != vb:
                    raise CantorError("cantor: identified codings map to "
                                      "distinct model points")
                skipped += 1
                continue
            num = (ua - vb) ** 2
            pairs += 1
            if min_n is None or num * min_d < min_n * dist2:
                min_n, min_d = num, dist2
            if max_n is None or num * max_d > max_n * dist2:
                max_n, max_d = num, dist2
    scale = F(M * M, du * du)
    min_ratio_sq = F(min_n, min_d) * scale
    max_ratio_sq = F(max_n, max_d) * scale
    return RatioReport(
        min_ratio_sq, max_ratio_sq, pairs, skipped,
        min_ratio_sq * lip.c1_sq >= 1,
        sqrt_leq_quad(max_ratio_sq, lip.C0_p, lip.C0_q, lip.radicand))


@settings(max_examples=100)
@given(st.integers(0, 10 ** 6), st.integers(0, 3))
def test_bilipschitz_matches_pair_oracle(seed, depth):
    sys_, consts = analyze_special_system(
        random_special_system(random.Random(seed)))
    assume(any(tau >= 2 for tau in sys_.taus))  # else no Cantor tree
    assert bilipschitz_check(sys_, consts, depth) == \
        _oracle_bilipschitz(sys_, consts, depth)


# a system is lg4 (None), an .ifs text or an index into _special_systems()
@pytest.mark.parametrize("system, depth, skipped", [
    (MIXED_TEXT, 3, 30),  # tau_1 = 0: touching endpoints are identified
    (None, 4, 0),         # lg4
] + [pytest.param(k, 4, skipped, id="special%d-4-%d" % (k, skipped))
     for k, skipped in enumerate((106, 0, 0, 0, 0, 0))
] + [pytest.param(SPONGE3_TEXT, depth, 0, id="sponge3_special-%d-0" % depth)
     for depth in (3, 4, 5)])
def test_bilipschitz_fixed_cases_match_pair_oracle(sys4, system, depth,
                                                   skipped):
    if system is None:
        sys_, consts = sys4
    elif isinstance(system, int):
        sys_, consts = _special_systems()[system]
    else:
        sys_, consts = analyze_special_system(parse_ifs(system))
    rep = bilipschitz_check(sys_, consts, depth)
    assert rep == _oracle_bilipschitz(sys_, consts, depth)
    assert rep.skipped == skipped


def test_bilipschitz_root_pair(sys4):
    # alpha = beta = empty: ratio is L / |a - b|, inside the envelope
    sys_, consts = sys4
    lip = lipschitz_constants(sys_, consts)
    ratio_sq = consts.L ** 2 / lip.radicand
    assert ratio_sq * lip.c1_sq >= 1
    assert sqrt_leq_quad(ratio_sq, lip.C0_p, lip.C0_q, lip.radicand)


def test_identified_codings_skipped():
    sys_, consts = analyze_special_system(parse_ifs(MIXED_TEXT))
    assert sys_.taus == (0, 2)
    rep = bilipschitz_check(sys_, consts, 3)
    assert rep.passed
    assert rep.pairs == 1570
    assert rep.skipped == 30
    assert rep.min_ratio_sq == F(29584, 4825)
    assert rep.max_ratio_sq == F(4752400, 279553)


def test_identified_codings_need_touching_intervals():
    # MIXED_TEXT's codings that meet at a touching endpoint (tau_1 = 0)
    # map to one point; laid out in a tree whose intervals never touch,
    # their endpoints differ, and the pair loop refuses the tree
    sys_, consts = analyze_special_system(parse_ifs(MIXED_TEXT))
    other, other_consts = analyze_special_system(parse_ifs(GAPPED_TEXT))
    assert other.taus == (2, 2) and other.m == sys_.m
    tree = build_cantor_tree(other, other_consts, 3)
    with pytest.raises(CantorError, match="identified codings map to "
                       "distinct model points"):
        bilipschitz_check(sys_, consts, 3, tree=tree)


def test_coding_identification_endpoints():
    # zero-gap splits make endpoints coincide; positive taus keep a gap
    sys_, consts = analyze_special_system(parse_ifs(MIXED_TEXT))
    tree = build_cantor_tree(sys_, consts, 3)
    for w in [(), (0,), (1,), (2,), (1, 2)]:
        j0 = tree.interval(w + (0,))
        j1 = tree.interval(w + (1,))
        j2 = tree.interval(w + (2,))
        assert j0[1] == j1[0]                      # tau_1 = 0: touching
        assert j2[0] - j1[1] == gap_length(sys_, consts, w, 2) > 0  # tau_2 = 2


def test_binary_tree_lg4(sys4):
    sys_, consts = sys4
    bt = to_binary_tree(sys_, consts, 8)
    assert bt.T == F(7356, 73)
    assert bt.balance_ok
    assert bt.gap_ratio_table[1] == F(433, 292)
    assert bt.gap_ratio_table[2] == F(939, 584)
    assert bt.gap_ratio_table[3] == F(505, 876)


def test_binary_tree_m2_matches_cantor_tree():
    sys_, consts = analyze_special_system(parse_ifs(M2_TEXT))
    bt = to_binary_tree(sys_, consts, 4)
    tree = build_cantor_tree(sys_, consts, 4)
    assert bt.T == 6
    assert bt.balance_ok
    for sigma, node in bt.nodes.items():
        assert (node.lo, node.hi) == tree.interval(sigma)


def test_binary_balance_fails_past_T(sys4):
    # with r* = L, T = 1 asks every split for equal halves; lg4's first
    # split, J_0 against J_1 .. J_3, is far from that
    sys_, consts = sys4
    assert to_binary_tree(sys_, consts, 3).balance_ok
    tight = SpecialSystem(sys_.base, sys_.a, sys_.b, sys_.a_pts, sys_.b_pts,
                          sys_.deltas, sys_.taus, r_star=consts.L)
    bt = to_binary_tree(tight, consts, 3)
    assert bt.T == 1
    assert not bt.balance_ok
    assert bt.gap_ratio_table == to_binary_tree(sys_, consts, 3).gap_ratio_table


def test_binary_gap_ratio_lower_bound(sys4):
    sys_, consts = sys4
    bt = to_binary_tree(sys_, consts, 8)
    gamma = F(5, 4)
    for n in range(1, 9):
        assert bt.gap_ratio_table[n] >= \
            (sys_.r_star / consts.L) * gamma ** n


def test_c0c1_desk_scale(sys4):
    # c0 * phi'_{w,1} <= |phi_w(a) - phi_w(b)| <= c1 * phi'_{w,1}
    sys_, consts = sys4
    lip = lipschitz_constants(sys_, consts)
    words = [()]
    frontier = [()]
    for _ in range(5):
        frontier = [w + (j,) for w in frontier for j in range(sys_.m)]
        words.extend(frontier)
    for w in words:
        mp = compose(sys_.base.maps[j] for j in w)
        x = sys_.a if mp is None else mp(sys_.a)
        y = sys_.b if mp is None else mp(sys_.b)
        dist_sq = sum((p - q) ** 2 for p, q in zip(x, y))
        r1 = sys_.ratio_product(w, 1)
        assert lip.c0 ** 2 * r1 ** 2 <= dist_sq <= lip.c1_sq * r1 ** 2


def test_random_special_systems_roundtrip():
    rng = random.Random(17)
    for _ in range(5):
        ifs = random_special_system(rng)
        sys_, consts = analyze_special_system(ifs)
        assert consts.L >= 1
        if any(tau >= 2 for tau in sys_.taus):
            build_cantor_tree(sys_, consts, 3)  # additivity-checked inside


@functools.cache
def _special_systems():
    rng = random.Random(23)
    systems = [analyze_special_system(parse_ifs(MIXED_TEXT))]
    while len(systems) < 6:
        sys_, consts = analyze_special_system(random_special_system(rng))
        if any(tau >= 2 for tau in sys_.taus):
            systems.append((sys_, consts))
    return tuple(systems)


def test_row_layout_matches_per_sibling_oracle(sys4):
    for sys_, consts in [sys4, *_special_systems()]:
        tree = build_cantor_tree(sys_, consts, 4)
        words = _words_up_to(sys_.m, 4)
        assert sorted(tree._nodes) == sorted(words)  # laid out eagerly
        interval = _oracle_intervals(sys_, consts)
        for w in words:
            assert tree.interval(w) == interval(w)


def test_binary_tree_lazy_intervals_match_oracle(sys4):
    for sys_, consts in [sys4, *_special_systems()[:3]]:
        tree = build_cantor_tree(sys_, consts, 0)
        bt = to_binary_tree(sys_, consts, 8, tree=tree)
        assert len(tree._nodes) > 1
        interval = _oracle_intervals(sys_, consts)
        for w in tree._nodes:
            assert tree.interval(w) == interval(w)
        for node in bt.nodes.values():
            lo = interval(node.alpha + (node.k1,))[0]
            hi = interval(node.alpha + (node.k2,))[1]
            assert (node.lo, node.hi) == (lo, hi)


def _binary_fields(bt):
    return bt.nodes, bt.T, bt.balance_ok, bt.gap_ratio_table


@pytest.mark.parametrize("binary_first", [False, True])
def test_shared_tree_gives_same_results(sys4, binary_first):
    for sys_, consts in [sys4, analyze_special_system(parse_ifs(MIXED_TEXT))]:
        own_rep = bilipschitz_check(sys_, consts, 3)
        own_bt = to_binary_tree(sys_, consts, 8)
        tree = build_cantor_tree(sys_, consts, 0 if binary_first else 2)
        if binary_first:
            bt = to_binary_tree(sys_, consts, 8, tree=tree)
            rep = bilipschitz_check(sys_, consts, 3, tree=tree)
        else:
            rep = bilipschitz_check(sys_, consts, 3, tree=tree)
            bt = to_binary_tree(sys_, consts, 8, tree=tree)
        assert rep == own_rep
        assert _binary_fields(bt) == _binary_fields(own_bt)


def test_wrong_length_fails_in_every_consumer(sys4):
    # with L + 1 the root row ends one short of the root interval; no
    # weight has the denominator 7, so L + 1/7 also needs L's denominator
    # in the row denominators
    sys_, consts = sys4
    for extra in (F(1), F(1, 7)):
        bad = SeriesConstants(consts.s, consts.L + extra)
        with pytest.raises(CantorError, match="additivity fails at"):
            build_cantor_tree(sys_, bad, 1)
        with pytest.raises(CantorError, match="additivity fails at"):
            bilipschitz_check(sys_, bad, 1)
        with pytest.raises(CantorError, match="additivity fails at"):
            to_binary_tree(sys_, bad, 1)


def test_binary_tree_node_cap(sys4):
    sys_, consts = sys4
    assert len(to_binary_tree(sys_, consts, 3, cap=15).nodes) == 15
    with pytest.raises(ResourceCapError):
        to_binary_tree(sys_, consts, 4, cap=30)  # 31 nodes
    with pytest.raises(ResourceCapError):
        to_binary_tree(sys_, consts, 10 ** 8)


def test_tree_cap_on_huge_depth(sys4):
    sys_, consts = sys4
    with pytest.raises(ResourceCapError):
        build_cantor_tree(sys_, consts, 10 ** 8)


def test_lipschitz_cap_on_huge_depth(sys4):
    # the pair budget is sized without building m ** depth
    sys_, consts = sys4
    started = time.perf_counter()
    with pytest.raises(ResourceCapError):
        bilipschitz_check(sys_, consts, 20000)
    assert time.perf_counter() - started < 1.0
