import itertools
import random
import time
from fractions import Fraction

import pytest

from sponge import (CantorError, analyze_special_system, bilipschitz_check,
                    build_cantor_tree, cylinder_length, gap_length,
                    lipschitz_constants, parse_ifs, to_binary_tree)
from sponge.cantor import SeriesConstants
from sponge.util import ResourceCapError, sqrt_leq_quad

from conftest import random_special_system


def F(s, d=None):
    return Fraction(s) if d is None else Fraction(s, d)


M2_TEXT = "dim 2\nmap 1/2 0 ; 1/4 0\nmap 1/2 1/2 ; 1/4 1/2"
# tau_1 = 0 (touching first gap), tau_2 = 2
MIXED_TEXT = ("dim 2\nmap 1/3 0 ; 1/4 0\nmap 1/3 1/3 ; 1/4 1/4\n"
              "map 1/3 2/3 ; 1/4 3/4")


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
        mp = None
        for j in w:
            mj = sys_.base.maps[j]
            mp = mj if mp is None else mp.compose(mj)
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


def _oracle_interval(sys_, consts, word):
    """J_word by the per-sibling formula: it starts after its earlier
    siblings and the gaps between them, each length by the closed form."""
    if not word:
        return F(0), consts.L
    parent, j = word[:-1], word[-1]
    lo = _oracle_interval(sys_, consts, parent)[0]
    for i in range(j):
        lo += cylinder_length(sys_, consts, parent + (i,))
        lo += gap_length(sys_, consts, parent, i + 1)
    return lo, lo + cylinder_length(sys_, consts, word)


def _words_up_to(m, depth):
    return [w for n in range(depth + 1)
            for w in itertools.product(range(m), repeat=n)]


def _special_systems():
    rng = random.Random(23)
    systems = [analyze_special_system(parse_ifs(MIXED_TEXT))]
    while len(systems) < 6:
        sys_, consts = analyze_special_system(random_special_system(rng))
        if any(tau >= 2 for tau in sys_.taus):
            systems.append((sys_, consts))
    return systems


def test_row_layout_matches_per_sibling_oracle(sys4):
    for sys_, consts in [sys4] + _special_systems():
        tree = build_cantor_tree(sys_, consts, 4)
        words = _words_up_to(sys_.m, 4)
        assert sorted(tree._intervals) == sorted(words)  # laid out eagerly
        for w in words:
            assert tree.interval(w) == _oracle_interval(sys_, consts, w)


def test_binary_tree_lazy_intervals_match_oracle(sys4):
    for sys_, consts in [sys4] + _special_systems()[:3]:
        tree = build_cantor_tree(sys_, consts, 0)
        bt = to_binary_tree(sys_, consts, 8, tree=tree)
        assert len(tree._intervals) > 1
        for w, iv in tree._intervals.items():
            assert iv == _oracle_interval(sys_, consts, w)
        for node in bt.nodes.values():
            lo = _oracle_interval(sys_, consts, node.alpha + (node.k1,))[0]
            hi = _oracle_interval(sys_, consts, node.alpha + (node.k2,))[1]
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
    # with L + 1 the root row ends one short of the root interval
    sys_, consts = sys4
    bad = SeriesConstants(consts.s, consts.L + 1)
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
