"""Interval-model pipeline for special systems: exact closed-form cylinder
lengths, the gap-placed Cantor tree, bi-Lipschitz envelope checks, and the
binary-tree conversion with balance and gap-ratio verification.

A "special system" is one whose root fiber tiles [0,1] with full
cardinality while every deeper fiber is a singleton.  Its attractor is
bi-Lipschitz equivalent to an m-branch Cantor set on [0, L] whose
cylinder lengths and gaps are exact rationals; everything here is
verified by exact arithmetic, with decimals only in reports.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .classify import EXACTLY_ONE, Analysis, classify
from .ifs import SpongeIFS, compose_labels, fixed_point
from .util import (DEFAULT_CAP, ResourceCapError, capped_power,
                   common_denominator, quad_leq, sqrt_leq_quad)


class CantorError(Exception):
    """Domain error from the cantor module."""


@dataclass(frozen=True)
class SpecialSystem:
    base: SpongeIFS     # maps reordered left-to-right by first coordinate
    a: tuple            # fixed point of the leftmost map
    b: tuple            # fixed point of the rightmost map
    a_pts: tuple        # a_j = phi_j(a)
    b_pts: tuple        # b_j = phi_j(b)
    deltas: tuple       # a_j - b_{j-1}, j = 1..m-1
    taus: tuple         # first nonzero coordinate of each delta, or 0
    r_star: Fraction    # min first-coordinate ratio

    @property
    def m(self):
        return self.base.size

    @property
    def dim(self):
        return self.base.dim

    def ratio_product(self, word, coord):
        """Product of coordinate `coord` (1-based) ratios along `word`;
        empty word gives 1 (identity convention)."""
        product = Fraction(1)
        for j in word:
            product *= self.base.maps[j].coords[coord - 1].ratio
        return product


@dataclass(frozen=True)
class SeriesConstants:
    s: tuple       # geometric-series base per gap index (0 when tau_j = 0)
    L: Fraction


def analyze_special_system(ifs):
    """Exact constants of a special system (an IFS or its Analysis); maps
    are re-ordered by the left endpoint of their first-coordinate image."""
    analysis = Analysis.of(ifs)
    result = classify(analysis)
    if result.conformal_dim_class != EXACTLY_ONE:
        raise CantorError(
            "cantor: system does not satisfy the special-form hypotheses "
            "(class %s)" % result.conformal_dim_class)
    ifs = analysis.ifs
    maps = tuple(sorted(ifs.maps, key=lambda m: m.coords[0].offset))
    base = SpongeIFS(ifs.dim, maps)
    m = len(maps)
    a = fixed_point(maps[0])
    b = fixed_point(maps[-1])
    a_pts = tuple(mp(a) for mp in maps)
    b_pts = tuple(mp(b) for mp in maps)
    deltas = []
    taus = []
    for j in range(1, m):
        delta = tuple(x - y for x, y in zip(a_pts[j], b_pts[j - 1]))
        if delta[0] != 0:
            raise CantorError("cantor: first coordinate of offset %d is "
                              "nonzero; root fiber does not tile" % j)
        tau = 0
        for i, x in enumerate(delta, start=1):
            if x != 0:
                tau = i
                break
        deltas.append(delta)
        taus.append(tau)
    s_values = []
    for tau in taus:
        if tau == 0:
            s_values.append(Fraction(0))
        else:
            s = sum(mp.coords[tau - 1].ratio for mp in maps)
            if s >= 1:
                raise CantorError("cantor: series base %s >= 1" % s)
            s_values.append(s)
    L = 1 + sum(1 / (1 - s) for s, tau in zip(s_values, taus) if tau >= 2)
    _bracket_check(s_values, taus, L)
    r_star = min(mp.coords[0].ratio for mp in maps)
    sys = SpecialSystem(base, a, b, a_pts, b_pts, tuple(deltas), tuple(taus),
                        r_star)
    return sys, SeriesConstants(tuple(s_values), L)


def _bracket_check(s_values, taus, L, terms=10):
    """Monotone bracketing of the closed form by truncated summation."""
    lower = Fraction(0)
    upper = Fraction(0)
    for s, tau in zip(s_values, taus):
        if tau < 2:
            continue
        partial = sum(s ** n for n in range(terms + 1))
        lower += partial
        upper += partial + s ** (terms + 1) / (1 - s)
    if not (lower <= L - 1 <= upper):
        raise CantorError("cantor: closed-form L fails series bracketing")


def cylinder_length(sys, constants, word):
    """|J_word| by the closed form; the empty word gives L."""
    total = sys.ratio_product(word, 1)
    for j, tau in enumerate(sys.taus):
        if tau >= 2:
            total += sys.ratio_product(word, tau) / (1 - constants.s[j])
    return total


def gap_length(sys, constants, word, j):
    """Gap g_{word,j} between J_{word (j-1)} and J_{word j}, 1 <= j <= m-1."""
    tau = sys.taus[j - 1]
    if tau == 0:
        return Fraction(0)
    return sys.ratio_product(word, tau)


class CantorTree:
    """Lazy interval layout of the m-branch Cantor tree on [0, L].

    Intervals are memoized one sibling row at a time; laying out a row
    checks additivity at its parent.  Construction lays out every row
    above `depth`.

    The closed forms of cylinder_length and gap_length are sums of ratio
    products along the word, so each word keeps its products over the
    coordinates they read: a child's are its parent's times one map's
    ratios.
    """

    def __init__(self, sys, constants, depth, cap=DEFAULT_CAP):
        if all(tau == 0 for tau in sys.taus):
            raise CantorError("cantor: all gaps vanish; the limit set is an "
                              "interval, not a Cantor set")
        depth = max(depth, 0)
        count = capped_power(sys.m, depth, cap)
        if count > cap:
            raise ResourceCapError("cantor", count, cap)
        # cylinder_length regrouped by coordinate: |J_w| is the sum over
        # coordinate 1 and the gap coordinates of weight * ratio product,
        # the weight 1 on coordinate 1 and 1/(1 - s_j) for each gap j on
        # coordinate tau_j
        coords = sorted({1}.union(tau for tau in sys.taus if tau))
        weights = [Fraction(1 if t == 1 else 0) for t in coords]
        for tau, s in zip(sys.taus, constants.s):
            if tau >= 2:
                weights[coords.index(tau)] += 1 / (1 - s)
        self.sys = sys
        self.constants = constants
        self._weights = weights
        self._ratios = [[mp.coords[t - 1].ratio for t in coords]
                        for mp in sys.base.maps]
        # the gap before child j reads the product at its tau, if any
        self._gap_at = [None] + [coords.index(tau) if tau else None
                                 for tau in sys.taus]
        self._intervals = {(): (Fraction(0), constants.L)}
        self._products = {(): [Fraction(1)] * len(coords)}
        for word in itertools.product(range(sys.m), repeat=depth):
            self.interval(word)

    def interval(self, word):
        word = tuple(word)
        if word not in self._intervals:
            self._lay_out_row(word[:-1])
        return self._intervals[word]

    def _lay_out_row(self, parent):
        """Place the children of `parent` left to right with the gaps
        between them; the last child must end where the parent ends."""
        lo, hi = self.interval(parent)
        products = self._products[parent]
        weights = self._weights
        for j, (ratios, gap) in enumerate(zip(self._ratios, self._gap_at)):
            if gap is not None:
                lo += products[gap]
            child = parent + (j,)
            own = [p * r for p, r in zip(products, ratios)]
            end = lo + sum(w * p for w, p in zip(weights, own))
            self._intervals[child] = (lo, end)
            self._products[child] = own
            lo = end
        if lo != hi:
            raise CantorError("cantor: additivity fails at %s" % (parent,))


def build_cantor_tree(sys, constants, depth, cap=DEFAULT_CAP):
    return CantorTree(sys, constants, depth, cap)


@dataclass(frozen=True)
class LipschitzConstants:
    c0: Fraction
    c1_sq: Fraction      # c1 = dim * |a-b|, kept as its exact square
    radicand: Fraction   # s = |a-b|^2; irrationals live in Q(sqrt(s))
    Cprime: Fraction     # L / r*
    C0_p: Fraction       # C0 = C0_p + C0_q * sqrt(radicand)
    C0_q: Fraction


def lipschitz_constants(sys, constants):
    d = sys.dim
    ab_sq = sum((x - y) ** 2 for x, y in zip(sys.a, sys.b))
    c1_sq = Fraction(d * d) * ab_sq
    candidates = [abs(sys.a[0] - sys.b[0])]
    for j, tau in enumerate(sys.taus, start=1):
        if tau >= 2:
            candidates.append(abs(sys.deltas[j - 1][tau - 1]))
    c0 = min(candidates)
    if c0 <= 0:
        raise CantorError("cantor: degenerate system, c0 = 0")
    L = constants.L
    Cprime = L / sys.r_star
    # C0 = max{c1, (1 + 2*c1*L(1+2C') + 2*c0*L(1+2C')) / c0} in Q(sqrt(s))
    A = (1 + 2 * c0 * L * (1 + 2 * Cprime)) / c0
    B = 2 * L * (1 + 2 * Cprime) / c0 * d  # coefficient of sqrt(s)
    if quad_leq(A, B, Fraction(0), Fraction(d), ab_sq):
        p, q = Fraction(0), Fraction(d)  # C0 = c1
    else:
        p, q = A, B
    return LipschitzConstants(c0, c1_sq, ab_sq, Cprime, p, q)


@dataclass(frozen=True)
class RatioReport:
    min_ratio_sq: Fraction
    max_ratio_sq: Fraction
    pairs: int
    skipped: int          # identified codings (x == y)
    lower_ok: bool        # 1/c1 <= min ratio
    upper_ok: bool        # max ratio <= C0

    @property
    def passed(self):
        return self.lower_ok and self.upper_ok


def bilipschitz_check(sys, constants, depth, lip=None, cap=DEFAULT_CAP,
                      tree=None):
    """Envelope check over the canonical dense pair family.

    Enumerates x = phi_alpha(a), y = phi_beta(b) for all words of length
    <= depth and compares |u-v| / |x-y| (u, v the matching Cantor-tree
    endpoints) against [1/c1, C0], via exact squared arithmetic.  A
    `tree` for the same system shares its laid-out rows.
    """
    if lip is None:
        lip = lipschitz_constants(sys, constants)
    if tree is None:
        tree = CantorTree(sys, constants, 0, cap)
    lengths = range(max(depth, 0) + 1)
    n_words = 0
    for n in lengths:  # stops summing once the pairs are past the budget
        n_words += capped_power(sys.m, n, cap * 40)
        if n_words ** 2 > cap * 40:
            raise ResourceCapError("cantor", n_words ** 2, cap * 40)
    d = sys.dim
    # phi_w(p) is p's relative position in cylinder box w, lo + (hi - lo) * p
    # per coordinate; with p = ab / P, every coordinate is over M = top * P
    P, ab = common_denominator(sys.a + sys.b)
    sides = [[compose_labels([[mp.coords[j] for mp in sys.base.maps]] * n)
              for n in lengths] for j in range(d)]
    top = lcm(*(levels[-1][0] for levels in sides))
    M = top * P
    cols = [[(lo * P + (hi - lo) * ab[k]) * (top // den)
             for den, ends in levels for lo, hi in ends for k in (j, d + j)]
            for j, levels in enumerate(sides)]
    points = list(zip(*cols))
    X, Y = points[0::2], points[1::2]
    du, ends = common_denominator(
        v for n in lengths for w in itertools.product(range(sys.m), repeat=n)
        for v in tree.interval(w))
    U, V = ends[0::2], ends[1::2]
    # ratio^2 = (duv^2 / du^2) / (dist2 / M^2); track duv^2/dist2
    min_n = min_d = max_n = max_d = None
    pairs = 0
    skipped = 0
    for xa, ua in zip(X, U):
        for yb, vb in zip(Y, V):
            dist2 = 0
            for i in range(d):
                t = xa[i] - yb[i]
                dist2 += t * t
            if dist2 == 0:
                if ua != vb:
                    raise CantorError("cantor: identified codings map to "
                                      "distinct model points")
                skipped += 1
                continue
            duv = ua - vb
            num = duv * duv
            pairs += 1
            if min_n is None or num * min_d < min_n * dist2:
                min_n, min_d = num, dist2
            if max_n is None or num * max_d > max_n * dist2:
                max_n, max_d = num, dist2
    scale = Fraction(M * M, du * du)
    min_ratio_sq = Fraction(min_n, min_d) * scale
    max_ratio_sq = Fraction(max_n, max_d) * scale
    lower_ok = min_ratio_sq * lip.c1_sq >= 1
    upper_ok = sqrt_leq_quad(max_ratio_sq, lip.C0_p, lip.C0_q, lip.radicand)
    return RatioReport(min_ratio_sq, max_ratio_sq, pairs, skipped,
                       lower_ok, upper_ok)


@dataclass(frozen=True)
class BinaryNode:
    word: tuple        # binary address sigma
    alpha: tuple       # underlying m-ary word
    k1: int
    k2: int            # F_sigma = union of J_{alpha k1} .. J_{alpha k2}
    lo: Fraction
    hi: Fraction

    @property
    def length(self):
        return self.hi - self.lo


class BinaryCantorTree:
    def __init__(self, nodes, T, balance_ok, gap_ratio_table):
        self.nodes = nodes                    # sigma -> BinaryNode
        self.T = T
        self.balance_ok = balance_ok
        self.gap_ratio_table = gap_ratio_table  # depth -> min ratio (Fraction)


def to_binary_tree(sys, constants, depth, tree=None, cap=DEFAULT_CAP):
    """Binary grouping of the Cantor tree: left child strips the leftmost
    cylinder, right child keeps the rest.  Verifies T-balance with
    T = L/r* at every split and tabulates the per-depth min gap ratio."""
    nodes = capped_power(2, depth + 1, cap + 1) - 1  # 2^(depth+1) - 1 nodes
    if nodes > cap:
        raise ResourceCapError("cantor", nodes, cap)
    if tree is None:
        tree = CantorTree(sys, constants, 0, cap)
    m = sys.m
    T = constants.L / sys.r_star
    lo0, hi0 = tree.interval(())
    root = BinaryNode((), (), 0, m - 1, lo0, hi0)
    nodes = {(): root}
    gap_table = {}
    balance_ok = True
    frontier = [root]
    for level in range(depth):
        nxt = []
        for node in frontier:
            if node.k1 == node.k2:
                alpha = node.alpha + (node.k1,)
                k1, k2 = 0, m - 1
            else:
                alpha = node.alpha
                k1, k2 = node.k1, node.k2
            left_lo, left_hi = tree.interval(alpha + (k1,))
            left = BinaryNode(node.word + (0,), alpha, k1, k1, left_lo, left_hi)
            right_lo, _ = tree.interval(alpha + (k1 + 1,))
            _, right_hi = tree.interval(alpha + (k2,))
            right = BinaryNode(node.word + (1,), alpha, k1 + 1, k2,
                               right_lo, right_hi)
            ratio = left.length / right.length
            if not (1 / T <= ratio <= T):
                balance_ok = False
            dist = right.lo - left.hi
            if dist > 0:
                r = left.length / dist
                key = level + 1
                if key not in gap_table or r < gap_table[key]:
                    gap_table[key] = r
            nodes[left.word] = left
            nodes[right.word] = right
            nxt.extend((left, right))
        frontier = nxt
    return BinaryCantorTree(nodes, T, balance_ok, gap_table)
