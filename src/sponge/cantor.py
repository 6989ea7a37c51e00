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
from fractions import Fraction
from math import lcm

from .classify import (EXACTLY_ONE, Analysis, classify,
                       extract_special_subsystem)
from .ifs import SpongeIFS, compose_scaled, fixed_point, scale_labels
from .util import (DEFAULT_CAP, DomainError, Record, ResourceCapError,
                   capped_power, common_denominator, sqrt_leq_quad)


class CantorError(DomainError):
    """Domain error from the cantor module."""


class SpecialSystem(Record):
    base: SpongeIFS     # maps left to right by first coordinate
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


class SeriesConstants(Record):
    s: tuple       # geometric-series base per gap index (0 when tau_j = 0)
    L: Fraction


def analyze_special_system(ifs):
    """Exact constants of a special system (an IFS or its Analysis), whose
    base is F0 at the witness, the root (extract_special_subsystem): the
    maps left to right by first-coordinate image."""
    analysis = Analysis.of(ifs)
    result = classify(analysis)
    if result.conformal_dim_class != EXACTLY_ONE:
        raise CantorError(
            "cantor: system does not satisfy the special-form hypotheses "
            "(class %s)" % result.conformal_dim_class)
    base = extract_special_subsystem(analysis, result.witness).sub_ifs
    maps = base.maps
    m = len(maps)
    a = fixed_point(maps[0])
    b = fixed_point(maps[-1])
    a_pts = tuple(mp(a) for mp in maps)
    b_pts = tuple(mp(b) for mp in maps)
    deltas = []
    taus = []
    for j in range(1, m):
        delta = tuple(x - y for x, y in zip(a_pts[j], b_pts[j - 1]))
        tau = 0
        for i, x in enumerate(delta, start=1):
            if x != 0:
                tau = i
                break
        deltas.append(delta)
        taus.append(tau)
    s_values = [sum(mp.coords[tau - 1].ratio for mp in maps) if tau
                else Fraction(0) for tau in taus]
    L = 1 + sum(1 / (1 - s) for s, tau in zip(s_values, taus) if tau >= 2)
    r_star = min(mp.coords[0].ratio for mp in maps)
    sys = SpecialSystem(base, a, b, a_pts, b_pts, tuple(deltas), tuple(taus),
                        r_star)
    return sys, SeriesConstants(tuple(s_values), L)


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
    """Lazy interval layout of the m-branch Cantor tree on [0, L], in
    integers.

    Row k holds the words of length k with integer (lo, hi) ends over one
    denominator D_k = W * Q**k.  The closed forms of cylinder_length and
    gap_length are sums of ratio products along the word over coordinate 1
    and the gap coordinates, so each word keeps those products as integer
    numerators over Q**k: a child's are its parent's times one map's.  Q is
    the lcm of the ratio denominators on these coordinates, and W the lcm
    of the length weights' denominators and L's.  Rows are laid out one
    sibling row at a time, which checks additivity at the parent in
    integers; construction lays out every row above `depth`.  `interval`
    reads a word's ends as Fractions.
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
        self.W, ints = common_denominator(weights + [constants.L])
        self._weights = ints[:-1]
        self.Q, ratios = common_denominator(
            mp.coords[t - 1].ratio for mp in sys.base.maps for t in coords)
        c = len(coords)
        self._ratios = [tuple(ratios[i:i + c])
                        for i in range(0, len(ratios), c)]
        # the gap before child j reads the product at its tau, if any
        self._gap_at = [None] + [coords.index(tau) if tau else None
                                 for tau in sys.taus]
        self.sys = sys
        # word -> (lo, hi, products), all integers
        self._nodes = {(): (0, ints[-1], (1,) * c)}
        for word in itertools.product(range(sys.m), repeat=depth):
            self._node(word)

    def interval(self, word):
        word = tuple(word)
        lo, hi = self.ends(word)
        den = self.den(len(word))
        return Fraction(lo, den), Fraction(hi, den)

    def den(self, k):
        """D_k, the denominator of row k."""
        return self.W * self.Q ** k

    def ends(self, word):
        """The integer (lo, hi) ends of J_word over D_len(word)."""
        return self._node(word)[:2]

    def row(self, k):
        """ends() of the words of length k, in lexicographic order."""
        return [self.ends(w)
                for w in itertools.product(range(self.sys.m), repeat=k)]

    def _node(self, word):
        if word not in self._nodes:
            self._lay_out_row(word[:-1])
        return self._nodes[word]

    def _lay_out_row(self, parent):
        """Place the children of `parent` left to right with the gaps
        between them; the last child must end where the parent ends."""
        lo, hi, products = self._node(parent)
        Q = self.Q
        lo *= Q  # onto the children's row denominator
        gap_scale = self.W * Q
        weights = self._weights
        for j, (ratios, gap) in enumerate(zip(self._ratios, self._gap_at)):
            if gap is not None:
                lo += gap_scale * products[gap]
            own = tuple(p * r for p, r in zip(products, ratios))
            end = lo + sum(w * p for w, p in zip(weights, own))
            self._nodes[parent + (j,)] = (lo, end, own)
            lo = end
        if lo != hi * Q:
            raise CantorError("cantor: additivity fails at %s" % (parent,))


def build_cantor_tree(sys, constants, depth, cap=DEFAULT_CAP):
    return CantorTree(sys, constants, depth, cap)


class LipschitzConstants(Record):
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
    L = constants.L
    Cprime = L / sys.r_star
    # C0 = max{c1, (1 + 2*c1*L(1+2C') + 2*c0*L(1+2C')) / c0} in Q(sqrt(s)),
    # which is the second term: L >= 1 and c0 <= |a1-b1| <= 1 make it > 2*c1
    A = (1 + 2 * c0 * L * (1 + 2 * Cprime)) / c0
    B = 2 * L * (1 + 2 * Cprime) / c0 * d  # coefficient of sqrt(s)
    return LipschitzConstants(c0, c1_sq, ab_sq, Cprime, A, B)


class RatioReport(Record):
    min_ratio_sq: Fraction
    max_ratio_sq: Fraction
    pairs: int
    skipped: int          # identified codings (x == y)
    lower_ok: bool        # 1/c1 <= min ratio
    upper_ok: bool        # max ratio <= C0

    @property
    def passed(self):
        return self.lower_ok and self.upper_ok


def bilipschitz_check(sys, constants, depth, cap=DEFAULT_CAP, tree=None,
                      lip=None):
    """Envelope check over the canonical dense pair family.

    Compares |u-v| / |x-y| against [1/c1, C0] in exact squared arithmetic
    for x = phi_alpha(a), y = phi_beta(b) over all words of length <= depth,
    with u, v the left end of J_alpha and the right end of J_beta.  As
    phi_{w0}(a) = phi_w(a) and J_{w0} starts where J_w starts (and the last
    child shares b and J_w's end), the words of length `depth` carry every
    value: a leaf stands for 1 + its trailing 0s on the a side and 1 + its
    trailing (m-1)s on the b side.

    The extreme ratios come from a dual-tree branch and bound over pairs of
    word-tree nodes (alpha, beta), one tree per side, built from its
    leaves up: only the depth-n sides and row n of the Cantor tree are
    composed, and a node takes the extent of its leaves' points and the
    range of their endpoints, which lie in the cylinder box of alpha and
    in J_alpha.  So the ratios below a node pair lie in [gapJ^2 / far^2,
    farJ^2 / gap^2], from the nearest and farthest points of the two boxes
    and of the two intervals.  A node pair whose boxes are disjoint and
    whose range lies inside the current [min, max] is dropped; otherwise
    its shallower node is split.  A dropped pair holds no x = y, so
    `pairs` and `skipped` still count word pairs over the whole family.
    A `tree` for the same system shares its laid-out rows, and `lip`
    its lipschitz_constants.
    """
    if lip is None:
        lip = lipschitz_constants(sys, constants)
    if tree is None:
        tree = CantorTree(sys, constants, 0, cap)
    n = max(depth, 0)
    n_words = 0
    for k in range(n + 1):  # stops summing once the pairs are past the budget
        n_words += capped_power(sys.m, k, cap * 40)
        if n_words ** 2 > cap * 40:
            raise ResourceCapError("cantor", n_words ** 2, cap * 40)
    m, d = sys.m, sys.dim
    # phi_w(p) is p's relative position in cylinder box w, lo + (hi - lo) * p
    # per coordinate; with p = ab / P, every coordinate is over M, P times
    # the lcm of the depth-n side denominators, and every end of a tree row
    # over the leaves' row denominator D_n
    P, ab = common_denominator(sys.a + sys.b)
    sides = [compose_scaled([scale_labels(column)] * n)
             for column in zip(*(mp.coords for mp in sys.base.maps))]
    top = lcm(*(den for den, _ in sides))
    M = top * P
    J = tree.row(n)
    # per side, level k lists its nodes (box los, box his, interval lo,
    # interval hi): a leaf is (point, point, endpoint, endpoint), a node
    # the extents of its m children's
    a_side, b_side = [], []
    for side, p, e in ((a_side, ab[:d], 0), (b_side, ab[d:], 1)):
        pts = zip(*([(lo * P + (hi - lo) * pj) * (top // den)
                     for lo, hi in ends] for (den, ends), pj in zip(sides, p)))
        level = [(x, x, iv[e], iv[e]) for x, iv in zip(pts, J)]
        side.append(level)
        for _ in range(n):
            level = [(tuple(map(min, *(c[0] for c in kids))),
                      tuple(map(max, *(c[1] for c in kids))),
                      min(c[2] for c in kids), max(c[3] for c in kids))
                     for kids in (level[i:i + m]
                                  for i in range(0, len(level), m))]
            side.append(level)
        side.reverse()
    # a leaf stands for 1 + its trailing 0s (a side), (m-1)s (b side) words
    weights = []
    for digit in (0, m - 1):
        ws = [1]
        for _ in range(n):
            ws = [w + 1 if c == digit else 1 for w in ws for c in range(m)]
        weights.append(ws)
    wa, wb = weights
    a_leaves, b_leaves = a_side[n], b_side[n]
    # ratio^2 = ((u - v)^2 / D_n^2) / (|x - y|^2 / M^2); track
    # (u - v)^2 / |x - y|^2, from an infinite minimum and a zero maximum
    min_n, min_d, max_n, max_d = 1, 0, 0, 1
    skipped = 0
    # node pairs (level a, node a, level b, node b) to bound
    stack = [(0, 0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        ka, ia, kb, ib = pop()
        alos, ahis, ulo, uhi = a_side[ka][ia]
        blos, bhis, vlo, vhi = b_side[kb][ib]
        # squared nearest and farthest distances of the intervals and of
        # the boxes (explicit branches: builtin max costs a call per pair);
        # a pair is dropped only if near * min_d >= min_n * far2 with
        # far2 > 0, so meeting intervals under a positive minimum split
        # before the boxes are read
        t = vlo - uhi
        if t < 0:
            t = ulo - vhi
            if t < 0:
                t = 0
        near = t * t
        if near * min_d or not min_n:
            gap2 = far2 = 0
            for alo, ahi, blo, bhi in zip(alos, ahis, blos, bhis):
                t = blo - ahi
                if t < 0:
                    t = alo - bhi
                    if t < 0:
                        t = 0
                gap2 += t * t
                t = bhi - alo
                f = ahi - blo
                if f > t:
                    t = f
                far2 += t * t
            t = vhi - ulo
            f = uhi - vlo
            if f > t:
                t = f
            span = t * t
            if gap2 and near * min_d >= min_n * far2 \
                    and span * max_d <= max_n * gap2:
                continue
        if ka <= kb and ka < n:
            base = ia * m
            for c in range(m):
                push((ka + 1, base + c, kb, ib))
        elif kb + 1 < n:
            base = ib * m
            for c in range(m):
                push((ka, ia, kb + 1, base + c))
        else:
            # ka = n: compare the leaf with b's leaf children, or at depth
            # 0 with the one root leaf (the slice stops at the list's end)
            x, _, u, _ = a_leaves[ia]
            base = ib * m
            for jb, (y, _, v, _) in enumerate(b_leaves[base:base + m], base):
                dist2 = 0
                for p, q in zip(x, y):
                    dist2 += (p - q) * (p - q)
                if dist2 == 0:
                    if u != v:
                        raise CantorError("cantor: identified codings map "
                                          "to distinct model points")
                    skipped += wa[ia] * wb[jb]
                    continue
                num = (u - v) * (u - v)
                if num * min_d < min_n * dist2:
                    min_n, min_d = num, dist2
                if num * max_d > max_n * dist2:
                    max_n, max_d = num, dist2
    pairs = n_words * n_words - skipped
    scale = Fraction(M * M, tree.den(n) ** 2)
    min_ratio_sq = Fraction(min_n, min_d) * scale
    max_ratio_sq = Fraction(max_n, max_d) * scale
    lower_ok = min_ratio_sq * lip.c1_sq >= 1
    upper_ok = sqrt_leq_quad(max_ratio_sq, lip.C0_p, lip.C0_q, lip.radicand)
    return RatioReport(min_ratio_sq, max_ratio_sq, pairs, skipped,
                       lower_ok, upper_ok)


class BinaryNode(Record):
    word: tuple        # binary address sigma
    alpha: tuple       # underlying m-ary word
    k1: int
    k2: int            # F_sigma = union of J_{alpha k1} .. J_{alpha k2}
    lo: Fraction
    hi: Fraction


class BinaryCantorTree(Record):
    nodes: dict            # sigma -> BinaryNode
    T: Fraction
    balance_ok: bool
    gap_ratio_table: dict  # depth -> min ratio (Fraction)


def to_binary_tree(sys, constants, depth, tree=None, cap=DEFAULT_CAP):
    """Binary grouping of the Cantor tree: left child strips the leftmost
    cylinder, right child keeps the rest.  Verifies T-balance with
    T = L/r* at every split and tabulates the per-depth min gap ratio.
    A split reads its three cylinders from one tree row, so both checks
    compare the row's integer ends."""
    nodes = capped_power(2, depth + 1, cap + 1) - 1  # 2^(depth+1) - 1 nodes
    if nodes > cap:
        raise ResourceCapError("cantor", nodes, cap)
    if tree is None:
        tree = CantorTree(sys, constants, 0, cap)
    m = sys.m
    T = constants.L / sys.r_star
    tn, td = T.as_integer_ratio()
    lo0, hi0 = tree.interval(())
    root = BinaryNode((), (), 0, m - 1, lo0, hi0)
    nodes = {(): root}
    gaps = {}  # depth -> (length, gap) of the min gap ratio
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
            left_lo, left_hi = tree.ends(alpha + (k1,))
            right_lo = tree.ends(alpha + (k1 + 1,))[0]
            right_hi = tree.ends(alpha + (k2,))[1]
            # 1/T <= left / right <= T
            a, b = left_hi - left_lo, right_hi - right_lo
            if not (b * td <= tn * a and a * td <= tn * b):
                balance_ok = False
            dist = right_lo - left_hi
            if dist > 0:
                key = level + 1
                if key not in gaps or a * gaps[key][1] < gaps[key][0] * dist:
                    gaps[key] = a, dist
            den = tree.den(len(alpha) + 1)
            left = BinaryNode(node.word + (0,), alpha, k1, k1,
                              Fraction(left_lo, den), Fraction(left_hi, den))
            right = BinaryNode(node.word + (1,), alpha, k1 + 1, k2,
                               Fraction(right_lo, den), Fraction(right_hi, den))
            nodes[left.word] = left
            nodes[right.word] = right
            nxt.extend((left, right))
        frontier = nxt
    gap_table = {key: Fraction(a, dist) for key, (a, dist) in gaps.items()}
    return BinaryCantorTree(nodes, T, balance_ok, gap_table)
