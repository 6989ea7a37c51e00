"""Brute-force geometric oracles: delta-components, delta0-sequences,
pre-Moran sets, approximate squares, and the quantitative union bounds.

All connectivity predicates compare exact squared distances against
exact squared thresholds; no floating point enters any decision.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from math import isqrt, lcm
from operator import itemgetter

from .ifs import (Box, IFSError, Interval, compose_labels, major_projection,
                  validate_lg)
from .classify import Analysis
from .tree import ROOT, FiberIFS, TreeError, last_coordinate_fibers
from .util import (DEFAULT_CAP, ResourceCapError, capped_power,
                   common_denominator, exact_fraction)


class ComponentsError(Exception):
    """Domain error from the components module."""


class PreconditionError(ComponentsError):
    """A stated hypothesis failed; reported distinctly from a bound failure."""


@dataclass(frozen=True)
class PointSet:
    points: tuple

    def __post_init__(self):
        seen = {}
        for p in self.points:
            seen.setdefault(tuple(p), None)
        object.__setattr__(self, "points", tuple(seen))

    def __len__(self):
        return len(self.points)


def _point_dist_sq(p, q):
    return sum((a - b) * (a - b) for a, b in zip(p, q))


@dataclass(frozen=True)
class ComponentPartition:
    delta_sq: Fraction
    blocks: tuple      # tuple of tuples of object indices
    diam_sqs: tuple    # exact squared diameter per block

    @property
    def size(self):
        return len(self.blocks)

    def max_diam_sq(self):
        return max(self.diam_sqs)


def _positive(name, value):
    """An exact threshold (util.exact_fraction) that must be > 0."""
    value = exact_fraction(value)
    if value <= 0:
        raise ComponentsError("components: %s must be positive, got %s"
                              % (name, value))
    return value


def _uniform(objects):
    """The objects as a list, all boxes or all points of one dimension;
    a PointSet gives its points."""
    if isinstance(objects, PointSet):
        objects = objects.points
    objects = list(objects)
    if len({("box", x.dim) if isinstance(x, Box) else ("point", len(x))
            for x in objects}) > 1:
        raise ComponentsError("components: objects must all be boxes or "
                              "all points, of one dimension")
    return objects


def _columns(objects):
    """One IntervalSet per coordinate of the objects; a point is a box
    with lo == hi."""
    objects = _uniform(objects)
    if not objects:
        raise ComponentsError("components: empty object list")
    if isinstance(objects[0], Box):
        return [IntervalSet.of(column)
                for column in zip(*(b.sides for b in objects))]
    return [IntervalSet(den, zip(ints, ints))
            for den, ints in map(common_denominator, zip(*objects))]


def _far_sq(a, b):
    """Squared max distance between points of two integer extents."""
    total = 0
    for (alo, ahi), (blo, bhi) in zip(a, b):
        f = max(ahi - blo, bhi - alo)
        total += f * f
    return total


class _SingleLinkage:
    """Single linkage over exact integer squared gaps (Kruskal order).

    The objects come as one IntervalSet per coordinate.  The pairs
    within the largest threshold are scaled to integers and sorted once;
    merge_to then unions them in ascending gap order, so one pass
    answers every threshold up to that largest one.  Each block
    carries its exact squared diameter, which only grows under merging.
    """

    def __init__(self, columns, max_delta_sq):
        # distances add across coordinates, so the columns share one scale
        den = lcm(*(c.den for c in columns))
        steps = [(c.ends, den // c.den) for c in columns]
        ext = list(zip(*([(lo * s, hi * s) for lo, hi in ends]
                         for ends, s in steps)))
        n = len(ext)
        self.den_sq = den * den
        self.n = n
        self.ext = ext
        limit = self._limit(max_delta_sq)
        reach = isqrt(limit)
        # sweep along the first coordinate: once the next box starts more
        # than sqrt(limit) past the current one's end, so do all later ones
        order = sorted(range(n), key=lambda i: ext[i][0][0])
        keys = []
        for pos, i in enumerate(order):
            a = ext[i]
            end = a[0][1] + reach
            for j in order[pos + 1:]:
                b = ext[j]
                if b[0][0] > end:
                    break
                gap = 0
                for (alo, ahi), (blo, bhi) in zip(a, b):
                    g = blo - ahi if blo > ahi else alo - bhi
                    if g > 0:
                        gap += g * g
                if gap <= limit:
                    # one int per pair sorts as (gap, i, j)
                    keys.append((gap * n + i) * n + j)
        keys.sort()
        self.keys = keys
        self.next_key = 0
        self.parent = list(range(n))
        self.members = [[i] for i in range(n)]
        self.diam = [_far_sq(e, e) for e in ext]
        self.count = n
        self.max_diam = max(self.diam)

    def _limit(self, delta_sq):
        """floor(delta_sq * den^2): exact, since every gap is an integer."""
        return delta_sq.numerator * self.den_sq // delta_sq.denominator

    def _find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def merge_to(self, delta_sq):
        """Union every pair with squared gap <= delta_sq; thresholds must
        come in ascending order and not exceed the constructor's."""
        n = self.n
        bound = (self._limit(delta_sq) + 1) * n * n
        keys, k = self.keys, self.next_key
        ext, members, diam = self.ext, self.members, self.diam
        while k < len(keys) and keys[k] < bound:
            rest, j = divmod(keys[k], n)
            i = rest % n
            k += 1
            ri, rj = self._find(i), self._find(j)
            if ri == rj:
                continue
            if len(members[ri]) < len(members[rj]):
                ri, rj = rj, ri
            big, small = members[ri], members[rj]
            cross = max(_far_sq(ext[a], ext[b]) for a in big for b in small)
            diam[ri] = max(diam[ri], diam[rj], cross)
            big.extend(small)
            members[rj] = None
            self.parent[rj] = ri
            self.count -= 1
            if diam[ri] > self.max_diam:
                self.max_diam = diam[ri]
        self.next_key = k

    def max_diam_sq(self):
        return Fraction(self.max_diam, self.den_sq)

    def partition(self, delta_sq):
        roots = [r for r in range(self.n) if self.parent[r] == r]
        blocks = sorted((tuple(sorted(self.members[r])), r) for r in roots)
        return ComponentPartition(
            delta_sq, tuple(b for b, _ in blocks),
            tuple(Fraction(self.diam[r], self.den_sq) for _, r in blocks))


def delta_components_sq(objects, delta_sq):
    """Blocks and exact squared diameters of the closure of
    dist^2 <= delta_sq over the objects."""
    delta_sq = _positive("delta_sq", delta_sq)
    linkage = _SingleLinkage(_columns(objects), delta_sq)
    linkage.merge_to(delta_sq)
    return linkage.partition(delta_sq)


def delta_components(objects, delta):
    """delta-connected components of a finite point set or box collection."""
    delta = _positive("delta", delta)
    return delta_components_sq(objects, delta * delta)


class IntervalSet(Sequence):
    """Closed intervals as integer (lo, hi) ends over one positive
    denominator, in the order given: interval k is ends[k] / den.

    It reads as a tuple of Intervals (len, indexing, iteration, equality
    with a tuple) and builds an Interval only when one is read.  Its
    sorted gap list is built on first use and kept as long as the set,
    so interval_components answers every delta from one sort.
    """

    __slots__ = ("den", "ends", "_gaps")

    def __init__(self, den, ends):
        self.den = den
        self.ends = ends = tuple(ends)
        self._gaps = None
        if not den > 0:
            raise ComponentsError("components: interval denominator must "
                                  "be positive")
        if any(lo > hi for lo, hi in ends):
            raise IFSError("ifs: interval with lo > hi")

    @classmethod
    def of(cls, intervals):
        """The Intervals in their order over their common denominator; an
        IntervalSet is returned as it is."""
        if isinstance(intervals, cls):
            return intervals
        den, ints = common_denominator(
            v for iv in intervals for v in (iv.lo, iv.hi))
        return cls(den, zip(ints[0::2], ints[1::2]))

    def __len__(self):
        return len(self.ends)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return IntervalSet(self.den, self.ends[k])
        lo, hi = self.ends[k]
        return Interval(Fraction(lo, self.den), Fraction(hi, self.den))

    def __iter__(self):
        den = self.den
        return (Interval(Fraction(lo, den), Fraction(hi, den))
                for lo, hi in self.ends)

    def __eq__(self, other):
        if isinstance(other, IntervalSet):
            other = tuple(other)
        if not isinstance(other, tuple):
            return NotImplemented
        return tuple(self) == other

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return "IntervalSet(%d, %r)" % (self.den, self.ends)

    def gap_list(self):
        """(order, starts, reach, gaps): the indices in order of left end,
        their left ends, the running maximum of their right ends, and
        gaps[k - 1] = starts[k] - reach[k - 1]."""
        if self._gaps is None:
            ends = self.ends
            los = [lo for lo, _ in ends]
            order = sorted(range(len(ends)), key=los.__getitem__)
            starts = [ends[k][0] for k in order]
            reach = list(accumulate((ends[k][1] for k in order), max))
            gaps = [s - r for s, r in zip(starts[1:], reach)]
            self._gaps = order, starts, reach, gaps
        return self._gaps


def interval_components(intervals, delta):
    """Fast 1-D path: blocks and exact diameters of closed intervals.

    Returns (blocks, diams) like delta_components, with blocks as index
    tuples into the input ordered by their first index, and diams as
    exact rational lengths.  Agrees with delta_components on 1-D boxes.
    `intervals` is an IntervalSet or a sequence of Intervals.

    Single linkage on a line is the sorted gap list.  Over the
    intervals' common denominator, sort them by left end and take the
    running maximum right end; delta cuts that order where an interval
    starts more than delta past it.  Every block is a run, and its
    diameter is its last running maximum minus its first left end: the
    blocks before it end strictly to its left.  An IntervalSet keeps its
    gap list, so a further delta costs one comparison per gap.
    """
    delta = _positive("delta", delta)
    intervals = IntervalSet.of(intervals)
    n = len(intervals)
    if not n:
        return (), ()
    den = intervals.den
    order, starts, reach, gaps = intervals.gap_list()
    # an integer gap exceeds delta * den iff it exceeds its floor
    limit = delta.numerator * den // delta.denominator
    cuts = [k for k, gap in enumerate(gaps, start=1) if gap > limit]
    pairs = sorted((tuple(sorted(order[a:b])),
                    Fraction(reach[b - 1] - starts[a], den))
                   for a, b in zip([0] + cuts, cuts + [n]))
    return tuple(b for b, _ in pairs), tuple(d for _, d in pairs)


def delta0_sequence_exists(points, delta0):
    """Search for a delta0-sequence: distinct x0..xn with every step
    <= delta0 * dist(x0, xn).  Returns (found, sequence_or_None)."""
    delta0 = _positive("delta0", delta0)
    return delta0_sequence_exists_sq(points, delta0 * delta0)


def delta0_sequence_exists_sq(points, delta0_sq):
    """Same search with the threshold given as an exact square, for
    thresholds like 1/(2*M0) that are rational only after squaring."""
    pts = PointSet(tuple(tuple(p) for p in _uniform(points))).points
    if len(pts) < 2:
        raise ComponentsError("components: need at least 2 points")
    d0_sq = _positive("delta0_sq", delta0_sq)
    n = len(pts)
    dist_sq = [[_point_dist_sq(pts[i], pts[j]) for j in range(n)]
               for i in range(n)]
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            step_sq = d0_sq * dist_sq[a][b]
            # BFS from a to b along steps of squared length <= step_sq
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


def _cylinder_columns(ifs, depth, cap):
    """Per coordinate j, the IntervalSet of side j of every depth-n
    cylinder box, lexicographic in the word: coordinate j's maps
    composed along the word."""
    # a depth-n word takes n compositions, even when there is one map
    count = max(capped_power(ifs.size, depth, cap), min(depth, cap + 1))
    if count > cap:
        raise ResourceCapError("components", count, cap)
    return [IntervalSet(*compose_labels([[m.coords[j] for m in ifs.maps]]
                                        * depth)) for j in range(ifs.dim)]


def enumerate_cylinders(ifs, depth, cap=DEFAULT_CAP):
    """All depth-n cylinder boxes, in lexicographic word order."""
    return [Box(sides) for sides in zip(*_cylinder_columns(ifs, depth, cap))]


def component_diameter_profile(ifs, depth, deltas, cap=DEFAULT_CAP):
    """Per delta: component count, exact max squared diameter, and the
    squared ratio (max diam / delta)^2 over depth-n cylinder boxes."""
    if depth < 1:
        raise ComponentsError("components: depth must be >= 1")
    if not validate_lg(ifs).lg_type:
        raise ComponentsError("components: input is not of Lalley-Gatzouras type")
    columns = _cylinder_columns(ifs, depth, cap)
    grid = [_positive("delta", delta) for delta in deltas]
    if not grid:
        return []
    # one pass over the distinct thresholds, smallest first
    linkage = _SingleLinkage(columns, max(grid) ** 2)
    rows = {}
    for delta in sorted(set(grid)):
        linkage.merge_to(delta * delta)
        mx = linkage.max_diam_sq()
        rows[delta] = {"delta": delta, "num_components": linkage.count,
                       "max_diam_sq": mx, "ratio_sq": mx / (delta * delta)}
    return [dict(rows[delta]) for delta in grid]


class SimpleIFSFamily:
    """Family F_1..F_p of simple IFS' of [0,1], none with attractor [0,1].

    Members are FiberIFS' or label tuples; a member that is empty, not a
    simple IFS of [0,1] or tiles [0,1] is a PreconditionError.  Carries the
    derived constants used by the pre-Moran component bound.
    """

    def __init__(self, members):
        try:
            fibers = [m if isinstance(m, FiberIFS) else FiberIFS(ROOT, m)
                      for m in members]
        except TreeError as exc:
            raise PreconditionError("components: family member is not a "
                                    "simple IFS of [0,1]: %s" % exc)
        if not fibers:
            raise ComponentsError("components: empty family")
        if not all(f.labels for f in fibers):
            raise PreconditionError("components: empty family member")
        self.members = norm = tuple(f.labels for f in fibers)
        self.alphas = tuple(min(g.ratio for g in m) for m in norm)
        self.betas = tuple(max(g.ratio for g in m) for m in norm)
        self.measures = tuple(sum(g.ratio for g in m) for m in norm)
        self.counts = tuple(len(m) for m in norm)
        self.gaps = tuple(max(f.gaps) for f in fibers)
        for j, g in enumerate(self.gaps, start=1):
            if g == 0:
                raise PreconditionError(
                    "components: family member %d has attractor [0,1]" % j)
        self.alpha_star = min(self.alphas)
        self.beta_star = max(self.betas)
        self.L_star = max(self.measures)
        self.N_star = max(self.counts)
        self.g_star = (1 - self.L_star) / (self.N_star + 2)

    @property
    def size(self):
        return len(self.members)


@dataclass(frozen=True)
class PreMoranSet:
    family: SimpleIFSFamily
    word: tuple
    intervals: IntervalSet  # sorted by left endpoint


def pre_moran_intervals(family, word, cap=DEFAULT_CAP):
    """Basic intervals of F_{i_1} o ... o F_{i_k}([0,1]), sorted."""
    word = tuple(word)
    if not word:
        raise ComponentsError("components: pre-Moran word must be nonempty")
    # a length-k word takes k compositions, even when every member has one map
    count = 1
    for k, i in enumerate(word, start=1):
        if not (1 <= i <= family.size):
            raise ComponentsError("components: family index %d out of range" % i)
        count *= family.counts[i - 1]
        if max(count, k) > cap:
            raise ResourceCapError("components", max(count, k), cap)
    den, ends = compose_labels([family.members[i - 1] for i in word])
    # one denominator, so the integer order is the order of the values
    ends.sort(key=itemgetter(0))
    return PreMoranSet(family, word, IntervalSet(den, ends))


@dataclass(frozen=True)
class MoranBoundReport:
    admissible: bool
    bound: Fraction
    max_component_diam: Fraction
    holds: bool


def check_premoran_bound(family, word, delta, cap=DEFAULT_CAP):
    """Pre-Moran component-diameter bound at threshold delta.

    admissible iff delta >= (g*/alpha*) * prod beta_{i_j}; the bound
    (2/(g* alpha*) + 1) * delta must hold whenever delta is admissible.
    """
    delta = exact_fraction(delta)
    pm = pre_moran_intervals(family, word, cap)
    threshold = (family.g_star / family.alpha_star)
    for i in word:
        threshold *= family.betas[i - 1]
    admissible = delta >= threshold
    bound = (2 / (family.g_star * family.alpha_star) + 1) * delta
    _, diams = interval_components(pm.intervals, delta)
    max_diam = max(diams)
    return MoranBoundReport(admissible, bound, max_diam, max_diam <= bound)


def _within(objects, delta, factor):
    """Is every delta-component of an IntervalSet or a list of points of
    diameter <= factor * delta?"""
    if isinstance(objects, IntervalSet):
        return max(interval_components(objects, delta)[1]) <= factor * delta
    part = delta_components(objects, delta)
    return part.max_diam_sq() <= (factor * delta) ** 2


def check_union_bound(sets, deltas, C):
    """Union-of-n-sets bound with constant (9C)^(2^(n-1))/9.

    Verifies first that each input set satisfies diam <= C*delta for
    every delta in the grid (PreconditionError otherwise), then checks
    the union bound across the grid.  A set of Intervals, and their
    union, become one IntervalSet each, whose gap list every delta reuses.
    """
    C = exact_fraction(C)
    deltas = [exact_fraction(delta) for delta in deltas]
    sets = [list(s) for s in sets]
    if not sets or not all(sets):
        raise ComponentsError("components: union bound needs nonempty sets")
    n = len(sets)
    union = [x for s in sets for x in s]
    if isinstance(union[0], Interval):
        sets = [IntervalSet.of(s) for s in sets]
        union = IntervalSet.of(union)
    for delta in deltas:
        for k, s in enumerate(sets, start=1):
            if not _within(s, delta, C):
                raise PreconditionError(
                    "components: set %d violates the C*delta bound at "
                    "delta=%s" % (k, delta))
    M = (9 * C) ** (2 ** (n - 1)) / 9
    return all(_within(union, delta, M) for delta in deltas)


@dataclass(frozen=True)
class ApproxSquare:
    box: Box
    depths: tuple  # per-coordinate l(j)


def approx_square(ifs, word, delta):
    """The delta-approximate square along `word`: in each coordinate,
    iterate until the ratio product first drops strictly below delta."""
    delta = _positive("delta", delta)
    word = tuple(word)
    for e in word:
        if not (1 <= e <= ifs.size):
            raise IFSError("ifs: symbol %d out of range 1..%d" % (e, ifs.size))
    depths = [None] * ifs.dim
    sides = [None] * ifs.dim
    comp = None
    for k, e in enumerate(word, start=1):
        phi = ifs.maps[e - 1]
        comp = phi if comp is None else comp.compose(phi)
        for j, c in enumerate(comp.coords):
            if depths[j] is None and c.ratio < delta:
                depths[j], sides[j] = k, c.image()
        if None not in depths:
            break
    else:
        j = depths.index(None)
        raise ComponentsError(
            "components: word too short for coordinate %d at delta=%s"
            % (j + 1, delta))
    return ApproxSquare(Box(tuple(sides)), tuple(depths))


def _scaled(ends, den, scale):
    """Integer (lo, hi) ends over `den` moved to the multiple `scale`."""
    s = scale // den
    return [(lo * s, hi * s) for lo, hi in ends]


def check_product_decomposition(ifs, k, cap=DEFAULT_CAP):
    """Depth-k cylinders equal the union of (projected cylinder) x
    (fiber pre-Moran interval) products, as exact box sets; `ifs` may be
    an Analysis.

    Both sides come from compose_labels as integer sides; scaled to one
    common denominator per coordinate, each box is a tuple of integer
    (lo, hi) pairs and the sets compare as sets of tuples.
    """
    analysis = Analysis.of(ifs)
    ifs = analysis.ifs
    if ifs.dim < 2:
        raise ComponentsError("components: product decomposition needs d >= 2")
    lhs = _cylinder_columns(ifs, k, cap)
    proj = major_projection(ifs, ifs.dim - 1)
    base = _cylinder_columns(proj, k, cap)
    fibers = [f.labels for f in last_coordinate_fibers(analysis.tree)]
    # one fiber pre-Moran set per projected word, in the words' order
    last = [compose_labels([fibers[j] for j in word])
            for word in product(range(proj.size), repeat=k)]
    scales = [lcm(a.den, b.den) for a, b in zip(lhs, base)]
    scales.append(lcm(lhs[-1].den, *(den for den, _ in last)))
    left = set(zip(*(_scaled(c.ends, c.den, s) for c, s in zip(lhs, scales))))
    right = set()
    for sides, (den, ends) in zip(
            zip(*(_scaled(c.ends, c.den, s) for c, s in zip(base, scales))),
            last):
        right.update(sides + (iv,) for iv in _scaled(ends, den, scales[-1]))
    return left == right
