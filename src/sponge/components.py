"""Brute-force geometric oracles: delta-components, delta0-sequences,
pre-Moran sets, approximate squares, and the quantitative union bounds.

All connectivity predicates compare exact squared distances against
exact squared thresholds; no floating point enters any decision.
"""

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, groupby, islice, repeat
from math import isqrt, lcm
from operator import itemgetter, sub

from .ifs import (Box, Interval, check_interval_ends, compose_scaled,
                  cylinder_box, scale_labels, validate_lg, word_maps)
from .classify import Analysis, attractor_is_unit_interval
from .tree import ROOT, FiberIFS, TreeError, last_coordinate_fibers
from .util import (DEFAULT_CAP, DomainError, Record, ResourceCapError,
                   capped_power, common_denominator, exact_fraction)


class ComponentsError(DomainError):
    """Domain error from the components module."""


class PreconditionError(ComponentsError):
    """A stated hypothesis failed; reported distinctly from a bound failure."""


class _PairChargeError(ResourceCapError):
    """The sweep window past the cap, in thousands of one-word pair tests."""

    message = "%s: would test at least %d thousand one-word pairs, cap is %d"


class PointSet(Record):
    points: tuple

    def __post_init__(self):
        seen = {}
        for p in self.points:
            seen.setdefault(tuple(p), None)
        object.__setattr__(self, "points", tuple(seen))


class ComponentPartition(Record):
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
    # a Fraction's denominator is positive
    if value.numerator <= 0:
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


def _scaled(ends, den, scale):
    """Integer (lo, hi) ends over `den` moved to the multiple `scale`."""
    s = scale // den
    return [(lo * s, hi * s) for lo, hi in ends]


def _far_sq(a, b):
    """Squared max distance between points of two integer extents."""
    total = 0
    for (alo, ahi), (blo, bhi) in zip(a, b):
        f, g = ahi - blo, bhi - alo
        if g > f:
            f = g
        total += f * f
    return total


class _SingleLinkage:
    """Single linkage over exact integer squared gaps, on an ascending
    grid of squared thresholds.

    The objects come as one IntervalSet per coordinate, scaled to one
    integer denominator.  A box starting more than sqrt(limit) past
    another's end on any coordinate is too far for the largest integer
    limit, so the candidate pairs come from a sweep along the
    coordinate, axis, whose windows hold the fewest pairs (the first on
    a tie).  Before any pair is tested, the window is charged against
    cap in thousands of pair tests on one 64-bit word: its pairs times
    the 64-bit words of the largest limit, over 1000.  Each pair within
    that limit is filed once, as the three ints gap, i, j, in the bucket
    of the first threshold whose limit admits it; a gap equal to a limit
    lands in that limit's bucket.  A bucket is flat: a pair costs three
    list slots and its gap, not a tuple as well.
    merge_to(k) unions bucket k, so after buckets 0..k the blocks are
    those at the k-th threshold.  The order of the pairs in a bucket
    changes no block, count or max_diam.

    root[x] is x's block; a union relabels the smaller block's members,
    at most n log n relabels in all.  It keeps only the largest squared
    block diameter, max_diam, and each block's integer extent.  union
    checks the cross pairs of its unions once they are all made, those
    whose two extents lie farthest apart first, and skips a whole union,
    or a smaller-side box, within far distance max_diam of the larger
    side's extent.  No block's diameter exceeds max_diam; partition
    computes each one.
    """

    def __init__(self, columns, grid_sq, cap=DEFAULT_CAP):
        # distances add across coordinates, so the columns share one scale
        den = lcm(*(c.den for c in columns))
        ext = list(zip(*(_scaled(c.ends, c.den, den) for c in columns)))
        n = len(ext)
        self.den_sq = den * den
        self.ext = ext
        limits = [self._limit(t) for t in grid_sq]
        limit = limits[-1]
        reach = isqrt(limit)
        # per coordinate, the boxes by start and each one's window end;
        # the windows hold sum(stops) - n(n+1)/2 pairs
        sweeps = []
        for c in range(len(columns)):
            order = sorted(range(n), key=lambda i: ext[i][c][0])
            starts = [ext[i][c][0] for i in order]
            stops = [bisect_right(starts, ext[i][c][1] + reach, pos + 1)
                     for pos, i in enumerate(order)]
            sweeps.append((sum(stops), c, order, stops))
        total, self.axis, order, stops = min(sweeps)
        work = (total - n * (n + 1) // 2) * (limit.bit_length() // 64 + 1)
        if work > cap * 1000:
            raise _PairChargeError("components", -(-work // 1000), cap)
        self.buckets = buckets = [[] for _ in limits]
        for pos, i in enumerate(order):
            a = ext[i]
            for j in order[pos + 1:stops[pos]]:
                gap = 0
                for (alo, ahi), (blo, bhi) in zip(a, ext[j]):
                    g = blo - ahi if blo > ahi else alo - bhi
                    if g > 0:
                        gap += g * g
                if gap <= limit:
                    buckets[bisect_left(limits, gap)] += gap, i, j
        self.root = list(range(n))
        self.members = [[i] for i in range(n)]
        self.extent = list(ext)
        self.count = n
        self.max_diam = max(sum((hi - lo) * (hi - lo) for lo, hi in e)
                            for e in ext)

    def _limit(self, delta_sq):
        """floor(delta_sq * den^2): exact, since every gap is an integer."""
        return delta_sq.numerator * self.den_sq // delta_sq.denominator

    def merge_to(self, k):
        """Union bucket k; buckets must come in ascending order."""
        pairs = iter(self.buckets[k])
        self.union(zip(pairs, pairs, pairs))
        self.buckets[k] = None

    def union(self, pairs):
        """Union each (gap, i, j) of pairs, then raise max_diam by their
        cross pairs: the unions farthest apart go first, so max_diam has
        risen before the nearer ones are checked, whatever the order of
        the pairs."""
        ext, members, extent = self.ext, self.members, self.extent
        root = self.root
        # per union: far distance of the two extents, the larger block's
        # list, where the smaller block starts and ends in it, and the
        # larger block's extent before the union
        unions = []
        for _, i, j in pairs:
            ri, rj = root[i], root[j]
            if ri == rj:
                continue
            if len(members[ri]) < len(members[rj]):
                ri, rj = rj, ri
            big, small, span = members[ri], members[rj], extent[ri]
            unions.append((_far_sq(span, extent[rj]), big, len(big),
                           len(big) + len(small), span))
            extent[ri] = [(min(alo, blo), max(ahi, bhi))
                          for (alo, ahi), (blo, bhi) in zip(span, extent[rj])]
            for b in small:
                root[b] = ri
            big.extend(small)
            members[rj] = None
            self.count -= 1
        top = self.max_diam
        unions.sort(key=itemgetter(0), reverse=True)
        for far, block, start, stop, span in unions:
            # exact: a box inside an extent is no farther than the extent
            if far <= top:
                break
            for b in block[start:stop]:
                eb = ext[b]
                if _far_sq(span, eb) > top:
                    top = max(top, *(_far_sq(ext[a], eb)
                                     for a in islice(block, start)))
        self.max_diam = top

    def max_diam_sq(self):
        return Fraction(self.max_diam, self.den_sq)

    def partition(self, delta_sq):
        """The blocks and their exact squared diameters, pair by pair."""
        ext = self.ext
        blocks = sorted(tuple(sorted(m)) for m in self.members if m)
        return ComponentPartition(delta_sq, tuple(blocks), tuple(
            Fraction(max(_far_sq(ext[a], ext[b]) for k, a in enumerate(block)
                         for b in block[k:]), self.den_sq) for block in blocks))


def delta_components_sq(objects, delta_sq):
    """Blocks and exact squared diameters of the closure of
    dist^2 <= delta_sq over the objects."""
    delta_sq = _positive("delta_sq", delta_sq)
    linkage = _SingleLinkage(_columns(objects), [delta_sq])
    linkage.merge_to(0)
    return linkage.partition(delta_sq)


def delta_components(objects, delta):
    """delta-connected components of a finite point set or box collection."""
    delta = _positive("delta", delta)
    return delta_components_sq(objects, delta * delta)


class _TupleView(Sequence):
    """A sequence that compares and hashes as the tuple of its items."""

    __slots__ = ()

    def __eq__(self, other):
        if isinstance(other, _TupleView):
            other = tuple(other)
        if not isinstance(other, tuple):
            return NotImplemented
        return tuple(self) == other

    def __hash__(self):
        return hash(tuple(self))


class Runs(_TupleView):
    """interval_components' blocks as the runs [firsts[k], stops[k]) of
    indices, two tuples: reads and hashes as the tuple of their index
    tuples, `blocks`, which is built on first read and kept."""

    def __init__(self, firsts, stops):
        self.firsts, self.stops = firsts, stops

    @cached_property
    def blocks(self):
        return tuple(map(tuple, map(range, self.firsts, self.stops)))

    def __len__(self):
        return len(self.firsts)

    def __getitem__(self, k):
        return self.blocks[k]

    def __iter__(self):
        return iter(self.blocks)

    def __repr__(self):
        return repr(self.blocks)


class IntervalSet(_TupleView):
    """Closed intervals as integer (lo, hi) ends over one positive
    denominator, in the order given: interval k is ends[k] / den.

    It reads as a tuple of Intervals (len, indexing, iteration, equality
    with a tuple) and builds an Interval only when one is read.  Its gap
    list, with the gaps sorted, is built on first use and kept as long
    as the set, so interval_components answers every delta from one sort
    of the intervals and one of their gaps.  With the gap list come two
    memos: the answer at each cut position met, and one Fraction per
    block length.
    """

    __slots__ = ("den", "ends", "_gaps", "_cuts", "_lengths")

    def __init__(self, den, ends):
        self.den = den
        self.ends = ends = tuple(ends)
        self._gaps = None
        if not den > 0:
            raise ComponentsError("components: interval denominator must "
                                  "be positive")
        check_interval_ends(ends)

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

    def __repr__(self):
        return "IntervalSet(%d, %r)" % (self.den, self.ends)

    def gap_list(self):
        """(order, starts, reach, by_gap, gaps): the indices in order of
        left end, their left ends, the running maximum of their right
        ends, the positions k >= 1 of that order sorted by the gap
        starts[k] - reach[k - 1] before them, and those gaps in the same,
        ascending, order.  The order is a range when the set is already
        in left-end order; right ends that never fall in that order, as
        in every pre-Moran set, are their own running maximum (no scan)."""
        if self._gaps is None:
            los, his = zip(*self.ends) if self.ends else ((), ())
            starts = sorted(los)
            if starts == list(los):
                order = range(len(los))
            else:
                order = sorted(range(len(los)), key=los.__getitem__)
                his = tuple(map(his.__getitem__, order))
            reach = sorted(his)
            if reach != list(his):
                reach = list(accumulate(his, max))
            # gap[k] is the gap before position k; gap[0] is never read
            gap = [0, *map(sub, starts[1:], reach)]
            by_gap = sorted(range(1, len(los)), key=gap.__getitem__)
            self._gaps = (order, starts, reach, by_gap,
                          list(map(gap.__getitem__, by_gap)))
            self._cuts, self._lengths = {}, {}
        return self._gaps


def interval_components(intervals, delta):
    """Fast 1-D path: blocks and exact diameters of closed intervals.

    Returns (blocks, diams) like delta_components, with blocks as index
    tuples into the input ordered by their first index, and diams as
    exact rational lengths.  Agrees with delta_components on 1-D boxes.
    `intervals` is an IntervalSet or a sequence of Intervals.  When the
    set is in left-end order (every pre-Moran set is), blocks is Runs:
    the runs of indices, whose tuples are built only when read.

    Single linkage on a line is the sorted gap list.  Over the
    intervals' common denominator, sort them by left end and take the
    running maximum right end; delta cuts that order where an interval
    starts more than delta past it.  Every block is a run, and its
    diameter is its last running maximum minus its first left end: the
    blocks before it end strictly to its left.  An IntervalSet sorts its
    gaps at first use and keeps them, so a further delta costs one
    bisection.  The set keeps its answer per cut position: a delta that
    cuts where an earlier one did gets the same pair back, and a new cut
    costs O(runs), with one Fraction per block length per set.
    """
    delta = _positive("delta", delta)
    intervals = IntervalSet.of(intervals)
    n = len(intervals.ends)
    if not n:
        return (), ()
    order, starts, reach, by_gap, gaps = intervals.gap_list()
    den = intervals.den
    # an integer gap exceeds delta * den iff it exceeds its floor
    limit = delta.numerator * den // delta.denominator
    k = bisect_right(gaps, limit)
    answer = intervals._cuts.get(k)
    if answer is not None:
        return answer
    cuts = sorted(by_gap[k:])
    firsts, stops = (0, *cuts), (*cuts, n)
    fractions = intervals._lengths
    diams = []
    for a, b in zip(firsts, stops):
        length = reach[b - 1] - starts[a]
        diam = fractions.get(length)
        if diam is None:
            diam = fractions[length] = Fraction(length, den)
        diams.append(diam)
    diams = tuple(diams)
    if isinstance(order, range):  # left-end order is the input order
        answer = Runs(firsts, stops), diams
    else:
        pairs = sorted((tuple(sorted(order[a:b])), diam)
                       for a, b, diam in zip(firsts, stops, diams))
        answer = tuple(b for b, _ in pairs), tuple(d for _, d in pairs)
    intervals._cuts[k] = answer
    return answer


def delta0_sequence_exists(points, delta0):
    """Search for a delta0-sequence: distinct x0..xn with every step
    <= delta0 * dist(x0, xn).  Returns (found, sequence_or_None)."""
    delta0 = _positive("delta0", delta0)
    return delta0_sequence_exists_sq(points, delta0 * delta0)


def delta0_sequence_exists_sq(points, delta0_sq):
    """Same search, the threshold an exact square (as 1/(2*M0) is).

    A sequence exists iff delta0_sq * top(h) >= h at a single-linkage
    merge height h, top(h) the widest squared block: its widest pair a, b
    is joined by steps <= sqrt(h) <= delta0 |a-b|; a sequence from a to b,
    longest step s, joins them by h = s^2.  No top exceeds diag^2."""
    points = _uniform(points)
    if points and isinstance(points[0], Box):
        raise ComponentsError("components: the delta0 search takes points")
    pts = PointSet(tuple(tuple(p) for p in points)).points
    if len(pts) < 2:
        raise ComponentsError("components: need at least 2 points")
    d0_sq = _positive("delta0_sq", delta0_sq)
    linkage = _SingleLinkage(_columns(pts), [d0_sq * sum(
        (max(c) - min(c)) ** 2 for c in zip(*pts))])
    # one bucket, sorted here: each merge height is one group of pairs
    flat = iter(linkage.buckets[0])
    for h, pairs in groupby(sorted(zip(flat, flat, flat)), itemgetter(0)):
        linkage.union(pairs)
        if d0_sq * linkage.max_diam >= h:
            break
    else:
        return False, None
    # the widest block's widest pair, then breadth-first from a to b in it
    ext, top = linkage.ext, linkage.max_diam
    block, a, b = next((m, a, b) for m in linkage.members if m for a in m
                       for b in m if _far_sq(ext[a], ext[b]) == top)
    prev = {a: None}
    frontier = [a]
    while b not in prev:
        nxt = []
        for u in frontier:
            for v in block:
                if v not in prev and _far_sq(ext[u], ext[v]) <= h:
                    prev[v] = u
                    nxt.append(v)
        frontier = nxt
    path = []
    v = b
    while v is not None:
        path.append(pts[v])
        v = prev[v]
    return True, tuple(reversed(path))


def _cylinder_levels(rows, depth, cap):
    """Levels 0..depth of the cylinder sides of the maps given as rows
    (tuples of AffineMap1D), checked against cap first: level k holds,
    per coordinate, (den, ends) of every depth-k box, lexicographic in
    the word.  Level k + 1 is one outer compose_scaled step of each
    column, scaled once, on level k."""
    # a depth-n word takes n compositions, even when there is one map
    count = max(capped_power(len(rows), depth, cap), min(depth, cap + 1))
    if count > cap:
        raise ResourceCapError("components", count, cap)
    return list(accumulate(
        repeat([scale_labels(column) for column in zip(*rows)], depth),
        lambda level, columns: [compose_scaled((c,), s)
                                for c, s in zip(columns, level)],
        initial=[compose_scaled(())] * len(rows[0])))


def enumerate_cylinders(ifs, depth, cap=DEFAULT_CAP):
    """All depth-n cylinder boxes, in lexicographic word order."""
    columns = [IntervalSet(*side) for side in _cylinder_levels(
        [m.coords for m in ifs.maps], depth, cap)[-1]]
    return [Box(sides) for sides in zip(*columns)]


def _walk(columns, grid, cap=DEFAULT_CAP):
    """One _SingleLinkage over the columns on the distinct deltas of the
    grid, each pair filed under the smallest delta that admits it:
    yields each delta, smallest first, and the kernel merged to it, one
    bucket more each time."""
    deltas = sorted(set(grid))
    linkage = _SingleLinkage(columns, [delta * delta for delta in deltas],
                             cap) if deltas else None
    for k, delta in enumerate(deltas):
        linkage.merge_to(k)
        yield delta, linkage


def component_diameter_profile(ifs, depth, deltas, cap=DEFAULT_CAP):
    """Per delta: component count, exact max squared diameter, and the
    squared ratio (max diam / delta)^2 over depth-n cylinder boxes."""
    if depth < 1:
        raise ComponentsError("components: depth must be >= 1")
    if not validate_lg(ifs).lg_type:
        raise ComponentsError("components: input is not of Lalley-Gatzouras type")
    columns = [IntervalSet(*side) for side in _cylinder_levels(
        [m.coords for m in ifs.maps], depth, cap)[-1]]
    grid = [_positive("delta", delta) for delta in deltas]
    rows = {}
    for delta, linkage in _walk(columns, grid, cap):
        mx = linkage.max_diam_sq()
        rows[delta] = {"delta": delta, "num_components": linkage.count,
                       "max_diam_sq": mx, "ratio_sq": mx / (delta * delta)}
    return [dict(rows[delta]) for delta in grid]


class SimpleIFSFamily:
    """Family F_1..F_p of simple IFS' of [0,1], none with attractor [0,1].

    Members are FiberIFS' or label sequences in any order; `members` holds
    each one's FiberIFS.labels (offset order).  A member that is empty,
    not a simple IFS of [0,1] or tiles [0,1] (attractor_is_unit_interval)
    is a PreconditionError.  Carries the derived constants used by the
    pre-Moran component bound, and `scaled`, each member's FiberIFS.scaled
    (its steps in the same order), for pre_moran_intervals.
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
        for j, f in enumerate(fibers, start=1):
            if attractor_is_unit_interval(f):
                raise PreconditionError(
                    "components: family member %d has attractor [0,1]" % j)
        self.members = tuple(f.labels for f in fibers)
        self.betas = tuple(max(g.ratio for g in m) for m in self.members)
        self.counts = tuple(f.size for f in fibers)
        # images of one member never overlap and ratios are positive, so
        # composing offset-ordered steps lists intervals by left end
        self.scaled = tuple(f.scaled for f in fibers)
        self.alpha_star = min(g.ratio for m in self.members for g in m)
        self.beta_star = max(self.betas)
        self.L_star = max(f.ratio_sum() for f in fibers)
        self.N_star = max(self.counts)
        self.g_star = (1 - self.L_star) / (self.N_star + 2)

    @property
    def size(self):
        return len(self.members)


class PreMoranSet(Record):
    word: tuple
    intervals: IntervalSet  # sorted by left endpoint


def pre_moran_intervals(family, word, cap=DEFAULT_CAP):
    """Basic intervals of F_{i_1} o ... o F_{i_k}([0,1]), sorted: the
    members' offset-ordered steps composed in that order need no sort."""
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
    den, ends = compose_scaled(family.scaled[i - 1] for i in reversed(word))
    return PreMoranSet(word, IntervalSet(den, ends))


class MoranBoundReport(Record):
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


def _first_above(columns, grid, factor):
    """The smallest delta of the grid at which some delta-component of
    the columns' objects is wider than factor * delta, or None."""
    return next((delta for delta, linkage in _walk(columns, grid) if factor < 0
                 or linkage.max_diam_sq() > (factor * delta) ** 2), None)


def check_union_bound(sets, deltas, C):
    """Union-of-n-sets bound with constant (9C)^(2^(n-1))/9.

    Checks every delta, then each input set's diam <= C*delta across the
    grid (PreconditionError otherwise), then the union bound.  Each set
    and their union walk one kernel up the grid (a set of Intervals is
    one IntervalSet column).
    """
    C = exact_fraction(C)
    grid = [_positive("delta", delta) for delta in deltas]
    sets = [list(s.points if isinstance(s, PointSet) else s) for s in sets]
    if not sets or not all(sets):
        raise ComponentsError("components: union bound needs nonempty sets")
    n = len(sets)
    sets.append([x for s in sets for x in s])
    interval = isinstance(sets[-1][0], Interval)
    kernels = [[IntervalSet.of(s)] if interval else _columns(s) for s in sets]
    for k, columns in enumerate(kernels[:-1], start=1):
        delta = _first_above(columns, grid, C)
        if delta is not None:
            raise PreconditionError(
                "components: set %d violates the C*delta bound at "
                "delta=%s" % (k, delta))
    M = (9 * C) ** (2 ** (n - 1)) / 9
    return _first_above(kernels[-1], grid, M) is None


class ApproxSquare(Record):
    box: Box
    depths: tuple  # per-coordinate l(j)


def approx_square(ifs, word, delta):
    """The delta-approximate square along `word`: in each coordinate,
    iterate until the ratio product first drops strictly below delta."""
    delta = _positive("delta", delta)
    word = tuple(word)
    maps = word_maps(ifs, word)
    depths, sides = [], []
    for j in range(ifs.dim):
        ratio = 1
        for k, mp in enumerate(maps, start=1):
            ratio *= mp.coords[j].ratio
            if ratio < delta:
                break
        else:
            raise ComponentsError(
                "components: word too short for coordinate %d at delta=%s"
                % (j + 1, delta))
        depths.append(k)
        sides.append(cylinder_box(ifs, word[:k]).sides[j])
    return ApproxSquare(Box(tuple(sides)), tuple(depths))


def check_product_decomposition(ifs, k, cap=DEFAULT_CAP):
    """Depth-k cylinders equal the union of (projected cylinder) x
    (fiber pre-Moran interval) products, as exact box sets; `ifs` may be
    an Analysis.  product_decompositions at the one depth k."""
    return product_decompositions(ifs, (k,), cap)[k]


def product_decompositions(ifs, depths, cap=DEFAULT_CAP):
    """check_product_decomposition at each of `depths`, as a dict, from
    one composition: both sides' cylinder boxes are _cylinder_levels of
    the maps and of the projected maps, the owners of
    last_coordinate_fibers, and each fiber's FiberIFS.scaled adds one
    outer level per depth to its projected words' pre-Moran sets.  At one
    common denominator per coordinate, each box is a tuple of integer
    (lo, hi) pairs and the sets compare as sets of tuples.
    """
    analysis = Analysis.of(ifs)
    ifs = analysis.ifs
    if ifs.dim < 2:
        raise ComponentsError("components: product decomposition needs d >= 2")
    top = max(depths, default=0)
    if min(depths, default=0) < 0:
        raise ComponentsError("components: depth must be >= 0")
    # the cap check comes before the tree; the projected maps are fewer
    lhs = _cylinder_levels([m.coords for m in ifs.maps], top, cap)
    fibers = last_coordinate_fibers(analysis.tree)
    base = _cylinder_levels([f.owner.projected_map for f in fibers], top, cap)
    last = [compose_scaled(())]
    results = {}
    for k, (sides, projected) in enumerate(zip(lhs, base)):
        if k:
            # one fiber pre-Moran set per projected word, in its order
            last = [compose_scaled((f.scaled,), s)
                    for f in fibers for s in last]
        if k in depths:
            results[k] = _same_boxes(sides, projected, last)
    return results


def _same_boxes(lhs, base, last):
    """The product decomposition at one depth: the cylinder boxes, as
    (den, ends) per coordinate, against the products of the projected
    cylinder boxes, (den, ends) per coordinate but the last, with their
    words' pre-Moran sets, one (den, ends) each."""
    scales = [lcm(a, b) for (a, _), (b, _) in zip(lhs, base)]
    scales.append(lcm(lhs[-1][0], *(den for den, _ in last)))
    left = set(zip(*(_scaled(ends, den, s)
                     for (den, ends), s in zip(lhs, scales))))
    right = set()
    for sides, (den, ends) in zip(
            zip(*(_scaled(ends, den, s)
                  for (den, ends), s in zip(base, scales))),
            last):
        right.update(sides + (iv,) for iv in _scaled(ends, den, scales[-1]))
    return left == right
