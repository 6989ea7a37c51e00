"""Brute-force geometric oracles: delta-components, delta0-sequences,
pre-Moran sets, approximate squares, and the quantitative union bounds.

All connectivity predicates compare exact squared distances against
exact squared thresholds; no floating point enters any decision.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .ifs import (Box, IFSError, Interval, UNIT, compose_words,
                  major_projection, validate_lg)
from .tree import build_labeled_tree, last_coordinate_fibers
from .util import DEFAULT_CAP, ResourceCapError, common_denominator


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


def _integer_extents(objects):
    """(den, extents): every object as a tuple of integer (lo, hi) pairs,
    one per coordinate, over the common denominator den.  A point is a
    box with lo == hi."""
    if isinstance(objects, PointSet):
        objects = objects.points
    objects = list(objects)
    if not objects:
        raise ComponentsError("components: empty object list")
    if isinstance(objects[0], Box):
        ends = [v for b in objects for s in b.sides for v in (s.lo, s.hi)]
    else:
        ends = [v for p in objects for x in p for v in (x, x)]
    den, ends = common_denominator(ends)
    step = len(ends) // len(objects)
    extents = [tuple(zip(ends[k:k + step:2], ends[k + 1:k + step:2]))
               for k in range(0, len(ends), step)]
    return den, extents


def _far_sq(a, b):
    """Squared max distance between points of two integer extents."""
    total = 0
    for (alo, ahi), (blo, bhi) in zip(a, b):
        f = max(ahi - blo, bhi - alo)
        total += f * f
    return total


class _SingleLinkage:
    """Single linkage over exact integer squared gaps (Kruskal order).

    The pairs within the largest threshold are scaled to integers and
    sorted once; merge_to then unions them in ascending gap order, so one
    pass answers every threshold up to that largest one.  Each block
    carries its exact squared diameter, which only grows under merging.
    """

    def __init__(self, objects, max_delta_sq):
        den, ext = _integer_extents(objects)
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
        delta_sq = Fraction(delta_sq)
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
    if delta_sq <= 0:
        raise ComponentsError("components: delta must be positive")
    linkage = _SingleLinkage(objects, delta_sq)
    linkage.merge_to(delta_sq)
    return linkage.partition(delta_sq)


def delta_components(objects, delta):
    """delta-connected components of a finite point set or box collection."""
    delta = Fraction(delta)
    if delta <= 0:
        raise ComponentsError("components: delta must be positive, got %s" % delta)
    return delta_components_sq(objects, delta * delta)


def interval_components(intervals, delta):
    """Fast 1-D path: blocks and exact diameters of closed intervals.

    Returns (blocks, diams) with blocks as index tuples into the input
    and diams as exact rational lengths.  Agrees with delta_components
    on 1-D boxes.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ComponentsError("components: delta must be positive")
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


def delta0_sequence_exists(points, delta0):
    """Search for a delta0-sequence: distinct x0..xn with every step
    <= delta0 * dist(x0, xn).  Returns (found, sequence_or_None)."""
    delta0 = Fraction(delta0)
    if delta0 <= 0:
        raise ComponentsError("components: delta0 must be positive")
    return delta0_sequence_exists_sq(points, delta0 * delta0)


def delta0_sequence_exists_sq(points, delta0_sq):
    """Same search with the threshold given as an exact square, for
    thresholds like 1/(2*M0) that are rational only after squaring."""
    if isinstance(points, PointSet):
        pts = points.points
    else:
        pts = PointSet(tuple(tuple(p) for p in points)).points
    if len(pts) < 2:
        raise ComponentsError("components: need at least 2 points")
    d0_sq = Fraction(delta0_sq)
    if d0_sq <= 0:
        raise ComponentsError("components: delta0 must be positive")
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


def _cylinder_sides(ifs, depth):
    """(word, sides) of every depth-n cylinder box, lexicographic; words
    are 0-based."""
    if depth == 0:
        return [((), (UNIT,) * ifs.dim)]
    return [(w, tuple(c.image() for c in comp.coords))
            for w, comp in compose_words(ifs.maps, depth)]


def enumerate_cylinders(ifs, depth, cap=DEFAULT_CAP):
    """All depth-n cylinder boxes, in lexicographic word order."""
    count = ifs.size ** depth
    if count > cap:
        raise ResourceCapError("components", count, cap)
    return [Box(sides) for _, sides in _cylinder_sides(ifs, depth)]


def component_diameter_profile(ifs, depth, deltas, cap=DEFAULT_CAP):
    """Per delta: component count, exact max squared diameter, and the
    squared ratio (max diam / delta)^2 over depth-n cylinder boxes."""
    if depth < 1:
        raise ComponentsError("components: depth must be >= 1")
    if not validate_lg(ifs).lg_type:
        raise ComponentsError("components: input is not of Lalley-Gatzouras type")
    boxes = enumerate_cylinders(ifs, depth, cap)
    grid = []
    for delta in deltas:
        delta = Fraction(delta)
        if delta <= 0:
            raise ComponentsError(
                "components: delta must be positive, got %s" % delta)
        grid.append(delta)
    if not grid:
        return []
    # one pass over the distinct thresholds, smallest first
    linkage = _SingleLinkage(boxes, max(grid) ** 2)
    by_delta = {}
    for delta in sorted(set(grid)):
        linkage.merge_to(delta * delta)
        by_delta[delta] = (linkage.count, linkage.max_diam_sq())
    rows = []
    for delta in grid:
        count, mx = by_delta[delta]
        rows.append({
            "delta": delta,
            "num_components": count,
            "max_diam_sq": mx,
            "ratio_sq": mx / (delta * delta),
        })
    return rows


class SimpleIFSFamily:
    """Family F_1..F_p of simple IFS' of [0,1], none with attractor [0,1].

    Carries the derived constants used by the pre-Moran component bound.
    """

    def __init__(self, members):
        norm = []
        for member in members:
            labels = tuple(getattr(member, "labels", member))
            norm.append(labels)
        if not norm:
            raise ComponentsError("components: empty family")
        self.members = tuple(norm)
        self.alphas = tuple(min(g.ratio for g in m) for m in norm)
        self.betas = tuple(max(g.ratio for g in m) for m in norm)
        self.measures = tuple(sum(g.ratio for g in m) for m in norm)
        self.counts = tuple(len(m) for m in norm)
        self.gaps = tuple(self._biggest_gap(m) for m in norm)
        for j, g in enumerate(self.gaps, start=1):
            if g == 0:
                raise PreconditionError(
                    "components: family member %d has attractor [0,1]" % j)
        self.alpha_star = min(self.alphas)
        self.beta_star = max(self.betas)
        self.L_star = max(self.measures)
        self.N_star = max(self.counts)
        self.g_star = (1 - self.L_star) / (self.N_star + 2)

    @staticmethod
    def _biggest_gap(labels):
        images = sorted((g.image() for g in labels), key=lambda iv: iv.lo)
        best = images[0].lo
        for a, b in zip(images, images[1:]):
            best = max(best, b.lo - a.hi)
        best = max(best, 1 - images[-1].hi)
        return best

    @property
    def size(self):
        return len(self.members)


@dataclass(frozen=True)
class PreMoranSet:
    family: SimpleIFSFamily
    word: tuple
    intervals: tuple  # sorted by left endpoint


def _apply_labels(label_sets):
    """Basic intervals of G_1 o ... o G_k([0,1]) for label sets G_j, in
    the order of the outermost label first."""
    intervals = [UNIT]
    for labels in reversed(label_sets):
        intervals = [Interval(g(iv.lo), g(iv.hi))
                     for g in labels for iv in intervals]
    return intervals


def pre_moran_intervals(family, word, cap=DEFAULT_CAP):
    """Basic intervals of F_{i_1} o ... o F_{i_k}([0,1]), sorted."""
    word = tuple(word)
    if not word:
        raise ComponentsError("components: pre-Moran word must be nonempty")
    count = 1
    for i in word:
        if not (1 <= i <= family.size):
            raise ComponentsError("components: family index %d out of range" % i)
        count *= family.counts[i - 1]
        if count > cap:
            raise ResourceCapError("components", count, cap)
    intervals = _apply_labels([family.members[i - 1] for i in word])
    intervals.sort(key=lambda iv: iv.lo)
    return PreMoranSet(family, word, tuple(intervals))


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
    delta = Fraction(delta)
    pm = pre_moran_intervals(family, word, cap)
    threshold = (family.g_star / family.alpha_star)
    for i in word:
        threshold *= family.betas[i - 1]
    admissible = delta >= threshold
    bound = (2 / (family.g_star * family.alpha_star) + 1) * delta
    _, diams = interval_components(pm.intervals, delta)
    max_diam = max(diams)
    return MoranBoundReport(admissible, bound, max_diam, max_diam <= bound)


def _component_diams(objects, delta):
    """(diams_are_squared, diameters) of the delta-components of a set
    of Intervals or of points."""
    objects = list(objects)
    if isinstance(objects[0], Interval):
        _, diams = interval_components(objects, delta)
        return False, diams
    part = delta_components(objects, delta)
    return True, part.diam_sqs


def check_union_bound(sets, deltas, C):
    """Union-of-n-sets bound with constant (9C)^(2^(n-1))/9.

    Verifies first that each input set satisfies diam <= C*delta for
    every delta in the grid (PreconditionError otherwise), then checks
    the union bound across the grid.
    """
    C = Fraction(C)
    sets = [list(s) for s in sets]
    n = len(sets)
    for delta in deltas:
        delta = Fraction(delta)
        for k, s in enumerate(sets, start=1):
            squared, diams = _component_diams(s, delta)
            for diam in diams:
                ok = (diam <= C * C * delta * delta) if squared \
                    else (diam <= C * delta)
                if not ok:
                    raise PreconditionError(
                        "components: set %d violates the C*delta bound at "
                        "delta=%s" % (k, delta))
    M = (9 * C) ** (2 ** (n - 1)) / 9
    union = [x for s in sets for x in s]
    for delta in deltas:
        delta = Fraction(delta)
        squared, diams = _component_diams(union, delta)
        for diam in diams:
            ok = (diam <= M * M * delta * delta) if squared \
                else (diam <= M * delta)
            if not ok:
                return False
    return True


@dataclass(frozen=True)
class ApproxSquare:
    box: Box
    depths: tuple  # per-coordinate l(j)


def approx_square(ifs, word, delta):
    """The delta-approximate square along `word`: in each coordinate,
    iterate until the ratio product first drops strictly below delta."""
    delta = Fraction(delta)
    if delta <= 0:
        raise ComponentsError("components: delta must be positive")
    word = tuple(word)
    for e in word:
        if not (1 <= e <= ifs.size):
            raise IFSError("ifs: symbol %d out of range 1..%d" % (e, ifs.size))
    depths = []
    sides = []
    for j in range(ifs.dim):
        product = Fraction(1)
        comp = None
        ell = None
        for k, e in enumerate(word, start=1):
            part = ifs.maps[e - 1].coords[j]
            comp = part if comp is None else comp.compose(part)
            product *= part.ratio
            if product < delta:
                ell = k
                break
        if ell is None:
            raise ComponentsError(
                "components: word too short for coordinate %d at delta=%s"
                % (j + 1, delta))
        depths.append(ell)
        sides.append(Interval(comp(Fraction(0)), comp(Fraction(1))))
    return ApproxSquare(Box(tuple(sides)), tuple(depths))


def check_product_decomposition(ifs, k, cap=DEFAULT_CAP):
    """Depth-k cylinders equal the union of (projected cylinder) x
    (fiber pre-Moran interval) products, as exact box sets."""
    if ifs.dim < 2:
        raise ComponentsError("components: product decomposition needs d >= 2")
    lhs = set(enumerate_cylinders(ifs, k, cap))
    proj = major_projection(ifs, ifs.dim - 1)
    tree = build_labeled_tree(ifs)
    fibers = [f.labels for f in last_coordinate_fibers(tree)]
    rhs = set()
    for word, base in _cylinder_sides(proj, k):
        for iv in _apply_labels([fibers[j] for j in word]):
            rhs.add(Box(base + (iv,)))
    return lhs == rhs
