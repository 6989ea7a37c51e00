"""Diagonal affine IFS: exact representations, validation, cylinder geometry.

Maps are tuples of 1-D affine contractions x -> ratio*x + offset with
exact rational coefficients.  Everything is immutable; operations are
pure functions.
"""

from dataclasses import dataclass
from fractions import Fraction

from .util import frac_str, parse_fraction


class IFSError(Exception):
    """Domain error from the ifs module."""


class ParseError(IFSError):
    def __init__(self, message, line, col):
        super().__init__("ifs: line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col


@dataclass(frozen=True)
class AffineMap1D:
    """x -> ratio*x + offset with ratio in (0,1)."""

    ratio: Fraction
    offset: Fraction

    def __post_init__(self):
        if not (0 < self.ratio < 1):
            raise IFSError("ifs: ratio %s outside (0,1)" % frac_str(self.ratio))

    def __call__(self, x):
        return self.ratio * x + self.offset

    def unit_preserving(self):
        """Membership in the affine self-maps of [0,1]."""
        return 0 <= self.offset <= 1 - self.ratio

    def image(self):
        """Image of [0,1] as an Interval."""
        return Interval(self.offset, self.offset + self.ratio)

    def compose(self, other):
        """self after other: x -> self(other(x))."""
        return AffineMap1D(self.ratio * other.ratio,
                           self.ratio * other.offset + self.offset)

    def fixed_point(self):
        return self.offset / (1 - self.ratio)

    def __str__(self):
        return "%s %s" % (frac_str(self.ratio), frac_str(self.offset))


@dataclass(frozen=True)
class DiagonalAffineMap:
    """A d-tuple of coordinatewise 1-D affine contractions."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))

    @property
    def dim(self):
        return len(self.coords)

    def __call__(self, point):
        return tuple(c(x) for c, x in zip(self.coords, point))

    def compose(self, other):
        return DiagonalAffineMap(tuple(a.compose(b)
                                       for a, b in zip(self.coords, other.coords)))

    def truncate(self, ell):
        return DiagonalAffineMap(self.coords[:ell])


@dataclass(frozen=True)
class SpongeIFS:
    dim: int
    maps: tuple

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        if self.dim < 1:
            raise IFSError("ifs: dim must be >= 1, got %d" % self.dim)
        if not self.maps:
            raise IFSError("ifs: at least one map required")
        for m in self.maps:
            if m.dim != self.dim:
                raise IFSError("ifs: map has %d coordinates, expected %d"
                               % (m.dim, self.dim))
        if len(set(self.maps)) != len(self.maps):
            raise IFSError("ifs: maps must be pairwise distinct")

    @property
    def size(self):
        return len(self.maps)


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise IFSError("ifs: interval with lo > hi")

    @property
    def length(self):
        return self.hi - self.lo

    def open_intersects(self, other):
        """Do the open intervals (lo,hi) intersect?"""
        return max(self.lo, other.lo) < min(self.hi, other.hi)

    def gap_to(self, other):
        """Distance between the closed intervals (0 when they touch)."""
        g = max(self.lo, other.lo) - min(self.hi, other.hi)
        return g if g > 0 else Fraction(0)

    def far_to(self, other):
        """Max distance between points of the two closed intervals."""
        return max(self.hi - other.lo, other.hi - self.lo)


UNIT = Interval(Fraction(0), Fraction(1))


@dataclass(frozen=True)
class Box:
    sides: tuple

    def __post_init__(self):
        object.__setattr__(self, "sides", tuple(self.sides))

    @property
    def dim(self):
        return len(self.sides)

    def open_intersects(self, other):
        return all(a.open_intersects(b) for a, b in zip(self.sides, other.sides))

    def dist_sq(self, other):
        """Squared Euclidean distance between the closed boxes."""
        total = Fraction(0)
        for a, b in zip(self.sides, other.sides):
            g = a.gap_to(b)
            total += g * g
        return total

    def far_sq(self, other):
        """Squared max distance between points of the two closed boxes."""
        total = Fraction(0)
        for a, b in zip(self.sides, other.sides):
            f = a.far_to(b)
            total += f * f
        return total


def unit_cube(dim):
    return Box(tuple(UNIT for _ in range(dim)))


@dataclass(frozen=True)
class ValidationReport:
    unit_cube_ok: bool
    coordinate_ordering_ok: bool
    neat_projection_ok: bool
    violations: tuple

    @property
    def lg_type(self):
        return (self.unit_cube_ok and self.coordinate_ordering_ok
                and self.neat_projection_ok)


def parse_ifs(text):
    """Parse the IFS file format into a SpongeIFS.

    Format: '#' comments, 'dim <d>' first, then one 'map' line per map
    with d semicolon-separated 'ratio offset' pairs.
    """
    dim = None
    maps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        keyword = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        col = raw.index(keyword) + 1
        if keyword == "dim":
            if dim is not None:
                raise ParseError("duplicate dim directive", lineno, col)
            try:
                dim = int(rest)
            except ValueError:
                raise ParseError("bad dim %r" % rest, lineno, col)
            if dim < 1:
                raise ParseError("dim must be >= 1", lineno, col)
        elif keyword == "map":
            if dim is None:
                raise ParseError("map before dim directive", lineno, col)
            groups = [g.strip() for g in rest.split(";")]
            if len(groups) != dim:
                raise ParseError(
                    "expected %d coordinate pairs, got %d" % (dim, len(groups)),
                    lineno, col)
            coords = []
            for g in groups:
                toks = g.split()
                if len(toks) != 2:
                    raise ParseError("expected 'ratio offset', got %r" % g,
                                     lineno, col)
                try:
                    ratio = parse_fraction(toks[0])
                    offset = parse_fraction(toks[1])
                except ValueError as exc:
                    raise ParseError(str(exc), lineno, col)
                if not (0 < ratio < 1):
                    raise ParseError("ratio %s outside (0,1)" % toks[0],
                                     lineno, col)
                coords.append(AffineMap1D(ratio, offset))
            maps.append(DiagonalAffineMap(tuple(coords)))
        else:
            raise ParseError("unknown directive %r" % keyword, lineno, col)
    if dim is None:
        raise ParseError("missing dim directive", 1, 1)
    if not maps:
        raise ParseError("no map lines", 1, 1)
    return SpongeIFS(dim, tuple(maps))


def serialize_ifs(ifs):
    lines = ["dim %d" % ifs.dim]
    for m in ifs.maps:
        lines.append("map " + " ; ".join(str(c) for c in m.coords))
    return "\n".join(lines) + "\n"


def validate_lg(ifs):
    """Check the Lalley-Gatzouras conditions; failures are reported, not thrown.

    Contraction needs no check here: AffineMap1D rejects ratios outside (0,1).
    """
    violations = []
    unit_cube_ok = True
    ordering_ok = True
    for k, m in enumerate(ifs.maps, start=1):
        for i, c in enumerate(m.coords, start=1):
            if not c.unit_preserving():
                unit_cube_ok = False
                violations.append(("unit_cube", (k, i)))
        for i in range(ifs.dim - 1):
            if not (m.coords[i].ratio > m.coords[i + 1].ratio):
                ordering_ok = False
                violations.append(("coordinate_ordering", (k, i + 1)))
    neat_ok = True
    for ell in range(1, ifs.dim + 1):
        proj = major_projection(ifs, ell)
        boxes = [cylinder_box(proj, (j,)) for j in range(1, proj.size + 1)]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if boxes[i].open_intersects(boxes[j]):
                    neat_ok = False
                    violations.append(("neat_projection", (i + 1, j + 1, ell)))
    return ValidationReport(unit_cube_ok, ordering_ok, neat_ok,
                            tuple(violations))


def major_projection(ifs, ell):
    """Truncate every map to its first `ell` coordinates, dropping duplicates.

    First-occurrence order is preserved.
    """
    if not (1 <= ell <= ifs.dim):
        raise IFSError("ifs: projection level %d out of range 1..%d"
                       % (ell, ifs.dim))
    seen = {}
    for m in ifs.maps:
        t = m.truncate(ell)
        if t not in seen:
            seen[t] = None
    return SpongeIFS(ell, tuple(seen))


def cylinder_box(ifs, word):
    """Image of the unit cube under the composition along `word` (1-based)."""
    box = unit_cube(ifs.dim)
    current = None
    for e in word:
        if not (1 <= e <= ifs.size):
            raise IFSError("ifs: symbol %d out of range 1..%d" % (e, ifs.size))
        m = ifs.maps[e - 1]
        current = m if current is None else current.compose(m)
    if current is None:
        return box
    sides = tuple(Interval(c(s.lo), c(s.hi))
                  for c, s in zip(current.coords, box.sides))
    return Box(sides)


def compose_words(maps, n):
    """The words of length n over `maps`, lexicographic, as (word,
    composition) pairs: word is a tuple of 0-based indices and composition
    is maps[w1] o ... o maps[wn], or None for the empty word.

    Each level extends the previous level's compositions, so every word
    costs one compose.
    """
    level = [((), None)]
    for _ in range(n):
        level = [(w + (j,), m if c is None else c.compose(m))
                 for w, c in level for j, m in enumerate(maps)]
    return level


def fixed_point(diag_map):
    """The unique fixed point, coordinatewise offset/(1-ratio)."""
    return tuple(c.fixed_point() for c in diag_map.coords)


def width(box):
    """Length of the shortest side."""
    return min(s.length for s in box.sides)
