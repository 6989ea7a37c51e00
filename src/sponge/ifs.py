"""Diagonal affine IFS: exact representations, validation, cylinder geometry.

Maps are tuples of 1-D affine contractions x -> ratio*x + offset with
exact rational coefficients.  Everything is immutable; operations are
pure functions.
"""

from fractions import Fraction
from math import lcm

from .util import (DomainError, Record, common_denominator, frac_str,
                   parse_fraction)


class IFSError(DomainError):
    """Domain error from the ifs module."""


class ParseError(IFSError):
    def __init__(self, message, line, col):
        super().__init__("ifs: line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col


class AffineMap1D(Record):
    """x -> ratio*x + offset with ratio in (0,1), ratio and offset ints or
    Fractions (anything else, a float included, is a TypeError).

    `ints` is the map's integer form (r, o, q): ratio == r/q and offset ==
    o/q over q, the lcm of their denominators.  Equal maps have equal
    forms, so the hash is taken from the form once, and every consumer
    (cylinder_box, scale_labels, unit_preserving, validate_lg) reads ints.
    """

    ratio: Fraction
    offset: Fraction

    def __post_init__(self):
        q, (r, o) = common_denominator((self.ratio, self.offset))
        if not 0 < r < q:
            raise IFSError("ifs: ratio %s outside (0,1)" % frac_str(self.ratio))
        object.__setattr__(self, "ints", (r, o, q))
        object.__setattr__(self, "_hash", hash(self.ints))

    def __hash__(self):
        return self._hash

    def __call__(self, x):
        return self.ratio * x + self.offset

    def unit_preserving(self):
        """Membership in the affine self-maps of [0,1]."""
        r, o, q = self.ints
        return 0 <= o <= q - r

    def image(self):
        """Image of [0,1] as an Interval."""
        return Interval(self.offset, self.offset + self.ratio)

    def fixed_point(self):
        return self.offset / (1 - self.ratio)

    def __str__(self):
        return "%s %s" % (frac_str(self.ratio), frac_str(self.offset))


class DiagonalAffineMap(Record):
    """A d-tuple of coordinatewise 1-D affine contractions."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        object.__setattr__(self, "_hash", hash(self._values(self)))

    def __hash__(self):
        return self._hash

    @property
    def dim(self):
        return len(self.coords)

    def __call__(self, point):
        return tuple(c(x) for c, x in zip(self.coords, point))


class SpongeIFS(Record):
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


def check_interval_ends(ends):
    """Raise IFSError unless lo <= hi for every (lo, hi) pair of ends."""
    for lo, hi in ends:
        if lo > hi:
            raise IFSError("ifs: interval with lo > hi")


class Interval(Record):
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        check_interval_ends(((self.lo, self.hi),))

    @property
    def length(self):
        return self.hi - self.lo


class Box(Record):
    sides: tuple

    def __post_init__(self):
        object.__setattr__(self, "sides", tuple(self.sides))

    @property
    def dim(self):
        return len(self.sides)


class ValidationReport(Record):
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
                try:
                    coords.append(AffineMap1D(ratio, offset))
                except IFSError:
                    raise ParseError("ratio %s outside (0,1)" % toks[0],
                                     lineno, col)
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
    Neat projection is checked on every rank-ell major projection (the
    maps' truncations, first occurrence first): each pair (i, j) of its
    maps whose boxes meet in an open set is the violation (i, j, ell).
    Each map's cylinder box is built once, and a projected map takes the
    first ell sides of its first map's box.
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
            (r, _, q), (r_next, _, q_next) = (m.coords[i].ints,
                                              m.coords[i + 1].ints)
            if not r * q_next > r_next * q:
                ordering_ok = False
                violations.append(("coordinate_ordering", (k, i + 1)))
    boxes = [cylinder_box(ifs, (k,)).sides for k in range(1, ifs.size + 1)]
    neat_ok = True
    for ell in range(1, ifs.dim + 1):
        proj = [boxes[k][:ell] for k in truncations(ifs, ell).values()]
        for i, a in enumerate(proj, start=1):
            for j in range(i, len(proj)):
                # every side has positive length, so two compares decide
                if all(s.lo < t.hi and t.lo < s.hi
                       for s, t in zip(a, proj[j])):
                    neat_ok = False
                    violations.append(("neat_projection", (i, j + 1, ell)))
    return ValidationReport(unit_cube_ok, ordering_ok, neat_ok,
                            tuple(violations))


def truncations(ifs, ell):
    """Each distinct ell-coordinate truncation coords[:ell] of the maps,
    first occurrence first, mapped to the index of its first map."""
    firsts = {}
    for k, m in enumerate(ifs.maps):
        firsts.setdefault(m.coords[:ell], k)
    return firsts


def word_maps(ifs, word):
    """The maps along `word`, whose symbols are 1..M (M = ifs.size)."""
    maps = []
    for e in word:
        if not (1 <= e <= ifs.size):
            raise IFSError("ifs: symbol %d out of range 1..%d" % (e, ifs.size))
        maps.append(ifs.maps[e - 1])
    return maps


def cylinder_box(ifs, word):
    """Image of the unit cube under the composition along `word` (1-based):
    side j composes coordinate j's maps (compose_scaled), each one level
    (q, [(r, o)]) read from its integer form."""
    maps = word_maps(ifs, word)
    sides = []
    for j in range(ifs.dim):
        den, [(lo, hi)] = compose_scaled([(q, [(r, o)]) for m in reversed(maps)
                                          for r, o, q in [m.coords[j].ints]])
        sides.append(Interval(Fraction(lo, den), Fraction(hi, den)))
    return Box(tuple(sides))


def scale_labels(labels):
    """(scale, steps): a label set over the lcm of its labels' q, each
    label g as its integer step (r, o), g = (r, o) / scale, in order."""
    forms = [g.ints for g in labels]
    scale = lcm(*[q for _, _, q in forms])
    return scale, [(r * (scale // q), o * (scale // q)) for r, o, q in forms]


def compose_scaled(levels, start=None):
    """(den, ends): the images of `start`, a (den, ends) result of this
    function ([0,1] by default), under one step per level of `levels`
    (scale_labels results, innermost first), as integer (lo, hi) pairs
    over den, lexicographic in the words, outermost letter first."""
    den, ends = start or (1, [(0, 1)])
    for scale, steps in levels:
        # g(x / den) = (r * x + o * den) / (scale * den)
        ends = [(r * lo + od, r * hi + od)
                for r, o in steps for od in [o * den] for lo, hi in ends]
        den *= scale
    return den, ends


def fixed_point(diag_map):
    """The unique fixed point, coordinatewise offset/(1-ratio)."""
    return tuple(c.fixed_point() for c in diag_map.coords)
