"""Labeled tree of a Lalley-Gatzouras IFS and its fiber IFS'.

Vertices of rank l are the distinct l-coordinate truncations of the
maps; the children of a vertex extend it by one coordinate, and the
extending 1-D maps form the vertex's fiber IFS, a simple IFS of [0,1].
"""

from dataclasses import dataclass, field

from .ifs import validate_lg


class TreeError(Exception):
    """Domain error from the tree module; a rejection by the LG gate
    carries the gate's ValidationReport as `validation`."""

    def __init__(self, message, validation=None):
        super().__init__(message)
        self.validation = validation


@dataclass(frozen=True)
class Vertex:
    rank: int
    projected_map: tuple  # tuple of AffineMap1D, length == rank

    def __post_init__(self):
        object.__setattr__(self, "projected_map", tuple(self.projected_map))
        if len(self.projected_map) != self.rank:
            raise TreeError("tree: vertex rank/coefficient mismatch")


ROOT = Vertex(0, ())


@dataclass(frozen=True)
class FiberIFS:
    """Labels of a vertex's offspring and the gaps their images leave in
    [0,1]: before the first, between neighbours and after the last."""

    owner: Vertex
    labels: tuple
    gaps: tuple = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        for g in self.labels:
            if not g.unit_preserving():
                raise TreeError("tree: fiber label %s is not a self-map of [0,1]"
                                % g)
        images = sorted((g.image() for g in self.labels), key=lambda iv: iv.lo)
        ends = [0] + [v for iv in images for v in (iv.lo, iv.hi)] + [1]
        gaps = tuple(b - a for a, b in zip(ends[::2], ends[1::2]))
        # if two images overlap, some pair of neighbours does
        if min(gaps) < 0:
            raise TreeError("tree: fiber images overlap")
        object.__setattr__(self, "gaps", gaps)

    @property
    def size(self):
        return len(self.labels)

    def ratio_sum(self):
        return sum(g.ratio for g in self.labels)


class LabeledTree:
    """Immutable after construction; safe to share.  `validation` is the
    ValidationReport of the LG gate the tree was built behind."""

    def __init__(self, dim, levels, fibers, validation):
        self.dim = dim
        self.validation = validation
        self.levels = tuple(tuple(level) for level in levels)
        self.fibers = dict(fibers)  # non-leaf Vertex -> FiberIFS

    def children(self, vertex):
        fib = self.fibers.get(vertex)
        return tuple((g, Vertex(vertex.rank + 1, vertex.projected_map + (g,)))
                     for g in (fib.labels if fib else ()))


def build_labeled_tree(ifs):
    """Build the labeled tree; rejects systems failing LG validation with
    a TreeError that carries the report."""
    report = validate_lg(ifs)
    if not report.lg_type:
        raise TreeError("tree: input is not of Lalley-Gatzouras type: %s"
                        % (report.violations,), report)
    levels = [(ROOT,)]
    fibers = {}
    for ell in range(1, ifs.dim + 1):
        # the ell-coordinate truncations, first occurrence first
        levels.append(tuple(dict.fromkeys(Vertex(ell, m.coords[:ell])
                                          for m in ifs.maps)))
        labels = {u.projected_map: [] for u in levels[-2]}
        for v in sorted(levels[-1], key=lambda v: v.projected_map[-1].offset):
            labels[v.projected_map[:-1]].append(v.projected_map[-1])
        fibers.update((u, FiberIFS(u, labels[u.projected_map]))
                      for u in levels[-2])
    return LabeledTree(ifs.dim, levels, fibers, report)


def fiber_ifs(tree, vertex):
    """The simple IFS formed by the vertex's offspring labels."""
    if vertex.rank >= tree.dim:
        raise TreeError("tree: rank-%d vertex has no fiber IFS (leaf)"
                        % vertex.rank)
    fib = tree.fibers.get(vertex)
    if fib is None:
        raise TreeError("tree: vertex not in tree")
    return fib


def last_coordinate_fibers(tree):
    """The fiber IFS' of the rank d-1 vertices, in level order: the
    last-coordinate labels of the maps."""
    return [fiber_ifs(tree, v) for v in tree.levels[tree.dim - 1]]


def all_fiber_ifs(tree):
    """Every fiber IFS, breadth-first over ranks 0..d-1."""
    result = []
    for level in tree.levels[:tree.dim]:
        for vertex in level:
            result.append(fiber_ifs(tree, vertex))
    return result
