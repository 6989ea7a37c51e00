"""Labeled tree of a Lalley-Gatzouras IFS and its fiber IFS'.

Vertices of rank l are the distinct l-coordinate truncations of the
maps; the children of a vertex extend it by one coordinate, and the
extending 1-D maps form the vertex's fiber IFS, a simple IFS of [0,1].
FiberIFS alone orders, scales and measures a fiber; every other layer
reads it.
"""

from .ifs import scale_labels, truncations, validate_lg
from .util import DomainError, Record


class TreeError(DomainError):
    """Domain error from the tree module; a rejection by the LG gate
    carries the gate's ValidationReport as `validation`."""

    def __init__(self, message, validation=None):
        super().__init__(message)
        self.validation = validation


class Vertex(Record):
    rank: int
    projected_map: tuple  # tuple of AffineMap1D, length == rank

    def __post_init__(self):
        object.__setattr__(self, "projected_map", tuple(self.projected_map))
        if len(self.projected_map) != self.rank:
            raise TreeError("tree: vertex rank/coefficient mismatch")
        object.__setattr__(self, "_hash", hash(self._values(self)))

    def __hash__(self):
        return self._hash


ROOT = Vertex(0, ())


class FiberIFS(Record):
    """Labels of a vertex's offspring, in any order, stored in offset
    order with their one integer form: `scaled` is (scale, steps), the
    labels over the lcm of their q as integer steps (r, o) (scale_labels)
    in the same order, and `gaps` the gaps their images leave in [0,1],
    as integers over the same scale: before the first, between neighbours
    and after the last."""

    owner: Vertex
    labels: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        for g in labels:
            if not g.unit_preserving():
                raise TreeError("tree: fiber label %s is not a self-map of [0,1]"
                                % g)
        scale, steps = scale_labels(labels)
        order = sorted(range(len(labels)), key=lambda k: steps[k][1])
        object.__setattr__(self, "labels", tuple(labels[k] for k in order))
        steps = tuple(steps[k] for k in order)
        object.__setattr__(self, "scaled", (scale, steps))
        ends = [0] + [v for r, o in steps for v in (o, o + r)] + [scale]
        gaps = [b - a for a, b in zip(ends[::2], ends[1::2])]
        # if two images overlap, some pair of neighbours does
        if min(gaps) < 0:
            raise TreeError("tree: fiber images overlap")
        object.__setattr__(self, "gaps", tuple(gaps))

    @property
    def size(self):
        return len(self.labels)

    def ratio_sum(self):
        return sum(g.ratio for g in self.labels)


class LabeledTree:
    """Immutable after construction; safe to share.  `validation` is the
    ValidationReport of the LG gate the tree was built behind.  `fibers`
    holds every fiber IFS breadth-first over ranks 0..d-1, the order in
    which build_labeled_tree adds them."""

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
        levels.append(tuple(Vertex(ell, t) for t in truncations(ifs, ell)))
        labels = {u.projected_map: [] for u in levels[-2]}
        for v in levels[-1]:
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
    return [tree.fibers[v] for v in tree.levels[tree.dim - 1]]
