"""Labeled tree of a Lalley-Gatzouras IFS and its fiber IFS'.

Vertices of rank l are the distinct l-coordinate truncations of the
maps; the children of a vertex extend it by one coordinate, and the
extending 1-D maps form the vertex's fiber IFS, a simple IFS of [0,1].
"""

from dataclasses import dataclass

from .ifs import IFSError, major_projection, validate_lg


class TreeError(Exception):
    """Domain error from the tree module."""


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
    """Labels of a vertex's offspring, ordered by left endpoint of image."""

    owner: Vertex
    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        for g in self.labels:
            if not g.unit_preserving():
                raise TreeError("tree: fiber label %s is not a self-map of [0,1]"
                                % g)
        images = sorted((g.image() for g in self.labels), key=lambda iv: iv.lo)
        for a, b in zip(images, images[1:]):
            if a.hi > b.lo:
                raise TreeError("tree: fiber images overlap")

    @property
    def size(self):
        return len(self.labels)

    def ratio_sum(self):
        return sum(g.ratio for g in self.labels)


class LabeledTree:
    """Immutable after construction; safe to share."""

    def __init__(self, dim, levels, edges):
        self.dim = dim
        self.levels = tuple(tuple(level) for level in levels)
        self.edges = dict(edges)  # (parent Vertex, label) -> child Vertex
        self._children = {}
        for (parent, label), child in self.edges.items():
            self._children.setdefault(parent, []).append((label, child))
        for parent, kids in self._children.items():
            kids.sort(key=lambda lc: lc[0].image().lo)

    def children(self, vertex):
        return tuple(self._children.get(vertex, ()))


def build_labeled_tree(ifs):
    """Build the labeled tree; rejects systems failing LG validation."""
    report = validate_lg(ifs)
    if not report.lg_type:
        raise TreeError("tree: input is not of Lalley-Gatzouras type: %s"
                        % (report.violations,))
    levels = [(ROOT,)]
    edges = {}
    for ell in range(1, ifs.dim + 1):
        proj = major_projection(ifs, ell)
        level = []
        for m in proj.maps:
            child = Vertex(ell, m.coords)
            level.append(child)
            parent = Vertex(ell - 1, m.coords[:-1])
            label = m.coords[-1]
            edges[(parent, label)] = child
        levels.append(tuple(level))
    return LabeledTree(ifs.dim, levels, edges)


def fiber_ifs(tree, vertex):
    """The simple IFS formed by the vertex's offspring labels."""
    if vertex.rank >= tree.dim:
        raise TreeError("tree: rank-%d vertex has no fiber IFS (leaf)"
                        % vertex.rank)
    kids = tree.children(vertex)
    if not kids:
        raise TreeError("tree: vertex not in tree")
    return FiberIFS(vertex, tuple(label for label, _ in kids))


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
