"""Decision procedure: conformal dimension class via fiber-IFS tiling.

The attractor is uniformly disconnected exactly when no fiber IFS has
attractor [0,1]; in that case the conformal dimension is zero.  When a
tiling fiber exists the dimension is at least one, and exactly one when
the system itself is of the special form (root fiber tiles with full
cardinality, all deeper fibers singletons).
"""

from fractions import Fraction
from functools import cached_property

from .ifs import DiagonalAffineMap, SpongeIFS, fixed_point, truncations
from .tree import TreeError, Vertex, build_labeled_tree, fiber_ifs
from .util import DomainError, Record

ZERO = "Zero"
AT_LEAST_ONE = "AtLeastOne"
EXACTLY_ONE = "ExactlyOne"


class ClassifyError(DomainError):
    """Domain error from the classify module."""


class FiberVerdict(Record):
    owner: Vertex
    ratio_sum: Fraction
    tiles: bool


class Classification(Record):
    uniformly_disconnected: bool
    conformal_dim_class: str
    witness: Vertex | None
    fiber_report: tuple  # of FiberVerdict, breadth-first

    def __post_init__(self):
        assert self.uniformly_disconnected == (self.conformal_dim_class == ZERO)
        assert (self.witness is not None) == (not self.uniformly_disconnected)


class SubsystemF0(Record):
    prefix_maps: tuple   # witness vertex coordinates g_1..g_s
    sub_ifs: SpongeIFS   # dimension d-s
    anchor_point: tuple  # fixed point of (g_1..g_s); empty when s=0


def attractor_is_unit_interval(fiber):
    """True iff the closed label images tile [0,1] exactly."""
    return not any(fiber.gaps)


class Analysis:
    """One system's decision pipeline, each stage computed once on first
    use: the labeled tree (behind its LG gate), its validation report,
    the classification, then the special system."""

    def __init__(self, ifs):
        self.ifs = ifs

    @classmethod
    def of(cls, ifs):
        """`ifs` itself when it is already an Analysis."""
        return ifs if isinstance(ifs, cls) else cls(ifs)

    @cached_property
    def tree(self):
        return build_labeled_tree(self.ifs)

    @cached_property
    def validation(self):
        """The LG gate's ValidationReport, read from the tree or from the
        TreeError that rejected the system."""
        try:
            return self.tree.validation
        except TreeError as exc:
            if exc.validation is None:
                raise
            return exc.validation

    @cached_property
    def classification(self):
        fibers = self.tree.fibers.values()
        verdicts = []
        witness = None
        for fib in fibers:
            tiles = attractor_is_unit_interval(fib)
            verdicts.append(FiberVerdict(fib.owner, fib.ratio_sum(), tiles))
            if tiles and witness is None:
                witness = fib.owner
        if witness is None:
            return Classification(True, ZERO, None, tuple(verdicts))
        # special form: the root fiber tiles with full cardinality and every
        # fiber of rank >= 1 is a singleton.  Singletons never tile (ratios
        # are below 1), so the witness is then the root, and full
        # cardinality is the same as singletons below the root.
        special = all(fib.size == 1 for fib in fibers if fib.owner.rank)
        dim_class = EXACTLY_ONE if special else AT_LEAST_ONE
        return Classification(False, dim_class, witness, tuple(verdicts))

    @cached_property
    def special(self):
        """cantor.analyze_special_system's (SpecialSystem, SeriesConstants),
        read through the module, which loads on first use."""
        from . import cantor
        return cantor.analyze_special_system(self)


def classify(ifs):
    """Classify the sponge (an IFS or its Analysis); raises TreeError when
    LG validation fails."""
    return Analysis.of(ifs).classification


def line_segment_witness(ifs, witness):
    """Anchor point x0 such that {x0} x [0,1] lies in the attractor; `ifs`
    may be an Analysis."""
    analysis = Analysis.of(ifs)
    dim = analysis.ifs.dim
    if witness.rank != dim - 1:
        raise ClassifyError(
            "classify: line-segment witness must have rank d-1 = %d, got %d"
            % (dim - 1, witness.rank))
    return extract_special_subsystem(analysis, witness).anchor_point, dim


def extract_special_subsystem(ifs, witness):
    """Build the special subsystem anchored at the witness vertex.

    For each label h_j of the witness fiber, keep the first input map
    extending (witness, h_j) and truncate to its last d-s coordinates.
    `ifs` may be an Analysis.
    """
    analysis = Analysis.of(ifs)
    ifs = analysis.ifs
    tree = analysis.tree
    s = witness.rank
    if s > ifs.dim - 1:
        raise ClassifyError("classify: witness rank %d exceeds d-1" % s)
    try:
        fib = fiber_ifs(tree, witness)
    except TreeError as exc:
        raise ClassifyError("classify: %s" % exc)
    if not attractor_is_unit_interval(fib):
        raise ClassifyError("classify: witness fiber does not tile [0,1]")
    # every label of a tree fiber comes from a map extending the vertex
    first = truncations(ifs, s + 1)
    sub_maps = tuple(DiagonalAffineMap(ifs.maps[
        first[witness.projected_map + (h,)]].coords[s:]) for h in fib.labels)
    sub_ifs = SpongeIFS(ifs.dim - s, sub_maps)
    anchor = fixed_point(DiagonalAffineMap(witness.projected_map)) if s else ()
    return SubsystemF0(witness.projected_map, sub_ifs, anchor)
