"""Exact-arithmetic toolkit for diagonal self-affine sponges.

Decides uniform disconnectedness (equivalently, conformal dimension
zero) for sponges satisfying the coordinate-ordering and neat-projection
conditions, and ships brute-force oracles for the quantitative bounds
the decision rests on.
"""

from importlib import import_module

from .ifs import (AffineMap1D, Box, DiagonalAffineMap, IFSError, Interval,
                  ParseError, SpongeIFS, ValidationReport, cylinder_box,
                  fixed_point, parse_ifs, serialize_ifs, validate_lg)
from .tree import (FiberIFS, LabeledTree, TreeError, Vertex,
                   build_labeled_tree, fiber_ifs, last_coordinate_fibers)
from .classify import (AT_LEAST_ONE, Analysis, Classification, ClassifyError,
                       EXACTLY_ONE, SubsystemF0, ZERO,
                       attractor_is_unit_interval, classify,
                       extract_special_subsystem, line_segment_witness)
from .components import (ApproxSquare, ComponentPartition, ComponentsError,
                         IntervalSet, PointSet, PreMoranSet, PreconditionError,
                         SimpleIFSFamily, approx_square, check_premoran_bound,
                         check_product_decomposition, check_union_bound,
                         component_diameter_profile, delta0_sequence_exists,
                         delta0_sequence_exists_sq, delta_components,
                         delta_components_sq, enumerate_cylinders,
                         interval_components, pre_moran_intervals)
from .util import DEFAULT_CAP, DomainError, ResourceCapError

__version__ = "0.1.0"

# The Cantor-model stage runs only for ExactlyOne systems: its module
# loads when one of these names is first read (PEP 562).
_CANTOR_NAMES = frozenset("""cantor BinaryCantorTree CantorError CantorTree
    LipschitzConstants SeriesConstants SpecialSystem analyze_special_system
    bilipschitz_check build_cantor_tree cylinder_length gap_length
    lipschitz_constants to_binary_tree""".split())


def __getattr__(name):
    if name not in _CANTOR_NAMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    cantor = import_module(".cantor", __name__)
    return cantor if name == "cantor" else getattr(cantor, name)
