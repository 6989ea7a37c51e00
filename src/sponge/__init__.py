"""Exact-arithmetic toolkit for diagonal self-affine sponges.

Decides uniform disconnectedness (equivalently, conformal dimension
zero) for sponges satisfying the coordinate-ordering and neat-projection
conditions, and ships brute-force oracles for the quantitative bounds
the decision rests on.
"""

from .ifs import (AffineMap1D, Box, DiagonalAffineMap, IFSError, Interval,
                  ParseError, SpongeIFS, ValidationReport, compose_words,
                  cylinder_box, fixed_point, major_projection, parse_ifs,
                  serialize_ifs, validate_lg, width)
from .tree import (FiberIFS, LabeledTree, TreeError, Vertex, all_fiber_ifs,
                   build_labeled_tree, fiber_ifs, last_coordinate_fibers)
from .classify import (AT_LEAST_ONE, Classification, ClassifyError,
                       EXACTLY_ONE, SubsystemF0, ZERO,
                       attractor_is_unit_interval, classify,
                       extract_special_subsystem, line_segment_witness)
from .components import (ApproxSquare, ComponentPartition, ComponentsError,
                         PointSet, PreMoranSet, PreconditionError,
                         SimpleIFSFamily, approx_square, check_premoran_bound,
                         check_product_decomposition, check_union_bound,
                         component_diameter_profile, delta0_sequence_exists,
                         delta0_sequence_exists_sq, delta_components,
                         delta_components_sq, enumerate_cylinders,
                         interval_components, pre_moran_intervals)
from .cantor import (BinaryCantorTree, CantorError, CantorTree,
                     LipschitzConstants, SeriesConstants, SpecialSystem,
                     analyze_special_system, bilipschitz_check,
                     build_cantor_tree, cylinder_length, gap_length,
                     lipschitz_constants, to_binary_tree)
from .util import DEFAULT_CAP, ResourceCapError

__version__ = "0.1.0"
