"""Exact counting and classification of distinct triangles in finite planar
point sets and lattices."""

__version__ = "0.1.0"

from .qscalar import QScalar
from .geometry import (
    QPoint,
    TriangleShape,
    distinct_triangle_count,
    is_degenerate,
    shape_of,
    sq_dist,
)
from .lattice import (
    BoundingBoxClass,
    GramForm,
    LatticeKind,
    ShapeCensus,
    all_triples_census,
    bounding_box_class,
    census_series,
    general_lattice_census,
    grid_census,
    ratio_fit,
    tri_lattice_census,
)
from .rotation import (
    PythTriple,
    RotatableBreakdown,
    constant_sum,
    count_primitive_triples,
    count_rotatable_points,
    count_rotatable_triangles,
    enum_primitive_triples,
    is_rotatable_by,
    lemma32_bound_check,
    lemma33_spot_check,
    minimal_congruency_set,
    rotate_exact,
    verify_minimality,
)
from .search import (
    GroundSet,
    SearchResult,
    make_ngon_ground_set,
    max_subset_with_k_shapes,
    ngon_asymptotic_check,
    ngon_distinct_triangles,
    verify_subset,
)
