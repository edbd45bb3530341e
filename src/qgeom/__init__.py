"""Exact computational toolkit for finite projective geometries over GF(q).

Constructs PG/AG/G(m-1, q, c) point sets, decides restriction containment
with checkable witnesses, computes critical exponents and exact extremal
numbers at desk scale, and evaluates the exact tower-type bound functions.
"""

from .bounds import (
    BoundValue,
    RecursiveBound,
    binary_base,
    r_main2_binary,
    r_main2_recursive,
    r_mdhj_binary,
    smallest_t,
    tower,
)
from .embed import EmbeddingWitness, contains, verify_witness
from .errors import (
    DivisionByZero,
    EmptyGeometry,
    FieldMismatch,
    InvalidEpsilon,
    NotPrimePower,
    PointInFlat,
    QgeomError,
    Unsupported,
    ZeroVector,
)
from .extremal import (
    Budget,
    DensityRow,
    ExtremalResult,
    bose_burton_value,
    density_table,
    ex_exact,
    find_sparse_flat,
    is_free,
)
from .field import FieldSpec, fe_add, fe_inv, fe_mul, fe_sub, field_make
from .geometry import (
    Geometry,
    complement_geometry,
    critical_exponent,
    g_size,
    geometry_from_json,
    geometry_rank,
    geometry_to_json,
    make_ag,
    make_g,
    make_pg,
)
from .projective import (
    Flat,
    canonical_vec,
    enumerate_flats,
    extend_flat,
    flat_contains_point,
    flat_intersect,
    flat_points,
    gaussian_binomial,
    pg_size,
    point_index,
    point_vec,
    span,
)

__version__ = "0.1.0"
