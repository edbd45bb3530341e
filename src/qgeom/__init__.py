"""Exact computational toolkit for finite projective geometries over GF(q).

Constructs PG/AG/G(m-1, q, c) point sets, decides restriction containment
with checkable witnesses, computes critical exponents and exact extremal
numbers at desk scale, and evaluates the exact tower-type bound functions.

Each public name is imported from its submodule on first access (PEP 562),
so `import qgeom` loads no submodule and a caller pays only for the ones
it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": "BoundValue RecursiveBound r_main2_binary r_main2_recursive "
              "r_mdhj_binary smallest_t tower",
    "embed": "EmbeddingWitness contains verify_witness",
    "errors": "DivisionByZero EmptyGeometry FieldMismatch InvalidEpsilon "
              "NotPrimePower QgeomError Unsupported ZeroVector",
    "extremal": "Budget DensityRow ExtremalResult bose_burton_value "
                "density_table ex_exact find_sparse_flat is_free",
    "field": "FieldSpec field_make",
    "geometry": "Geometry complement_geometry critical_exponent g_size "
                "geometry_from_json geometry_rank geometry_to_json make_ag "
                "make_g make_pg",
    "projective": "Flat canonical_vec flat_contains_point flat_intersect "
                  "flat_points gaussian_binomial pg_size point_index "
                  "point_vec span",
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule not imported yet
        return import_module("." + name, __name__)
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
