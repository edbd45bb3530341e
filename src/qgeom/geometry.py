"""Geometries: finite point sets in PG(n-1, q), and the PG/AG/G families.

A geometry is a simple set of point indices into the fixed enumeration of
its ambient projective space.  G(m-1, q, c) is PG(m-1, q) with the points
of a rank-(m-c) flat removed; the removed flat is always the one spanned
by the first m-c standard basis vectors so that serializations are
byte-identical across runs.  G(m-1, q, 1) is the affine geometry
AG(m-1, q) and G(m-1, q, m) is PG(m-1, q) itself.

All densities and ratios derived from these sets are exact rationals.
"""

from __future__ import annotations

from .errors import EmptyGeometry
from .field import field_make
from .projective import (
    Flat,
    flat_points,
    iter_flats,
    pg_size,
    point_index,
    point_vec,
    rref,
    span,
)


class Geometry:
    """An immutable point set of PG(ambient-1, q) over the FieldSpec field.

    points is stored sorted and duplicate-free; len() is the point count.
    Equality and hashing use (field, ambient, points).
    """

    __slots__ = ("field", "ambient", "points")

    def __init__(self, field, ambient, points):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "points", points)
        self.__post_init__()

    # The checks keep their own method: bench/tracing.py counts
    # constructions by wrapping it.
    def __post_init__(self):
        pts = tuple(sorted(self.points))
        if len(pts) != len(set(pts)):
            raise ValueError("duplicate points: geometries are simple point sets")
        if pts and (pts[0] < 0 or pts[-1] >= pg_size(self.ambient, self.field)):
            raise ValueError("point index out of range for the ambient space")
        object.__setattr__(self, "points", pts)

    @property
    def point_set(self):
        return frozenset(self.points)

    def point_vecs(self):
        return [point_vec(i, self.ambient, self.field) for i in self.points]

    def __len__(self):
        return len(self.points)

    def _key(self):
        return self.field, self.ambient, self.points

    def __eq__(self, other):
        if type(other) is not Geometry:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Geometry(field=%r, ambient=%r, points=%r)" % self._key()

    def __reduce__(self):
        return Geometry, self._key()

    def __setattr__(self, name, value):
        raise AttributeError("Geometry is immutable")

    def __delattr__(self, name):
        raise AttributeError("Geometry is immutable")


# make_pg, make_g and complement_geometry list every point of the space and
# refuse a larger one instead of allocating; PG(6, 9), 597871 points, fits.
MAX_LISTED_POINTS = 2 ** 20


def _listable_size(m, f):
    """pg_size(m, f), or ValueError above MAX_LISTED_POINTS points."""
    total = pg_size(m, f)
    if total > MAX_LISTED_POINTS:
        raise ValueError("PG(%d, %d) has %d points, above the limit of %d"
                         % (m - 1, f.q, total, MAX_LISTED_POINTS))
    return total


def _points_outside(m, f, inside):
    """Indices of PG(m-1, q) not in the set inside, in increasing order."""
    return tuple(i for i in range(_listable_size(m, f)) if i not in inside)


def _standard_flat_points(m, f, r):
    """Indices of the points of the flat spanned by the first r basis vectors."""
    basis = tuple(tuple(int(i == j) for j in range(m)) for i in range(r))
    return flat_points(Flat(basis=basis, n=m, field=f))


def make_pg(m, f):
    """PG(m-1, q): every point of the rank-m space."""
    return Geometry(field=f, ambient=m, points=_points_outside(m, f, ()))


def make_g(m, f, c):
    """G(m-1, q, c): PG(m-1, q) minus the canonical rank-(m-c) flat."""
    if not 0 <= c <= m:
        raise ValueError("family g needs 0 <= c <= m")
    _listable_size(m, f)  # the removed flat can be nearly as large
    removed = _standard_flat_points(m, f, m - c)
    return Geometry(field=f, ambient=m, points=_points_outside(m, f, removed))


def make_ag(m, f):
    """AG(m-1, q), the rank-m affine geometry: q^(m-1) points."""
    return make_g(m, f, 1)


def g_size(n, f, c):
    """|G(n-1, q, c)| = (q^n - q^(n-c))/(q - 1), exactly."""
    assert 0 <= c <= n
    return (f.q ** n - f.q ** (n - c)) // (f.q - 1)


def geometry_rank(H):
    """Rank of the flat spanned by H's points (0 for the empty geometry)."""
    return span(H.point_vecs(), H.ambient, H.field).rank


def span_coordinates(H):
    """Coordinates of H's points in the RREF basis of their span.

    Returns (rank, pivots, coord vectors aligned with H.points).  Because
    the span basis is in reduced echelon form, the coordinate vector of a
    member v is just v restricted to the pivot columns.
    """
    vecs = H.point_vecs()
    basis, pivots = rref(vecs, H.ambient, H.field)
    coords = [tuple(v[c] for c in pivots) for v in vecs]
    return len(basis), pivots, coords


def critical_exponent(H):
    """Least c >= 1 such that some rank-(m-c) flat of span(H) avoids H.

    Works in coordinates of the span, so only the rank m of H matters,
    not the ambient.  The rank-0 flat is disjoint from everything, so the
    answer always lands in [1, m].
    """
    if not H.points:
        raise EmptyGeometry("critical exponent of the empty geometry")
    f = H.field
    m, _, coords = span_coordinates(H)
    inside = frozenset(point_index(v, m, f) for v in coords)
    for c in range(1, m + 1):
        for F in iter_flats(m, f, m - c):
            if inside.isdisjoint(flat_points(F)):
                return c
    raise AssertionError("unreachable: the rank-0 flat is always disjoint")


def complement_geometry(H):
    """All points of the ambient PG not in H."""
    keep = _points_outside(H.ambient, H.field, H.point_set)
    return Geometry(field=H.field, ambient=H.ambient, points=keep)


def geometry_to_json(H):
    """Plain-dict form of the documented geometry JSON schema."""
    return {
        "q": H.field.q,
        "p": H.field.p,
        "k": H.field.k,
        "modulus": list(H.field.modulus),
        "ambient": H.ambient,
        "points": [list(v) for v in H.point_vecs()],
    }


def _json_int(value, what):
    # bool is an int subclass, but JSON true/false is not a number
    if type(value) is not int:
        raise ValueError("%s must be an integer, not %r" % (what, value))
    return value


def geometry_from_json(obj):
    """Parse and validate the geometry JSON schema.

    Every number must be a JSON integer.  Coordinates are
    re-canonicalized; duplicate points (after canonicalization) are
    rejected.
    """
    if not isinstance(obj, dict):
        raise ValueError("a geometry must be a JSON object")
    f = field_make(_json_int(obj["q"], "q"))
    if f.p != _json_int(obj["p"], "p") or f.k != _json_int(obj["k"], "k"):
        raise ValueError("field header (p, k) inconsistent with q")
    modulus = obj.get("modulus", [])
    if not isinstance(modulus, list) or \
            tuple(_json_int(x, "modulus coefficient") for x in modulus) \
            != f.modulus:
        raise ValueError("modulus differs from the frozen table entry")
    n = _json_int(obj["ambient"], "ambient")
    if n < 1:
        raise ValueError("ambient rank must be at least 1")
    points = obj["points"]
    if not isinstance(points, list) or \
            not all(isinstance(coords, list) for coords in points):
        raise ValueError("points must be a list of coordinate lists")
    indices = []
    for coords in points:
        v = tuple(_json_int(x, "coordinate") for x in coords)
        if len(v) != n:
            raise ValueError("point coordinate list has wrong length")
        if not all(0 <= x < f.q for x in v):
            raise ValueError("coordinate code out of range for GF(%d)" % f.q)
        indices.append(point_index(v, n, f))
    return Geometry(field=f, ambient=n, points=tuple(indices))
