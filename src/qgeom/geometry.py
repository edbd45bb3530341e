"""Geometries: finite point sets in PG(n-1, q), and the PG/AG/G families.

A geometry is a simple set of point indices into the fixed enumeration of
its ambient projective space.  G(m-1, q, c) is PG(m-1, q) with the points
of a rank-(m-c) flat removed; the removed flat is always the one spanned
by the first m-c standard basis vectors so that serializations are
byte-identical across runs.  G(m-1, q, 1) is the affine geometry
AG(m-1, q) and G(m-1, q, m) is PG(m-1, q) itself.

All densities and ratios derived from these sets are exact rationals.
"""

from itertools import combinations, product

from .errors import EmptyGeometry
from .field import _Value, field_make
from .projective import (Flat, pg_size, point_index, point_vec, reduce_row,
                         rref, span)


class Geometry(_Value):
    """An immutable point set of PG(ambient-1, q) over the FieldSpec field.

    points is stored sorted and duplicate-free; len() is the point count.
    Equality and hashing use (field, ambient, points).
    """

    __slots__ = _KEY = ("field", "ambient", "points")

    def __init__(self, field, ambient, points):
        for name, value in zip(self._KEY, (field, ambient, points)):
            object.__setattr__(self, name, value)
        self.__post_init__()

    # The checks keep their own method: bench/tracing.py counts
    # constructions by wrapping it.
    def __post_init__(self):
        if self.ambient < 1:
            raise ValueError("ambient rank must be at least 1, not %r"
                             % (self.ambient,))
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


# Every operation over a whole space (make_pg, make_g, complement_geometry,
# critical_exponent, ex_exact, density_table, find_sparse_flat) refuses one
# above this many points instead of allocating; PG(6, 9), 597871 points, fits.
MAX_LISTED_POINTS = 2 ** 20


def _listable_size(m, f):
    """pg_size(m, f), or ValueError for m < 1 or above MAX_LISTED_POINTS.

    pg_size(m, f) >= 2^(m-1), so a rank m past the bit length of the limit
    is refused before q^m is built.
    """
    if m < 1:
        raise ValueError("rank must be at least 1, not %d" % m)
    if m > MAX_LISTED_POINTS.bit_length() or \
            pg_size(m, f) > MAX_LISTED_POINTS:
        raise ValueError("PG(%d, %d) is above the limit of %d points"
                         % (m - 1, f.q, MAX_LISTED_POINTS))
    return pg_size(m, f)


def make_pg(m, f):
    """PG(m-1, q): every point of the rank-m space."""
    return Geometry(field=f, ambient=m,
                    points=tuple(range(_listable_size(m, f))))


def make_g(m, f, c):
    """G(m-1, q, c): PG(m-1, q) minus the canonical rank-(m-c) flat."""
    if not 0 <= c <= m:
        raise ValueError("family g needs 0 <= c <= m")
    # The flat's points have their last c coordinates zero and their
    # leading 1 before them: the indices head + k * q^c, k >= 0, with head
    # = pg_size(c), since pg_size(j) = head mod q^c for every j >= c.
    total = _listable_size(m, f)
    head, period = pg_size(c, f), f.q ** c
    keep = tuple(i for i in range(total) if i < head or (i - head) % period)
    return Geometry(field=f, ambient=m, points=keep)


def make_ag(m, f):
    """AG(m-1, q), the rank-m affine geometry: q^(m-1) points."""
    return make_g(m, f, 1)


def g_size(n, f, c):
    """|G(n-1, q, c)| = (q^n - q^(n-c))/(q - 1), exactly."""
    if not 0 <= c <= n:
        raise ValueError("g_size needs 0 <= c <= n")
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


def first_flat(vecs, n, f, k, r):
    """The first rank-k flat of PG(n-1, q), in iter_flats order, meeting the
    points with canonical vectors vecs in rank at most r; or None.

    Pivots are fixed first, in combinations order, then rows are picked
    from the first down, free entries in product order.  Points are kept
    as residues, reduced against the rows so far and scaled to a leading
    1, and grouped by residue: a row v adds group v to the meet.  The meet
    only grows, so a branch is cut once its rank passes r; a pivot set is
    skipped when its tail pivots[1:] carries no answer.

    The counting cut lives here: such a flat has pg_size(k) - pg_size(r)
    points or more off vecs, so None comes at once when the space has
    fewer.  A space of more than MAX_LISTED_POINTS points raises ValueError.
    """
    if _listable_size(n, f) - len(vecs) < pg_size(k, f) - pg_size(r, f):
        return None
    known = {(): ()}
    for pivots in combinations(range(n), k):
        rows = _first_rows(pivots, vecs, known, n, f, r)
        if rows is not None:
            return Flat(basis=rows, n=n, field=f)
    return None


def _first_rows(pivots, vecs, known, n, f, r):
    """The first rows with exactly these pivots, or None, kept in known."""
    if pivots not in known:
        known[pivots] = None
        # the rows after the first span a flat with pivots pivots[1:]
        if _first_rows(pivots[1:], vecs, known, n, f, r) is not None:
            groups = {v: (v,) for v in vecs if v.index(1) in pivots}
            known[pivots] = _rows(groups, (), pivots, n, f, r)
    return known[pivots]


def _rows(groups, meet, pivots, n, f, r):
    """first_flat's rows from pivots[0] on, given the groups and the meet."""
    if not pivots:
        return ()
    p, later = pivots[0], pivots[1:]
    cols = [range(f.q) if j > p and j not in later else (int(j == p),)
            for j in range(n)]
    for v in product(*cols):
        grown = meet
        for h in groups.get(v, ()):
            new = reduce_row(h, grown, f)
            grown += () if new is None else (new,)
            if len(grown) > r:
                break
        else:
            nxt = {}
            for w, hs in groups.items():
                if w[p] and w != v:
                    w = reduce_row(w, ((p, v),), f)[1]
                if w.index(1) in later:
                    nxt[w] = nxt.get(w, ()) + hs
            rows = _rows(nxt, grown, later, n, f, r)
            if rows is not None:
                return (v,) + rows
    return None


def critical_exponent(H):
    """Least c >= 1 such that some rank-(m-c) flat of span(H) avoids H.

    In coordinates of the span, c = m - k for the largest rank k at which
    first_flat finds a flat meeting H in rank 0, trying the ranks from the
    top down; rank 0 always succeeds.  first_flat's counting cut skips a
    rank with too little room off H, and a span of more than
    MAX_LISTED_POINTS points raises ValueError there.
    """
    if not H.points:
        raise EmptyGeometry("critical exponent of the empty geometry")
    m, _, coords = span_coordinates(H)
    for k in range(m - 1, -1, -1):
        if first_flat(coords, m, H.field, k, 0):
            return m - k


def complement_geometry(H):
    """All points of the ambient PG not in H."""
    inside = H.point_set
    keep = tuple(i for i in range(_listable_size(H.ambient, H.field))
                 if i not in inside)
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
