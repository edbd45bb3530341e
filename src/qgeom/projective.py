"""Points and flats of PG(n-1, q).

Vectors are tuples of field element codes, coordinate 0 first.  A point is
an integer index.  Its vector is the canonical representative of a rank-1
subspace: the unique scalar multiple whose first nonzero coordinate is 1.
Points are indexed by the lexicographic order of their canonical vectors
(coordinates compared by code), which is the order iter_canonical_vectors
yields them in; point_index and point_vec convert by arithmetic, reading
the tail after the leading 1 in base q with field's codec, so no table
over the whole space is ever built.

Flats are subspaces stored as reduced row-echelon bases, which are unique
per subspace, so flats compare and hash structurally.  Rank here always
means subspace dimension: a rank-k flat carries (q^k - 1)/(q - 1) points.

reduce_row is the one elimination step over GF(q): rref, the embedding
search and the flat search of flats_meeting all reduce vectors through it.
"""

from collections import namedtuple
from itertools import product
from operator import getitem

from .errors import ZeroVector
from .field import _digits, _number


class Flat(namedtuple("Flat", "basis n field")):
    """A subspace: its RREF rows (none for the rank-0 flat), the ambient
    rank n and the FieldSpec."""

    __slots__ = ()

    @property
    def rank(self):
        return len(self.basis)


def canonical_vec(v, f):
    """Scale v so its first nonzero coordinate is 1."""
    lead = next(filter(None, v), 0)
    if not lead:
        raise ZeroVector("cannot canonicalize the zero vector")
    return tuple(map(f.unit[lead].__getitem__, v))


def iter_canonical_vectors(n, f):
    """Yield every canonical vector of length n in lexicographic order.

    Vectors with a later leading 1 start with more zeros and therefore
    come first; within one leading position the free tail runs in
    lexicographic order of codes.
    """
    q = f.q
    for lead in range(n - 1, -1, -1):
        head = (0,) * lead + (1,)
        for tail in product(range(q), repeat=n - lead - 1):
            yield head + tail


def point_index(v, n, f):
    """Index of the point spanned by the nonzero vector v (any scaling).

    The points whose leading 1 comes later number pg_size(n - 1 - lead);
    the canonical tail after the leading 1, read in base q, counts the
    points before v within its own block.
    """
    cv = canonical_vec(v, f)
    if len(cv) != n:
        raise ValueError("vector length %d differs from ambient rank %d"
                         % (len(cv), n))
    lead = cv.index(1)
    return pg_size(n - 1 - lead, f) + _number(cv[lead + 1:], f.q)


def point_vec(i, n, f):
    """Canonical vector of point i of PG(n-1, q); inverse of point_index.

    The tail after the leading 1 has the length t with pg_size(t) <= i <
    pg_size(t + 1), that is q^t <= i(q - 1) + 1 < q^(t + 1): an exact
    integer logarithm, found by bisection between bounds from bit lengths.
    """
    if not 0 <= i < pg_size(n, f):
        raise ValueError("point index %d out of range for rank %d over GF(%d)"
                         % (i, n, f.q))
    q, x = f.q, i * (f.q - 1) + 1
    b, qb = x.bit_length() - 1, q.bit_length()
    t, hi = b // qb, b // (qb - 1) + 1  # q^t <= 2^b <= x < 2^(b+1) <= q^hi
    while hi - t > 1:
        mid = (t + hi) // 2
        t, hi = (mid, hi) if q ** mid <= x else (t, mid)
    return (0,) * (n - 1 - t) + (1,) + _digits(i - pg_size(t, f), q, t)


def combine(coeffs, rows, f):
    """The linear combination sum(a * row) over GF(q); rows is nonempty."""
    out = (0,) * len(rows[0])
    for a, row in zip(coeffs, rows):
        if a:
            out = tuple(map(getitem, map(f.shift[a].__getitem__, out), row))
    return out


def pg_size(n, f):
    """(q^n - 1)/(q - 1): the number of points of PG(n-1, q)."""
    return (f.q ** n - 1) // (f.q - 1)


def gaussian_binomial(n, k, q):
    """Number of rank-k flats of PG(n-1, q), by the product formula."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def reduce_row(v, echelon, f):
    """Reduce v against echelon rows: the one elimination step over GF(q).

    echelon holds (pivot, row) pairs, each row with a 1 at its pivot and a
    0 at the pivots listed before it.  Returns (pivot, remainder scaled to
    a leading 1), or None when v lies in the span of the rows.
    """
    shift, neg = f.shift, f.neg
    for p, row in echelon:
        if v[p]:
            v = tuple(map(getitem, map(shift[neg(v[p])].__getitem__, v), row))
    lead = next(filter(None, v), 0)
    if not lead:
        return None
    v = tuple(map(f.unit[lead].__getitem__, v))
    return v.index(1), v


def rref(rows, n, f):
    """Reduced row echelon form over GF(q): (rows, pivots), pivots rising.

    Each row's remainder against the rows kept so far, if nonzero, is
    cleared from them at its pivot and kept.  Once the rank reaches n, the
    remaining rows are not read.
    """
    kept = []
    for v in rows:
        if len(kept) == n:
            break
        new = reduce_row(v, kept, f)
        if new is not None:
            kept = [reduce_row(row, (new,), f) for _, row in kept]
            kept.append(new)
    kept.sort()
    return tuple(r for _, r in kept), tuple(p for p, _ in kept)


def span(vecs, n, f):
    """The flat spanned by a collection of vectors."""
    basis, _ = rref([tuple(v) for v in vecs], n, f)
    return Flat(basis=basis, n=n, field=f)


def flat_contains_point(F, v):
    """True iff the vector v lies in the subspace F."""
    v = tuple(v)
    if len(v) != F.n:
        raise ValueError("ambient rank mismatch")
    return span(F.basis + (v,), F.n, F.field).rank == F.rank


def flat_intersect(F1, F2):
    """Intersection of two flats, by the Zassenhaus method.

    Reducing the rows [a | a] for a in F1 and [b | 0] for b in F2 leaves
    rows whose left half is zero; their right halves are a basis of the
    intersection, already in reduced echelon form.
    """
    if F1.n != F2.n or F1.field != F2.field:
        raise ValueError("flat_intersect needs flats of one ambient space")
    n, f = F1.n, F1.field
    rows = [a + a for a in F1.basis] + [b + (0,) * n for b in F2.basis]
    R, pivots = rref(rows, 2 * n, f)
    basis = tuple(r[n:] for r, c in zip(R, pivots) if c >= n)
    return Flat(basis=basis, n=n, field=f)


def flat_points(F):
    """Indices of the (q^r - 1)/(q - 1) points lying on F."""
    f, n = F.field, F.n
    return frozenset(point_index(combine(a, F.basis, f), n, f)
                     for a in iter_canonical_vectors(F.rank, f))


def iter_flats(n, f, k):
    """Yield every rank-k flat of PG(n-1, q) exactly once, in the order of
    the flat search: flats_meeting with no points to meet."""
    return flats_meeting((), n, f, k, 0)


def flats_meeting(vecs, n, f, k, r):
    """Yield, in iter_flats order, the rank-k flats meeting the points with
    canonical vectors vecs in rank at most r.

    Each flat is built as its RREF basis from the last row up.  A new row
    takes a pivot p left of the pivots placed, tried from the right, with
    room left of p for the rows still to come; it has zeros left of p and
    in the placed pivot columns, and its free entries run in product
    order.  The placed rows are zero at p already, so every flat is
    reached once, and its last rows do not depend on the pivots above.

    Points are kept as residues, reduced against the rows so far and
    scaled to a leading 1, and grouped by residue: a row v adds group v to
    the meet.  A residue whose leading 1 is not left of the newest pivot
    is dropped, as no row still to come can reduce it.  The meet only
    grows, so a branch is cut once its rank passes r.
    """
    def grow(groups, meet, rows, pivots):
        if len(rows) == k:
            yield Flat(basis=rows, n=n, field=f)
            return
        for p in range(min(pivots, default=n) - 1, k - len(rows) - 2, -1):
            cols = [range(f.q) if j > p and j not in pivots else
                    (int(j == p),) for j in range(n)]
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
                        if w.index(1) < p:
                            w = reduce_row(w, ((p, v),), f)[1] if w[p] else w
                            nxt[w] = nxt.get(w, ()) + hs
                    yield from grow(nxt, grown, (v,) + rows, pivots + (p,))

    return grow({v: (v,) for v in vecs}, (), (), ())
