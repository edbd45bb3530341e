"""Points and flats of PG(n-1, q).

Vectors are tuples of field element codes, coordinate 0 first.  A point is
an integer index.  Its vector is the canonical representative of a rank-1
subspace: the unique scalar multiple whose first nonzero coordinate is 1.
Points are indexed by the lexicographic order of their canonical vectors
(coordinates compared by code), which is the order iter_canonical_vectors
yields them in; point_index and point_vec convert by arithmetic, so no
table over the whole space is ever built.

Flats are subspaces stored as reduced row-echelon bases, which are unique
per subspace, so flats compare and hash structurally.  Rank here always
means subspace dimension: a rank-k flat carries (q^k - 1)/(q - 1) points.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, product

from .errors import PointInFlat, ZeroVector


class Flat(namedtuple("Flat", "basis n field")):
    """A subspace: its RREF rows (none for the rank-0 flat), the ambient
    rank n and the FieldSpec."""

    __slots__ = ()

    @property
    def rank(self):
        return len(self.basis)


def canonical_vec(v, f):
    """Scale v so its first nonzero coordinate is 1."""
    for c in v:
        if c:
            if c == 1:
                return tuple(v)
            s = f.inv(c)
            return tuple(f.mul(s, x) for x in v)
    raise ZeroVector("cannot canonicalize the zero vector")


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
    q = f.q
    tail = 0
    for x in cv[lead + 1:]:
        tail = tail * q + x
    return (q ** (n - 1 - lead) - 1) // (q - 1) + tail


def point_vec(i, n, f):
    """Canonical vector of point i of PG(n-1, q); inverse of point_index."""
    if not 0 <= i < pg_size(n, f):
        raise ValueError("point index %d out of range for rank %d over GF(%d)"
                         % (i, n, f.q))
    q = f.q
    t, block = 0, 1  # tail length, and the q^t points with that tail length
    while i >= block:
        i -= block
        t += 1
        block *= q
    tail = [0] * t
    for k in range(t - 1, -1, -1):
        i, tail[k] = divmod(i, q)
    return (0,) * (n - 1 - t) + (1,) + tuple(tail)


def combine(coeffs, rows, f):
    """The linear combination sum(a * row) over GF(q); rows is nonempty."""
    out = (0,) * len(rows[0])
    for a, row in zip(coeffs, rows):
        if a:
            if a != 1:
                row = [f.mul(a, y) for y in row]
            out = [f.add(x, y) for x, y in zip(out, row)]
    return tuple(out)


def pg_size(n, f):
    """(q^n - 1)/(q - 1): the number of points of PG(n-1, q)."""
    return (f.q ** n - 1) // (f.q - 1)


def gaussian_binomial(n, k, q):
    """Number of rank-k flats of PG(n-1, q), by the product formula."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def rref(rows, n, f, transform=False):
    """Reduced row echelon form over GF(q).

    Returns (rows, pivots) or, with transform=True, (rows, pivots, T)
    where T satisfies result = T @ input (rows of T aligned with the
    returned rows; only the rows kept are returned).
    """
    m = len(rows)
    R = [list(r) for r in rows]
    T = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    pivots = []
    pr = 0
    for col in range(n):
        piv = None
        for i in range(pr, m):
            if R[i][col]:
                piv = i
                break
        if piv is None:
            continue
        R[pr], R[piv] = R[piv], R[pr]
        T[pr], T[piv] = T[piv], T[pr]
        c = R[pr][col]
        if c != 1:
            s = f.inv(c)
            R[pr] = [f.mul(s, x) for x in R[pr]]
            T[pr] = [f.mul(s, x) for x in T[pr]]
        for i in range(m):
            if i != pr and R[i][col]:
                factor = R[i][col]
                R[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(R[i], R[pr])]
                T[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(T[i], T[pr])]
        pivots.append(col)
        pr += 1
        if pr == m:
            break
    out = tuple(tuple(r) for r in R[:pr])
    if transform:
        return out, tuple(pivots), tuple(tuple(t) for t in T[:pr])
    return out, tuple(pivots)


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
    assert F1.n == F2.n and F1.field == F2.field, "ambient mismatch"
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
    """Yield every rank-k flat of PG(n-1, q) exactly once.

    Flats are generated directly as RREF matrices: choose the pivot
    columns, then run over all assignments of the free entries (row i may
    be nonzero only right of its pivot and outside later pivot columns).
    """
    q = f.q
    if k == 0:
        yield Flat(basis=(), n=n, field=f)
        return
    for pivots in combinations(range(n), k):
        pivset = set(pivots)
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n)
                if j not in pivset]
        for assignment in product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, j), val in zip(free, assignment):
                rows[i][j] = val
            yield Flat(basis=tuple(tuple(r) for r in rows), n=n, field=f)


def enumerate_flats(n, f, k):
    return list(iter_flats(n, f, k))


def extend_flat(F, v):
    """The flat spanned by F and one extra vector; rank grows by exactly 1."""
    G = span(F.basis + (tuple(v),), F.n, F.field)
    if G.rank == F.rank:
        raise PointInFlat("point already lies on the flat")
    return G
