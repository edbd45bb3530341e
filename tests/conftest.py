"""Shared independent oracles for the test suite.

The extremal oracle enumerates every subset of the ground set outright; it
shares only the freeness predicate with the library, never the search.
The flat oracles list every flat of the rank in question and test each
one, with no counting shortcut and no pruning.  The elimination oracle is
a column-by-column Gauss-Jordan through the field's methods; it shares no
code with the library's echelon step.
"""

from itertools import combinations

from qgeom import Geometry, pg_size
from qgeom.embed import EmbedSearcher
from qgeom.geometry import span_coordinates
from qgeom.projective import (
    flat_points,
    iter_flats,
    point_index,
    point_vec,
    span,
)


def brute_force_ex(H, n):
    """Naive ex_q(H; n): enumerate all 2^N subsets of PG(n-1, q).

    Subsets are masks over point indices; a subset is H-free iff it
    includes no minimal copy of H (a |H|-point subset containing H,
    precomputed by exhaustive search over all |H|-subsets).
    """
    f = H.field
    total = pg_size(n, f)
    assert total <= 15, "oracle is only meant for desk-scale ground sets"
    h = len(H.points)
    searcher = EmbedSearcher(H)
    copies = []
    for T in combinations(range(total), h):
        if searcher.find(Geometry(field=f, ambient=n, points=T)) is not None:
            copies.append(sum(1 << i for i in T))
    best = 0
    for mask in range(1 << total):
        if any(cm & mask == cm for cm in copies):
            continue
        size = bin(mask).count("1")
        if size > best:
            best = size
    return best


def rref_by_gauss_jordan(rows, n, f):
    """Gauss-Jordan elimination over GF(q), column by column.

    Returns (rows, pivots, T): the nonzero rows of the reduced row echelon
    form, their pivot columns, and T with result = T @ input (rows of T
    aligned with the returned rows).
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
    return (tuple(tuple(r) for r in R[:pr]), tuple(pivots),
            tuple(tuple(t) for t in T[:pr]))


def subset_geometry(f, n, indices):
    return Geometry(field=f, ambient=n, points=tuple(indices))


def critical_exponent_by_flat_scan(H):
    """Least c >= 1 such that some rank-(m-c) flat of span(H) avoids H.

    Lists the flats of span(H) rank by rank, from m - 1 down to 0, and
    returns at the first one disjoint from H.
    """
    f = H.field
    m, coords = span_coordinates(H)
    inside = frozenset(point_index(v, m, f) for v in coords)
    for c in range(1, m + 1):
        for F in iter_flats(m, f, m - c):
            if inside.isdisjoint(flat_points(F)):
                return c
    raise AssertionError("the rank-0 flat is always disjoint")


def sparse_flat_by_scan(G, m, c):
    """The first rank-m flat, in enumeration order, meeting G in rank <= m-c."""
    f, n = G.field, G.ambient
    for F in iter_flats(n, f, m):
        hit = flat_points(F) & G.point_set
        if span([point_vec(i, n, f) for i in hit], n, f).rank <= m - c:
            return F
    return None
