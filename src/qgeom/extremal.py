"""Exact extremal numbers ex_q(H; n) and the sparse-flat search.

ex_exact runs a branch-and-bound over the points of PG(n-1, q) in index
order with the classic include/exclude scheme.  The bound at a node is
|current set| + points still undecided.  The current set is H-free by
invariant, so every copy of H in the set plus p goes through p: including
p is checked by one embedding search into the set plus p anchored at p,
which looks only for embeddings whose image contains p.

ex_q(H; n) is defined up to projective equivalence, and GL(n, q) is
2-transitive on the points of PG(n-1, q): every H-free set of two or more
points has an image that contains points 0 and 1.  So the search takes
the exclude branch only once the current set holds two points.  If the
include of point 0 or point 1 fails, H has at most two points and ex is
0 or 1.  The witness is the one the full search would return: it is found
in the include-0, include-1 subtree, which both searches visit first, and
the incumbent is only ever replaced by a strictly larger set.

Budgets are mandatory with defaults; running out degrades the result
status to "lower-bound" instead of failing.
"""

from __future__ import annotations

import time
from collections import namedtuple
from fractions import Fraction

from .embed import EmbedSearcher, contains
from .errors import EmptyGeometry, FieldMismatch
from .geometry import Geometry, critical_exponent, g_size
from .projective import (
    iter_flats,
    flat_points,
    pg_size,
    point_vec,
    span,
)


class Budget(namedtuple("Budget", "node_cap time_cap",
                        defaults=(10 ** 8, None))):
    """Search limits: a node count and an optional time in seconds."""

    __slots__ = ()


class ExtremalResult(namedtuple("ExtremalResult", "value witness status nodes",
                                defaults=(0,))):
    """ex_exact's answer; status is "exact" or "lower-bound"."""

    __slots__ = ()


class DensityRow(namedtuple("DensityRow",
                            "n ex total density limit status")):
    """One rank of a density table; density and limit are Fractions."""

    __slots__ = ()


def is_free(S, H):
    """True iff S contains no restriction of H."""
    if S.field != H.field:
        raise FieldMismatch("geometries over different fields")
    return contains(S, H) is None


def ex_exact(H, n, budget=None):
    """Largest H-free point set in PG(n-1, q), with a witness.

    Exact unless the budget runs out, in which case the best set found so
    far is reported with status "lower-bound".  The empty geometry is
    contained in every set, so no H-free set exists for it.
    """
    if n < 1:
        raise ValueError("ex_exact needs n >= 1")
    if not H.points:
        raise EmptyGeometry("ex_exact of the empty geometry")
    f = H.field
    budget = budget or Budget()
    searcher = EmbedSearcher(H)
    total = pg_size(n, f)
    deadline = None if budget.time_cap is None else time.monotonic() + budget.time_cap

    best = []
    chosen = []
    nodes = 0
    exhausted = False

    def dfs(i):
        nonlocal best, nodes, exhausted
        if exhausted or nodes >= budget.node_cap or \
                (deadline is not None and time.monotonic() > deadline):
            exhausted = True
            return
        nodes += 1
        if len(chosen) > len(best):
            best = list(chosen)
        if i == total or len(chosen) + (total - i) <= len(best):
            return
        if searcher.find(frozenset(chosen) | {i}, n, anchor=i) is None:
            chosen.append(i)
            dfs(i + 1)
            chosen.pop()
        if len(chosen) > 1:  # below two points, 2-transitivity fixes them
            dfs(i + 1)

    dfs(0)
    witness = Geometry(field=f, ambient=n, points=tuple(best))
    if not is_free(witness, H):
        raise AssertionError("witness failed independent re-validation")
    return ExtremalResult(value=len(best), witness=witness,
                          status="lower-bound" if exhausted else "exact",
                          nodes=nodes)


def bose_burton_value(m, n, f):
    """ex_q(PG(m-1, q); n) in closed form: the size of G(n-1, q, m-1)."""
    assert 1 <= m <= n
    return g_size(n, f, m - 1)


def find_sparse_flat(G, m, c):
    """A rank-m flat F of the ambient PG with rank(F intersect G) <= m - c.

    Flats are enumerated lazily; returns the first hit or None after
    exhausting all rank-m flats.
    """
    if not 1 <= c < m <= G.ambient:
        raise ValueError("sparse-flat needs 1 <= c < m <= ambient rank")
    f, n = G.field, G.ambient
    gset = G.point_set
    for F in iter_flats(n, f, m):
        hit = flat_points(F) & gset
        # more points than a rank-(m-c) flat carries cannot span rank <= m-c
        if len(hit) <= pg_size(m - c, f) and \
                span([point_vec(i, n, f) for i in hit], n, f).rank <= m - c:
            return F
    return None


def density_table(H, n_range, budget=None):
    """One DensityRow per rank in n_range, with the exact limit 1 - q^(1-c)."""
    rows = []
    n_list = list(n_range)
    if not n_list:
        return rows
    f = H.field
    c = critical_exponent(H)
    limit = 1 - Fraction(1, f.q ** (c - 1))
    for n in n_list:
        res = ex_exact(H, n, budget=budget)
        total = pg_size(n, f)
        rows.append(DensityRow(n=n, ex=res.value, total=total,
                               density=Fraction(res.value, total),
                               limit=limit, status=res.status))
    return rows


def density_rows_to_csv(rows):
    """CSV serialization: exact rationals split into numerator/denominator."""
    lines = ["n,ex,total,density_num,density_den,limit_num,limit_den,status"]
    for r in rows:
        lines.append("%d,%d,%d,%d,%d,%d,%d,%s" % (
            r.n, r.ex, r.total,
            r.density.numerator, r.density.denominator,
            r.limit.numerator, r.limit.denominator, r.status))
    return "\n".join(lines) + "\n"
