"""Exact extremal numbers ex_q(H; n) and the sparse-flat search.

ex_exact runs a branch-and-bound over the points of PG(n-1, q) in index
order with the classic include/exclude scheme.  The bound at a node is
|current set| + points still undecided.  The current set is H-free by
invariant, so every copy of H in the set plus p goes through p: including
p is checked by one freeness test, EmbedSearcher.find_through, into the
set plus p.  When the searcher finds the orbit O_0 of H's first point to
be all of H, the test pins that point's image to p; otherwise it is
find's plain search, and the invariant makes every embedding it finds go
through p.

The search keeps one host map, from the canonical vector of each chosen
point to its index, for the whole search and hands it to the search core
as it stands.  Points are chosen in increasing order, so the map is in
index order by construction: including p adds p's vector at the end, and
undoing that include pops it off again.  Each point's vector is read
once per search from iter_canonical_vectors, the first time the search
includes that point, and the same tuple serves as its host-map key and as
its pinned image in every freeness test.  So no vector is computed twice,
however large the current set is, and no freeness test builds a witness.

ex_q(H; n) is defined up to projective equivalence, and GL(n, q) is
2-transitive on the points of PG(n-1, q): every H-free set of two or more
points has an image that contains points 0 and 1.  So the search takes
the exclude branch only once the current set holds two points.  If the
include of point 0 or point 1 fails, H has at most two points and ex is
0 or 1.  The witness is the one the full search would return: it is found
in the include-0, include-1 subtree, which both searches visit first, and
the incumbent is only ever replaced by a strictly larger set.

Budgets are mandatory with defaults; running out degrades the result
status to "lower-bound" instead of failing.  A negative cap or a NaN time
cap raises ValueError: no comparison with NaN is ever true, so it would
silently be no cap at all.
"""

import time
from collections import namedtuple

from .embed import EmbedSearcher, contains
from .errors import EmptyGeometry
from .geometry import (Geometry, _listable_size, critical_exponent,
                       first_flat, g_size)
from .projective import iter_canonical_vectors


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
    """True iff S contains no restriction of H (FieldMismatch as contains)."""
    return contains(S, H) is None


def _checked(budget):
    """The budget, or the default one; a cap below 0 or NaN raises."""
    budget = budget or Budget()
    if not budget.node_cap >= 0:
        raise ValueError("node_cap must be at least 0, not %r"
                         % (budget.node_cap,))
    if budget.time_cap is not None and not budget.time_cap >= 0:
        raise ValueError("time_cap must be at least 0 seconds, not %r"
                         % (budget.time_cap,))
    return budget


def ex_exact(H, n, budget=None):
    """Largest H-free point set in PG(n-1, q), with a witness.

    Exact unless the budget runs out, in which case the best set found so
    far is reported with status "lower-bound".  The empty geometry is
    contained in every set, so no H-free set exists for it.  A space of
    more than MAX_LISTED_POINTS points, a rank n below 1, or a budget
    with a negative or NaN cap, raises ValueError.
    """
    f = H.field
    total = _listable_size(n, f)  # refuses n < 1 too
    if not H.points:
        raise EmptyGeometry("ex_exact of the empty geometry")
    budget = _checked(budget)
    searcher = EmbedSearcher(H)
    deadline = None if budget.time_cap is None else time.monotonic() + budget.time_cap

    best = []
    chosen = []  # increasing, so it is also the host order
    host = {}    # canonical vector -> index of each chosen point, in order
    # vecs[i] is point i's vector; a node includes point i only after one
    # included i - 1, so the list grows by at most one at a time
    vecs = []
    points = iter_canonical_vectors(n, f)
    nodes = 0
    exhausted = False
    # The depth-first order on an explicit stack, since the depth reaches
    # the number of points: an entry i >= 0 visits point i, and -1 undoes
    # the include of the point chosen last, before its exclude branch.
    stack = [0]
    while stack:
        i = stack.pop()
        if i < 0:
            chosen.pop()
            host.popitem()
            continue
        if nodes >= budget.node_cap or \
                (deadline is not None and time.monotonic() > deadline):
            exhausted = True
            break
        nodes += 1
        if len(chosen) > len(best):
            best = list(chosen)
        if i == total or len(chosen) + (total - i) <= len(best):
            continue
        if len(chosen) > 1:  # below two points, 2-transitivity fixes them
            stack.append(i + 1)
        if i == len(vecs):
            vecs.append(next(points))
        v = vecs[i]
        chosen.append(i)
        host[v] = i
        if searcher.find_through(host, chosen, n, (v, i)) is None:
            stack += (-1, i + 1)
        else:
            chosen.pop()
            host.popitem()

    # find is a plain search on a fresh host map, not the freeness tests'
    # incremental one, so the re-check stands apart from them
    witness = Geometry(field=f, ambient=n, points=tuple(best))
    if searcher.find(witness) is not None:
        raise AssertionError("witness failed independent re-validation")
    return ExtremalResult(value=len(best), witness=witness,
                          status="lower-bound" if exhausted else "exact",
                          nodes=nodes)


def bose_burton_value(m, n, f):
    """ex_q(PG(m-1, q); n) in closed form: the size of G(n-1, q, m-1)."""
    if not 1 <= m <= n:
        raise ValueError("bose_burton_value needs 1 <= m <= n")
    return g_size(n, f, m - 1)


def find_sparse_flat(G, m, c):
    """A rank-m flat F of the ambient PG with rank(F intersect G) <= m - c.

    Returns first_flat's answer: the first such F in iter_flats order, or
    None.  The counting cut lives in first_flat: such an F has at least
    pg_size(m) - pg_size(m-c) points off G, so None comes at once when the
    ambient has fewer.  An ambient of more than MAX_LISTED_POINTS points
    raises ValueError there.
    """
    if not 1 <= c < m <= G.ambient:
        raise ValueError("sparse-flat needs 1 <= c < m <= ambient rank")
    return first_flat(G.point_vecs(), G.ambient, G.field, m, m - c)


def density_table(H, n_range, budget=None):
    """One DensityRow per rank in n_range, with the exact limit 1 - q^(1-c).

    Every rank and the budget are checked before any search runs.
    """
    from fractions import Fraction

    budget = _checked(budget)
    rows = []
    f = H.field
    sizes = [(n, _listable_size(n, f)) for n in n_range]
    if not sizes:
        return rows
    c = critical_exponent(H)
    limit = 1 - Fraction(1, f.q ** (c - 1))
    for n, total in sizes:
        res = ex_exact(H, n, budget=budget)
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
