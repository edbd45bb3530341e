"""Restriction containment: does host geometry G contain guest geometry H?

H is contained in G when an injective linear map from span(H) into G's
ambient space carries every point of H to a point of G.  The search runs
on the small side: it fixes an ordered basis of span(H) chosen from H's
points, backtracks over tuples of independent host points as basis images
together with one nonzero scalar per image (the first scalar is pinned to
1, absorbing the global projective scaling), and checks each remaining
guest point as soon as the prefix of basis images determines it.  Host
candidates are tried in index order, so the returned witness is
deterministic.

The search calls no rref: a candidate is reduced against the echelon rows
of the basis images chosen so far to test independence, and a dict from
each host point's canonical vector to its index places each guest image
(see find).

Containment is defined up to projective equivalence, so the search need
not visit embeddings that differ only by an automorphism of H.  Let b0 be
the first basis point, which is guest point 0, and O its orbit under a
group K of automorphisms of H.  find keeps only embeddings in which b0's
image has the least host index among the images of O.  This is sound for
any subgroup K: given an embedding phi, pick g in O whose image phi(g) has
the least index and sigma in K with sigma(b0) = g; then phi o sigma has
the same image set and obeys the rule, since sigma(O) = O.  Nor does it
change the witness: the first embedding in candidate order has the least
possible image of b0, because if some g in O mapped lower, phi o sigma
would be an earlier embedding.  The searcher builds O once: K is generated
by the automorphisms that self-searches of H into H find within a budget
of |H| * rank * q candidate steps (see _orbit).

A witness records the map in coordinates of the canonical (RREF) basis of
span(H), so verify_witness can check it without re-running any search.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from itertools import islice
from operator import getitem

from .errors import FieldMismatch
from .geometry import span_coordinates
from .projective import combine, point_index, point_vec, rref


class EmbeddingWitness(namedtuple("EmbeddingWitness", "map point_map")):
    """Certificate that the guest embeds into the host.

    map: m x n matrix (m = guest rank, n = host ambient) acting on guest
    span-coordinates by row vector times matrix.  point_map: host point
    index for each guest point, aligned with the guest's sorted points.
    """

    __slots__ = ()


class _OutOfSteps(Exception):
    """A capped search used up its candidate steps."""


class EmbedSearcher:
    """Reusable backtracking search for one fixed guest geometry.

    Building the guest-side structure (basis choice, coordinates, check
    levels) once makes repeated freeness queries against many hosts cheap,
    which is what the extremal branch-and-bound needs.
    """

    def __init__(self, H):
        self.f = H.field
        f = self.f
        vecs = H.point_vecs()
        self.size = len(vecs)

        basis_rows, basis = [], []
        for j, v in enumerate(vecs):
            cand, _ = rref(basis_rows + [v], H.ambient, f)
            if len(cand) > len(basis_rows):
                basis_rows.append(v)
                basis.append(j)
        self.m = len(basis_rows)
        self.basis = basis  # guest position of each basis point; b0 is 0

        # R = T @ B with R the canonical span basis; coords of v in B are
        # (v at pivots) @ T because R is reduced echelon.
        _, pivots, T = rref(basis_rows, H.ambient, f, transform=True)
        self.basis_to_rref = T
        coords = []
        for v in vecs:
            y = [v[c] for c in pivots]
            coords.append(combine(y, T, f))
        self.coords = coords

        # Guest point j becomes checkable once basis images 1..level(j) are
        # fixed; grouping by that level front-loads the pruning.
        levels = [[] for _ in range(self.m + 1)]
        for j, a in enumerate(coords):
            lvl = max(i for i in range(self.m) if a[i]) + 1
            levels[lvl].append(j)
        self.levels = levels

        # Tables for find over GF(q).  shift[c][x][y] = x + c * y, one row
        # per (c, x), so an affine update of a whole vector is a single map
        # over its entries; drop[c] is shift[-c].  unit[c] scales a vector
        # with leading entry c to leading 1, and the zero vector to itself.
        add, mul = f.add_table, f.mul_table
        scalars = range(f.q)
        self.shift = [[[add[x][y] for y in row] for x in scalars]
                      for row in mul]
        self.drop = [self.shift[f.neg(c)] for c in scalars]
        self.unit = [mul[0]] + [mul[f.inv(c)] for c in scalars[1:]]

        self.orbit, self.symmetries, self.orbit_steps = self._orbit(H, vecs)

    def _orbit(self, H, vecs):
        """Orbit of b0 under the automorphisms of H that self-searches find.

        For each guest point g not yet in the orbit, H is searched into
        itself with b0's image fixed to g, without the orbit rule.  A hit
        maps H onto itself: it is a point permutation of H (position j goes
        to position perm[j]), and the orbit is closed under every one
        found.  All these searches share one budget of |H| * m * q
        candidate steps; when it runs out the orbit found so far stands,
        which the rule allows for any subgroup.  A point whose line profile
        differs from b0's cannot be in the orbit, so it gets no search.
        Returns the orbit, the permutations and the candidate steps used.
        """
        orbit, perms = {0}, []
        cap = self.size * self.m * self.f.q
        used = 0
        known = set(vecs)
        shift, unit = self.shift, self.unit

        def profile(j):
            # sorted |line(p, x) & H| over the guest points x != p, where p
            # is point j: automorphisms carry lines to lines, so two points
            # in one orbit have the same profile.  Costs |H| * q * ambient.
            p = vecs[j]
            sizes = []
            for k, x in enumerate(vecs):
                if k != j:
                    on = 1
                    for row in shift:  # x + c * p for each scalar c
                        v = tuple(map(getitem, map(row.__getitem__, x), p))
                        lead = unit[next(filter(None, v))]
                        on += tuple(map(lead.__getitem__, v)) in known
                    sizes.append(on)
            return sorted(sizes)

        base = profile(0) if vecs else None  # the empty guest has no point 0
        position = {p: j for j, p in enumerate(H.points)}
        for g in range(1, self.size):
            if g in orbit or profile(g) != base:
                continue
            try:
                hit, steps = self._search(H.points, H.ambient, (),
                                          (H.points[g],), cap - used)
            except _OutOfSteps:
                used = cap
                break
            used += steps
            if hit is None:
                continue
            perms.append(tuple(position[p] for p in hit.point_map))
            todo = list(orbit)
            while todo:
                j = todo.pop()
                for perm in perms:
                    if perm[j] not in orbit:
                        orbit.add(perm[j])
                        todo.append(perm[j])
        return frozenset(orbit), perms, used

    def find(self, host_indices, host_ambient, anchor=None):
        """Search for an embedding into the given host point set.

        host_indices: set of point indices into PG(host_ambient - 1, q).
        anchor: if given, a host point the image must contain.  Returns the
        first EmbeddingWitness in candidate order, or None.

        On entry to level i each guest point checked there gets its prefix
        image pre = sum_(k<i) a_k * lambda_k * w_k, kept as the table rows
        of x -> pre_t + a_i * lambda * x for each scalar lambda, so a
        (w_i, lambda_i) pair costs one table lookup per coordinate.  The
        image, scaled to its leading 1, is looked up in a dict from the
        canonical vector of each host point to its index.  Basis point b_i
        needs no lookup: its image is the candidate w_i itself.  A candidate
        that passes every check is then reduced against the echelon rows of
        w_0..w_(i-1): it is independent of them exactly when a nonzero
        remainder is left, and that remainder becomes echelon row i.  Work
        and memory grow with the host and the ambient rank, never with
        q^rank.

        The orbit rule (see the module docstring) cuts twice at levels
        i >= 1: a check of a guest point in the orbit fails when its image
        has a lower index than b0's, and when basis point b_i is in the
        orbit only host points above b0's image are tried for it.  Neither
        cut removes the first embedding in candidate order, so the witness
        is the one the search without the rule returns.

        With an anchor, a guest whose found orbit is all of its points has
        b0 mapped to the anchor and the rule turned off: if phi(g) is the
        anchor, pick sigma in K with sigma(b0) = g, and phi o sigma has the
        same image set and maps b0 to the anchor.  Any other guest keeps
        the rule and accepts only a full embedding whose image contains the
        anchor; every embedding the rule drops has the image set of one it
        keeps, so this too misses no image set.
        """
        if self.m == 0:
            return None if anchor is not None else \
                EmbeddingWitness(map=(), point_map=())
        if self.size > len(host_indices) or self.m > host_ambient or \
                (anchor is not None and anchor not in host_indices):
            return None
        host_order = sorted(host_indices)
        if anchor is not None and len(self.orbit) == self.size:
            return self._search(host_order, host_ambient, (), (anchor,))[0]
        return self._search(host_order, host_ambient, self.orbit,
                            anchor=anchor)[0]

    def _search(self, host_order, host_ambient, orbit, top=None, cap=None,
                anchor=None):
        """The backtracking core of find.

        host_order: the host's point indices, increasing.  orbit: guest
        positions held to the orbit rule.  top: the host points tried as
        b0's image, all of them if None.  cap: raise _OutOfSteps rather
        than try more host candidates than this, over all levels.  anchor:
        a host point every accepted embedding's image contains, if given.
        Level i checks every guest point it determines except b_i, whose
        image is the candidate w_i's index; the bisect start already holds
        an orbit basis point above b0's image.  Returns the first witness
        or None, and the candidates tried.
        """
        f = self.f
        m = self.m
        mul, shift, drop, unit = f.mul_table, self.shift, self.drop, self.unit
        nonzero = range(1, f.q)
        # canonical vector -> index, in index order: the candidate order
        host = {point_vec(hi, host_ambient, f): hi for hi in host_order}
        items = host.items()
        first = items if top is None else [
            (point_vec(hi, host_ambient, f), hi) for hi in top]

        coords, levels, basis = self.coords, self.levels, self.basis
        scaled = [None] * m            # lambda_i * w_i
        images = [None] * self.size    # host point index per guest point
        echelon = [None] * m           # (pivot, row) with row[pivot] == 1
        steps = 0

        def backtrack(i):
            nonlocal steps
            checks = []
            for j in levels[i + 1]:
                if j == basis[i]:
                    continue
                a = coords[j]
                pre = [0] * host_ambient
                for k in range(i):
                    if a[k]:
                        step = shift[a[k]]
                        pre = [step[x][y] for x, y in zip(pre, scaled[k])]
                # rows[lam][t] maps x to pre_t + a_i * lam * x.  An image
                # with index <= low fails: -1 passes every host point, and
                # an orbit point can meet b0's image only if w_i depends on
                # w_0..w_(i-1), which fails anyway.
                low = images[0] if i and j in orbit else -1
                checks.append((j, low, [[shift[c][x] for x in pre]
                                        for c in mul[a[i]]]))
            if i == 0:
                candidates = first
            elif basis[i] in orbit:
                candidates = islice(items, bisect_right(host_order, images[0]),
                                    None)
            else:
                candidates = items
            for w, hi in candidates:
                if steps == cap:
                    raise _OutOfSteps
                steps += 1
                images[basis[i]] = hi
                r = None
                for lam in (1,) if i == 0 else nonzero:
                    for j, low, rows in checks:
                        # a w in the span can give the zero vector; unit[0]
                        # keeps it zero and no host point matches it
                        img = tuple(map(getitem, rows[lam], w))
                        lead = next(filter(None, img), 0)
                        if lead != 1:
                            img = tuple(map(unit[lead].__getitem__, img))
                        idx = host.get(img, -1)
                        if idx <= low:
                            break
                        images[j] = idx
                    else:
                        if r is None:
                            r = w
                            for p, row in echelon[:i]:
                                if r[p]:
                                    r = tuple(map(getitem, map(
                                        drop[r[p]].__getitem__, r), row))
                            lead = next(filter(None, r), 0)
                            if not lead:
                                break  # w is in span(w_0..w_(i-1))
                            echelon[i] = (r.index(lead), tuple(
                                map(unit[lead].__getitem__, r)))
                        scaled[i] = tuple(map(mul[lam].__getitem__, w))
                        if i + 1 < m:
                            hit = backtrack(i + 1)
                        elif anchor is None or anchor in images:
                            hit = self._witness(scaled, images)
                        else:
                            hit = None
                        if hit is not None:
                            return hit
            return None

        return backtrack(0), steps

    def _witness(self, scaled, images):
        rows = [combine(trow, scaled, self.f) for trow in self.basis_to_rref]
        return EmbeddingWitness(map=tuple(rows), point_map=tuple(images))


def contains(G, H):
    """Witness that H is a restriction of G, or None if it is not.

    Deterministic: host points are tried in index order, so the witness
    is the first embedding in that order.
    """
    if G.field != H.field:
        raise FieldMismatch("host and guest live over different fields")
    return EmbedSearcher(H).find(G.point_set, G.ambient)


def verify_witness(G, H, w):
    """Check a witness without re-running the search.

    True iff the map has full rank, every guest point maps (in span
    coordinates) to exactly the claimed host point, and every claimed host
    point belongs to G.
    """
    f = H.field
    m, _, coords = span_coordinates(H)
    if len(w.map) != m or len(w.point_map) != len(coords):
        return False
    if m == 0:
        return True
    n = G.ambient
    if any(len(row) != n for row in w.map):
        return False
    reduced, _ = rref(w.map, n, f)
    if len(reduced) != m:
        return False
    host_points = G.point_set
    for a, claimed in zip(coords, w.point_map):
        img = combine(a, w.map, f)
        if not any(img):
            return False
        idx = point_index(img, n, f)
        if idx != claimed or idx not in host_points:
            return False
    return True
