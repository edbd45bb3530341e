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

The search calls no rref: a candidate is reduced by reduce_row, the one
elimination step, against the echelon rows of the basis images chosen so
far to test independence, and a dict from each host point's canonical
vector to its index places each guest image (see find).

Containment is defined up to projective equivalence, so the search need
not visit embeddings that differ only by an automorphism of H.  Let b_l be
basis point l (b0 is guest point 0) and O_l its orbit under a group K_l of
automorphisms of H that fix b_0..b_(l-1) as vectors, with K_0 >= K_1 >= ...
find keeps only embeddings in which, at every level l, b_l's image has the
least host index among the images of O_l.  This is sound for any such
subgroups: given an embedding phi, pick g in O_0 whose image has the least
index and sigma in K_0 with sigma(b_0) = g; phi o sigma has the same image
set and obeys the level-0 rule.  Then pick tau in K_1 in the same way for
level 1 and compose again: tau fixes b_0 as a vector and maps O_0 onto
itself, so b_0's image, its scalar and the level-0 rule stay; and so on
down the levels.  Nor does the rule change the witness: the first
embedding in candidate order obeys every level, because if some g in O_l
mapped below b_l, composing with sigma in K_l taking b_l to g would give
an embedding with the same images and scalars at the levels before l and
a lower image at level l, so an earlier one.  Over GF(2) a vector is a
point, and K_l just fixes the points b_0..b_(l-1).  The searcher builds
the chain once: K_l is generated by the automorphisms that self-searches
of H into H find with b_0..b_(l-1) pinned to themselves, all levels within
one budget of |H| * rank * q candidate steps (see _chain).

ex_exact's freeness test, find_through, asks for a copy of H in a host
whose points other than the newest are H-free, so every copy goes through
the new point.  When the found O_0 is the whole guest, b0 is pinned to the
new point and the level-0 rule is off; any other guest gets find's plain
search, whose embeddings all go through the new point by that
precondition.

A witness records the map in coordinates of the canonical (RREF) basis of
span(H), so verify_witness can check it without re-running any search.
"""

from bisect import bisect_right
from collections import namedtuple
from itertools import islice
from operator import getitem

from .errors import FieldMismatch
from .geometry import geometry_rank, span_coordinates
from .projective import (
    combine,
    point_index,
    reduce_row,
    rref,
)


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

        echelon, basis = [], []
        for j, v in enumerate(vecs):
            new = reduce_row(v, echelon, f)
            if new is not None:
                echelon.append(new)
                basis.append(j)
        m = self.m = len(basis)
        self.basis = basis  # guest position of each basis point; b0 is 0

        # R = T @ B with R the canonical span basis, read off the RREF of
        # the rows [b_j | e_j]; coords of v in B are (v at pivots) @ T
        # because R is reduced echelon.
        eye = [tuple(int(i == j) for j in range(m)) for i in range(m)]
        R, pivots = rref([vecs[j] + e for j, e in zip(basis, eye)],
                         H.ambient + m, f)
        T = self.basis_to_rref = tuple(r[H.ambient:] for r in R)
        coords = []
        for v in vecs:
            y = [v[c] for c in pivots]
            coords.append(combine(y, T, f))
        self.coords = coords

        # Every raw image vector met so far, of any length, to its
        # canonical vector (the zero vector to itself), for the searcher's
        # lifetime: images repeat across candidates, scalars and searches,
        # so each distinct one is rescaled once.  One entry per vector
        # met, so at most q^n per ambient rank n searched.
        self.memo = {}

        # Guest point j becomes checkable once basis images 1..level(j) are
        # fixed; grouping by that level front-loads the pruning.
        levels = [[] for _ in range(self.m + 1)]
        for j, a in enumerate(coords):
            lvl = max(i for i in range(self.m) if a[i]) + 1
            levels[lvl].append(j)
        self.levels = levels

        # Rule tables for the three uses: the self-searches (no rule), find
        # (every level) and, only for a guest whose found O_0 is whole,
        # find_through with b0 pinned (every level below 0).
        off = frozenset()
        self._no_rules = self._rule_table((off,) * self.m)
        self.orbits, self.symmetries, self.orbit_steps = self._chain(H, vecs)
        self.orbit = self.orbits[0] if self.m else off
        self._rules = self._rule_table(self.orbits)
        self._anchored_rules = self._rule_table((off,) + self.orbits[1:]) \
            if len(self.orbit) == self.size else None

    def _chain(self, H, vecs):
        """Orbits O_l of the basis points down a chain of stabilizers.

        Level by level, for each guest point g outside span(b_0..b_(l-1))
        not yet in O_l, H is searched into itself without the rule, with
        b_k pinned to itself with scalar 1 for k < l and b_l pinned to g.
        A hit maps H onto itself fixing b_0..b_(l-1) as vectors: it is a
        point permutation of H (position j goes to position perm[j]) in
        K_l, and O_l is closed under every one found at level l.  A point
        whose line counts differ from b_l's cannot be in O_l, so it gets no
        search: at level 0 the counts are the sorted |line(p, x) & H| over
        the guest points x other than p, below it |line(b_k, p) & H| for
        each k < l.  So a level whose searches all run gets the whole orbit
        of b_l under the automorphisms that fix b_0..b_(l-1) as vectors.
        All these searches share one budget of |H| * m * q candidate steps;
        when it runs out the orbits found so far stand, which the rule
        allows for any subgroups, and the deeper levels keep only their own
        basis point.  Returns the orbits, the permutations and the
        candidate steps used.
        """
        f = self.f
        basis, coords = self.basis, self.coords
        cap = self.size * self.m * f.q
        used = 0
        # H's own map, to positions, so a hit's point map is a permutation
        own = {v: j for j, v in enumerate(vecs)}
        orbits = [frozenset((b,)) for b in basis]
        perms = []

        def on_line(j, x):
            # |line(p, x) & H| where p is point j: automorphisms carry lines
            # to lines, so they keep these counts.  Costs q * ambient.
            p = vecs[j]
            return 1 + sum(self._canonical(combine((1, c), (x, p), f)) in own
                           for c in range(f.q))

        try:
            for level, b in enumerate(basis):
                if level == 0:
                    def counts(g):
                        return sorted(on_line(g, x)
                                      for k, x in enumerate(vecs) if k != g)
                else:
                    def counts(g):
                        return [on_line(basis[k], vecs[g])
                                for k in range(level)]
                base = counts(b)
                prefix = tuple((vecs[k], k) for k in basis[:level])
                first = len(perms)  # this level's permutations start here
                orbit = {b}
                for g in range(self.size):
                    if g in orbit or not any(coords[g][level:]) or \
                            counts(g) != base:
                        continue
                    hit, steps = self._search(
                        own, range(self.size), H.ambient, self._no_rules,
                        prefix + ((vecs[g], g),), cap=cap - used)
                    used += steps
                    if hit is None:
                        continue
                    perms.append(hit[1])
                    todo = list(orbit)
                    while todo:
                        j = todo.pop()
                        for perm in perms[first:]:
                            if perm[j] not in orbit:
                                orbit.add(perm[j])
                                todo.append(perm[j])
                    orbits[level] = frozenset(orbit)
        except _OutOfSteps:
            used = cap
        return tuple(orbits), perms, used

    def _canonical(self, v):
        """v scaled to its leading 1 (zero stays zero), computed on a memo
        miss and kept in the memo."""
        c = self.memo.get(v)
        if c is None:
            lead = next(filter(None, v), 0)
            c = self.memo[v] = tuple(map(self.f.unit[lead].__getitem__, v)) \
                if lead > 1 else v
        return c

    def _rule_table(self, orbits):
        """The rule for the given per-level orbits, in the form _search reads.

        An empty orbit turns its level's rule off.  Every point of O_l but
        b_l must map above b_l's image.  A point in the orbits of several
        levels is held only to the deepest one's bound, the highest: that
        level's basis point lies in the shallower orbits too, since _chain
        finds a shallower orbit whole whenever it goes deeper, so it
        already maps above their basis points.  Checking fewer bounds can
        only keep more embeddings, so this is sound in any case.  A bound is
        given as a slot of _search's images list: the basis point that sets
        it, or slot |H|, which holds -1 and bounds nothing.  Returns the
        orbits, the slot bounding b_i's candidates at each level i, and at
        each level the guest points checked there, each with its slot.
        """
        basis = self.basis

        def slot(j, deepest):
            return next((basis[k] for k in range(deepest, -1, -1)
                         if j in orbits[k]), self.size)

        starts = tuple(slot(b, i - 1) for i, b in enumerate(basis))
        checks = tuple(tuple((j, slot(j, i)) for j in self.levels[i + 1]
                             if j != basis[i]) for i in range(self.m))
        return orbits, starts, checks

    def find(self, G):
        """Search for an embedding into the host Geometry G.

        Returns the first EmbeddingWitness in candidate order, or None.

        This is the Geometry front of _search: it builds the host map,
        from the canonical vector of each host point to its index in index
        order (one point_vec per host point), once per call, and turns the
        raw hit _search returns into a witness.  It refuses no host up
        front: a host with fewer points than the guest, or of an ambient
        rank below the guest's rank, gets None from the search itself,
        and contains refuses both before it builds a searcher.  ex_exact
        keeps its own map across many searches and calls find_through
        instead.
        """
        if self.m == 0:
            return EmbeddingWitness(map=(), point_map=())
        host = dict(zip(G.point_vecs(), G.points))
        hit, _ = self._search(host, G.points, G.ambient, self._rules)
        return None if hit is None else self._witness(*hit)

    def find_through(self, host, order, host_ambient, new):
        """ex_exact's freeness test: is there a copy of H through new?

        host and order are as _search takes them; new is the (canonical
        vector, index) pair of a host point, and the host without it must
        be H-free, so every embedding goes through new.  Returns _search's
        first raw hit, or None.  The guest must have a point.

        A guest whose found O_0 is all of its points has b0 pinned to new
        and the level-0 rule off: if phi(g) is new, pick sigma in K_0 with
        sigma(b0) = g; phi o sigma has the same image set and maps b0 to
        new.  The deeper levels keep their rules, since K_1, K_2, ... fix
        b0 as a vector.  Any other guest gets find's plain search.
        """
        if self._anchored_rules is None:
            return self._search(host, order, host_ambient, self._rules)[0]
        return self._search(host, order, host_ambient, self._anchored_rules,
                            (new,))[0]

    def _search(self, host, order, host_ambient, rules, top=(), cap=None):
        """The backtracking core of find, find_through and _chain.

        host: a dict from the canonical vector of each host point to its
        index, in index order; the caller builds it (find once per call,
        ex_exact once per search, _chain once per searcher) and _search
        only reads it.  order: the host's point indices, increasing, so
        the dict's values in order.  rules: a table of _rule_table.  top:
        the pinned prefix, (canonical vector, index) pairs of the host
        points that levels 0..len(top)-1 take as their images, so _search
        computes no vector; every pinned level but the last keeps scalar
        1, so the prefix is pinned as vectors.  cap: raise
        _OutOfSteps rather than try more host candidates than this, over
        all levels.  Returns the raw hit, the scalar-times-image rows
        lambda_i * w_i of the basis and the host point of each guest point
        (see _witness), or None, and the candidates tried.

        On entry to level i each guest point checked there gets its prefix
        image pre = sum_(k<i) a_k * lambda_k * w_k, kept as the table rows
        of x -> pre_t + a_i * lambda * x for each scalar lambda, so a
        (w_i, lambda_i) pair costs one table lookup per coordinate.  The
        image's canonical vector, read from the searcher's memo (see
        __init__) and computed only on a miss, is looked up in the host
        map.  Level i checks every guest point it determines except b_i,
        whose image is the candidate w_i's index.  A candidate that passes
        every check is then reduced against the echelon rows of
        w_0..w_(i-1): it is independent of them exactly when a nonzero
        remainder is left, and that remainder becomes echelon row i.  The
        self-searches of _chain (the _no_rules table) reduce first: their
        host is the guest, where a candidate in the span of the pinned
        prefix tends to pass every check, up to |H| lookups per scalar,
        before the reduction rejects it.  Elsewhere the checks reject most
        candidates more cheaply than the reduction would.  Work grows with
        the host and the ambient rank, never with q^rank, and the memo by
        at most one entry per check.

        The rule (see the module docstring) cuts twice at each level i: a
        check of a guest point in some O_l fails when its image is at or
        below b_l's, and when basis point b_i is in some O_l with l < i,
        only host points above b_l's image are tried for it (the bisect
        start).  Neither cut removes the first embedding in candidate
        order, so the witness is the one the search without the rule
        returns.  The tables of these bounds are built once per searcher
        (see _rule_table).

        backtrack calls itself through its closure cell, a reference cycle,
        so the cell is emptied on the way out: everything the search made
        is then freed by reference counting, with no work left for the
        cyclic collector.
        """
        f = self.f
        m = self.m
        mul, shift = f.mul_table, f.shift
        memo, canonical = self.memo, self._canonical
        nonzero = range(1, f.q)
        items = host.items()  # the candidate order
        _, starts, rule_checks = rules
        independent_first = rules is self._no_rules

        coords, basis = self.coords, self.basis
        scaled = [None] * m            # lambda_i * w_i
        # host point index per guest point, and -1 in the slot that bounds
        # nothing
        images = [None] * self.size + [-1]
        echelon = [None] * m           # (pivot, row) with row[pivot] == 1
        steps = 0

        def backtrack(i):
            nonlocal steps
            checks = []
            for j, bound in rule_checks[i]:
                a = coords[j]
                pre = [0] * host_ambient
                for k in range(i):
                    if a[k]:
                        step = shift[a[k]]
                        pre = [step[x][y] for x, y in zip(pre, scaled[k])]
                # rows[lam][t] maps x to pre_t + a_i * lam * x.  An image
                # with index <= images[bound] fails; a point can meet its
                # bounding basis point's image only if w_i depends on
                # w_0..w_(i-1), which fails anyway.
                checks.append((j, bound, [[shift[c][x] for x in pre]
                                          for c in mul[a[i]]]))
            if i < len(top):
                candidates = (top[i],)
            elif starts[i] == self.size:
                candidates = items
            else:
                candidates = islice(
                    items, bisect_right(order, images[starts[i]]), None)
            scalars = (1,) if i == 0 or i + 1 < len(top) else nonzero
            for w, hi in candidates:
                if steps == cap:
                    raise _OutOfSteps
                steps += 1
                images[basis[i]] = hi
                r = None
                if independent_first:
                    r = reduce_row(w, echelon[:i], f)
                    if r is None:
                        continue  # w is in span(w_0..w_(i-1))
                    echelon[i] = r
                for lam in scalars:
                    for j, bound, rows in checks:
                        # a w in the span can give the zero vector; the
                        # memo keeps it zero and no host point matches it
                        img = tuple(map(getitem, rows[lam], w))
                        idx = host.get(memo.get(img) or canonical(img), -1)
                        if idx <= images[bound]:
                            break
                        images[j] = idx
                    else:
                        if r is None:
                            r = reduce_row(w, echelon[:i], f)
                            if r is None:
                                break  # w is in span(w_0..w_(i-1))
                            echelon[i] = r
                        scaled[i] = tuple(map(mul[lam].__getitem__, w))
                        if i + 1 == m:
                            return tuple(scaled), tuple(images[:-1])
                        hit = backtrack(i + 1)
                        if hit is not None:
                            return hit
            return None

        try:
            return backtrack(0), steps
        finally:
            del backtrack

    def _witness(self, scaled, point_map):
        """The witness of a raw hit of _search: the map matrix in the
        canonical span basis, combined from the rows lambda_i * w_i."""
        rows = [combine(trow, scaled, self.f) for trow in self.basis_to_rref]
        return EmbeddingWitness(map=tuple(rows), point_map=point_map)


def contains(G, H):
    """Witness that H is a restriction of G, or None if it is not.

    Deterministic: host points are tried in index order, so the witness
    is the first embedding in that order.  FieldMismatch is raised across
    fields; a guest with more points than G, or of a rank above G's
    ambient rank, is refused before its searcher is built.
    """
    if G.field != H.field:
        raise FieldMismatch("host and guest live over different fields")
    if len(H) > len(G) or geometry_rank(H) > G.ambient:
        return None
    return EmbedSearcher(H).find(G)


def verify_witness(G, H, w):
    """Check a witness without re-running the search.

    True iff the map, each of its rows and the point map are lists or
    tuples, every map entry is an int in range(q), the map has full
    rank, every guest point maps (in span coordinates) to exactly the
    claimed host point, and every claimed host point belongs to G.  Any
    other entry gives False: a negative one would otherwise index the
    field tables from the end.  A bool is not an int here, in the map or
    the point map, as JSON input refuses it.  G and H over different
    fields give False too, where contains raises FieldMismatch.
    """
    if G.field != H.field:
        return False
    f = H.field
    m, _, coords = span_coordinates(H)
    seq = (list, tuple)
    if not (isinstance(w.map, seq) and isinstance(w.point_map, seq)) or \
            len(w.map) != m or len(w.point_map) != len(coords):
        return False
    if m == 0:
        return True
    n = G.ambient
    if any(not isinstance(row, seq) or len(row) != n for row in w.map):
        return False
    if not all(type(x) is int and 0 <= x < f.q
               for row in w.map for x in row) or \
            not all(type(x) is int for x in w.point_map):
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
