"""Restriction containment: does host geometry G contain guest geometry H?

H is contained in G when an injective linear map from span(H) into G's
ambient space carries every point of H to a point of G.  The search runs
on the small side: it fixes an ordered basis of span(H) chosen from H's
points, backtracks over tuples of independent host points as basis images
together with one nonzero scalar per image (the first scalar is pinned to
1, absorbing the global projective scaling), and checks each remaining
guest point as soon as the prefix of basis images determines it.  Host
candidates are tried in a fixed order, index order for find, so the
returned witness is deterministic.

The search calls no rref: a candidate is reduced by reduce_row, the one
elimination step, against the echelon rows of the basis images chosen so
far to test independence, and a dict from each host point's index to its
position in the dict places each guest image (see _search).  The vectors
stay inside the searcher, each computed once, when first needed.

Containment is defined up to projective equivalence, so the search need
not visit embeddings that differ only by an automorphism of H.  Let b_l be
basis point l (b0 is guest point 0, except as the freeness test below
sets it) and O_l its orbit under a group K_l of automorphisms of H that
fix b_0..b_(l-1) as vectors, with K_0 >= K_1 >= ...
find keeps only embeddings in which, at every level l, b_l's image comes
first in the candidate order, whatever that order is, among the images of
O_l.  This is sound for any such subgroups: given an embedding phi, pick
g in O_0 whose image comes first and sigma in K_0 with sigma(b_0) = g;
phi o sigma has the same image set and obeys the level-0 rule.  Then
pick tau in K_1 in the same way for level 1 and compose again: tau fixes
b_0 as a vector and maps O_0 onto itself, so b_0's image, its scalar and
the level-0 rule stay; and so on down the levels.  Nor does the rule
change the witness: the first embedding in candidate order obeys every
level, because if some g in O_l mapped before b_l, composing with sigma in
K_l taking b_l to g would give an embedding with the same images and
scalars at the levels before l and an earlier image at level l, so an
earlier one.  Over GF(2) a vector is a point, and K_l just fixes the
points b_0..b_(l-1).  The searcher builds the chain once: K_l is generated
by the automorphisms that self-searches of H into H find with
b_0..b_(l-1) pinned to themselves, all levels within one budget of
|H| * rank * q candidate steps (see _chain).

ex_exact's freeness test asks for a copy of H through a new point p:
find_through pins b0 to p ahead of the host, under find's own rule, for
one searcher per orbit representative (see through_searchers).

A witness records the map in coordinates of the canonical (RREF) basis of
span(H), so verify_witness can check it without re-running any search.
"""

from collections import namedtuple
from itertools import islice
from operator import getitem

from .errors import FieldMismatch
from .geometry import geometry_rank, span_coordinates
from .projective import (
    combine,
    point_index,
    point_vec,
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

    def __init__(self, H, _b0=0):
        self.f = H.field
        f = self.f
        vecs = H.point_vecs()
        self.size = len(vecs)

        # the basis starts at guest position _b0, which is 0 except in the
        # further searchers of through_searchers, and takes the rest in order
        echelon, basis = [], []
        for j in sorted(range(self.size), key=lambda j: j != _b0):
            new = reduce_row(vecs[j], echelon, f)
            if new is not None:
                echelon.append(new)
                basis.append(j)
        m = self.m = len(basis)
        self.basis = basis  # guest position of each basis point

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

        # Every raw image vector met so far, of any length n, to its point
        # index in PG(n-1, q) (the zero vector to -1), for the searcher's
        # lifetime: images repeat across candidates, scalars and searches,
        # so each is indexed once, and at most q^n per ambient rank n.
        # vecs: per ambient rank, each guest point and each host point
        # tried so far to its vector.
        self.memo = {}
        self.vecs = {H.ambient: dict(zip(H.points, vecs))}

        # Rule tables for the two uses: the self-searches (no rule), and
        # find and find_through (every level).
        self._no_rules = self._rule_table((frozenset(),) * self.m)
        self.orbits, self.symmetries, self.orbit_steps = self._chain(H, vecs)
        self._rules = self._rule_table(self.orbits)

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
        own = {p: j for j, p in enumerate(H.points)}
        orbits = [frozenset((b,)) for b in basis]
        perms = []

        def on_line(j, x):
            # |line(p, x) & H| where p is point j: automorphisms carry lines
            # to lines, so they keep these counts.  Costs q * ambient.
            p = vecs[j]
            return 1 + sum(self._index(combine((1, c), (x, p), f)) in own
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
                prefix = tuple((H.points[k], k) for k in basis[:level])
                first = len(perms)  # this level's permutations start here
                orbit = {b}
                for g in range(self.size):
                    if g in orbit or not any(coords[g][level:]) or \
                            counts(g) != base:
                        continue
                    hit, steps = self._search(
                        own, H.ambient, self._no_rules,
                        prefix + ((H.points[g], g),), cap=cap - used)
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

    def _index(self, v):
        """The index of v's point in PG(len(v)-1, q), or -1 for the zero
        vector, computed on a memo miss and kept in the memo."""
        p = self.memo.get(v)
        if p is None:
            p = self.memo[v] = point_index(v, len(v), self.f) if any(v) else -1
        return p

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
        it, or slot |H|, which holds -1 and bounds nothing.  Guest point j
        is checked at level i, the last basis coordinate nonzero in j's
        coordinates, as soon as the images of b_0..b_i fix its image;
        grouping by that level front-loads the pruning.  Returns the slot
        bounding b_i's candidates at each level i, and at each level the
        guest points checked there, each with its slot.
        """
        basis, m = self.basis, self.m

        def slot(j, deepest):
            return next((basis[k] for k in range(deepest, -1, -1)
                         if j in orbits[k]), self.size)

        levels = [[] for _ in range(m)]
        for j, a in enumerate(self.coords):
            levels[max(i for i in range(m) if a[i])].append(j)
        starts = tuple(slot(b, i - 1) for i, b in enumerate(basis))
        checks = tuple(tuple((j, slot(j, i)) for j in levels[i]
                             if j != basis[i]) for i in range(m))
        return starts, checks

    def find(self, G):
        """Search for an embedding into the host Geometry G.

        Returns the first EmbeddingWitness in candidate order, or None.

        This is the Geometry front of _search: it builds the host map,
        from each point index of G to its position in G.points, once per
        call, and turns the raw hit _search returns into a witness.  It
        refuses no host up front: a host with fewer points than the guest,
        or of an ambient rank below the guest's rank, gets None from the
        search itself, and contains refuses both before it builds a
        searcher.  ex_exact keeps its own map across many searches and
        calls find_through instead.
        """
        if self.m == 0:
            return EmbeddingWitness(map=(), point_map=())
        host = {p: k for k, p in enumerate(G.points)}
        hit, _ = self._search(host, G.ambient, self._rules)
        return None if hit is None else self._witness(hit, G.points)

    def find_through(self, host, n, p):
        """Is there a copy of H through point p that maps b0 to p?

        host and n, its ambient rank, are as _search takes them; p is a
        point index of PG(n-1, q) outside the host.  The guest must have a
        point.

        This is find's search with b0 pinned to p at position -1, ahead of
        every host point, so the level-0 rule holds of every copy that maps
        b0 to p.  Such a copy exists whenever a point g of O_0 maps to p:
        compose with sigma in K_0 taking b0 to g.  So the searchers of
        through_searchers, whose orbits O_0 cover the guest, find every
        copy through p between them.
        """
        return self._search(host, n, self._rules, ((p, -1),))[0] is not None

    def _search(self, host, host_ambient, rules, top=(), cap=None):
        """The backtracking core of find, find_through and _chain.

        host: a dict from the index of each host point in
        PG(host_ambient-1, q) to its position, 0, 1, 2, ... in the dict's
        order, the candidate order; the caller builds it (find once per
        call, ex_exact once per search, _chain once per searcher) and
        _search only reads it, computing a candidate's vector the first
        time the searcher tries that point (see __init__).  rules: a table
        of _rule_table.  top: the pinned prefix, (point index, position)
        pairs of the points that levels 0..len(top)-1 take as their images:
        host points, or find_through's point outside the host at position
        -1, ahead of every host point; every pinned level but the last
        keeps scalar 1, so the prefix is pinned as vectors.  cap: raise
        _OutOfSteps rather than try more host candidates than this, over
        all levels.  Returns the raw hit, the scalar-times-image rows
        lambda_i * w_i of the basis and the position of each guest point's
        image, or None, and the candidates tried.

        On entry to level i each guest point checked there gets its prefix
        image pre = sum_(k<i) a_k * lambda_k * w_k, by combine, kept as the
        table rows of x -> pre_t + a_i * lambda * x for each nonzero scalar
        lambda, so a (w_i, lambda_i) pair costs one table lookup per
        coordinate.  Level 0 has no checks: b0 is the only guest point
        that b0's image alone fixes.
        The image's point index, read from the searcher's memo (see
        __init__) and computed only on a miss, is looked up in the host
        map.  Level i checks every guest point it determines except b_i,
        whose image is the candidate w_i's position.  A candidate that
        passes every check is then reduced against the echelon rows of
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
        check of a guest point in some O_l fails when its image's position
        is at or below b_l's, and when basis point b_i is in some O_l with
        l < i, only the host points after b_l's image are tried for it.
        Neither cut removes the first embedding in candidate order, so the
        witness is the one the search without the rule returns.  The tables
        of these bounds are built once per searcher (see _rule_table).

        backtrack calls itself through its closure cell, a reference cycle,
        so the cell is emptied on the way out: everything the search made
        is then freed by reference counting, with no work left for the
        cyclic collector.
        """
        f = self.f
        m = self.m
        mul, shift = f.mul_table, f.shift
        memo, index = self.memo, self._index
        vecs = self.vecs.setdefault(host_ambient, {})
        nonzero = range(1, f.q)
        items = host.items()  # the candidate order
        starts, rule_checks = rules
        independent_first = rules is self._no_rules

        coords, basis = self.coords, self.basis
        scaled = [None] * m            # lambda_i * w_i
        # host position per guest point, and -1 in the slot bounding nothing
        images = [None] * self.size + [-1]
        echelon = [None] * m           # (pivot, row) with row[pivot] == 1
        steps = 0

        def backtrack(i):
            nonlocal steps
            checks = []
            for j, bound in rule_checks[i]:
                a = coords[j]
                pre = combine(a[:i], scaled, f)
                # rows[lam][t] maps x to pre_t + a_i * lam * x, lam > 0.
                # An image at a position <= images[bound] fails; a point
                # can meet its bounding basis point's image only if w_i
                # depends on w_0..w_(i-1), which fails anyway.
                checks.append((j, bound, [None] + [[shift[c][x] for x in pre]
                                                   for c in mul[a[i]][1:]]))
            if i < len(top):
                candidates = (top[i],)
            elif starts[i] == self.size:
                candidates = items
            else:
                candidates = islice(items, images[starts[i]] + 1, None)
            scalars = (1,) if i == 0 or i + 1 < len(top) else nonzero
            for p, hi in candidates:
                if steps == cap:
                    raise _OutOfSteps
                steps += 1
                images[basis[i]] = hi
                w = vecs.get(p)
                if w is None:
                    w = vecs[p] = point_vec(p, host_ambient, f)
                r = None
                if independent_first:
                    r = reduce_row(w, echelon[:i], f)
                    if r is None:
                        continue  # w is in span(w_0..w_(i-1))
                    echelon[i] = r
                for lam in scalars:
                    for j, bound, rows in checks:
                        # a w in the span can give the zero vector; the
                        # memo maps it to -1 and no host point matches it.
                        # Point 0 is valid, so a hit is told by None.
                        img = tuple(map(getitem, rows[lam], w))
                        pt = memo.get(img)
                        idx = host.get(index(img) if pt is None else pt, -1)
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

    def _witness(self, hit, points):
        """The witness of a raw hit of _search on a host map whose position
        k holds host point points[k]: the map matrix in the canonical span
        basis, combined from the rows lambda_i * w_i."""
        scaled, positions = hit
        rows = [combine(trow, scaled, self.f) for trow in self.basis_to_rref]
        return EmbeddingWitness(map=tuple(rows),
                                point_map=tuple(points[k] for k in positions))


def through_searchers(H):
    """The searchers of ex_exact's freeness test: b0 at guest point 0, then
    at each guest point outside the orbits O_0 found so far.  Their O_0
    cover H, so their find_through calls find every copy of H through a new
    point between them; a point-transitive H has one searcher."""
    searchers = [EmbedSearcher(H)]
    for g in range(len(H.points)):
        if not any(g in s.orbits[0] for s in searchers):
            searchers.append(EmbedSearcher(H, _b0=g))
    return searchers


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
    m, coords = span_coordinates(H)
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
