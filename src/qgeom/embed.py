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

A witness records the map in coordinates of the canonical (RREF) basis of
span(H), so verify_witness can check it without re-running any search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FieldMismatch
from .projective import combine, point_index, point_vec, rref


@dataclass(frozen=True)
class EmbeddingWitness:
    """Certificate that the guest embeds into the host.

    map: m x n matrix (m = guest rank, n = host ambient) acting on guest
    span-coordinates by row vector times matrix.  point_map: host point
    index for each guest point, aligned with the guest's sorted points.
    """

    map: tuple
    point_map: tuple


class EmbedSearcher:
    """Reusable backtracking search for one fixed guest geometry.

    Building the guest-side structure (basis choice, coordinates, check
    levels) once makes repeated freeness queries against many hosts cheap,
    which is what the extremal branch-and-bound needs.
    """

    def __init__(self, H):
        self.guest = H
        self.f = H.field
        f = self.f
        vecs = H.point_vecs()
        self.size = len(vecs)

        basis_rows = []
        basis_positions = []
        for pos, v in enumerate(vecs):
            cand, _ = rref(basis_rows + [v], H.ambient, f)
            if len(cand) > len(basis_rows):
                basis_rows.append(v)
                basis_positions.append(pos)
        self.m = len(basis_rows)

        # R = T @ B with R the canonical span basis; coords of v in B are
        # (v at pivots) @ T because R is reduced echelon.
        R, pivots, T = rref(basis_rows, H.ambient, f, transform=True)
        self.span_pivots = pivots
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
        self.basis_positions = basis_positions

    def find(self, host_indices, host_ambient, anchor=None):
        """Search for an embedding into the given host point set.

        host_indices: set of point indices into PG(host_ambient - 1, q).
        anchor: if given, only embeddings whose image uses that host point
        are accepted.  Returns an EmbeddingWitness or None.
        """
        f = self.f
        m = self.m
        if m == 0:
            return EmbeddingWitness(map=(), point_map=())
        if self.size > len(host_indices) or m > host_ambient:
            return None
        host_sorted = sorted(host_indices)
        host_vecs = [point_vec(i, host_ambient, f) for i in host_sorted]
        host_set = frozenset(host_indices)
        nonzero = range(1, f.q)

        scaled = [None] * m            # lambda_i * w_i
        images = [None] * self.size    # host point index per guest point
        indep_rows = []                # incremental RREF of chosen w_i

        def assign_level(i):
            # Map every guest point that is now determined; None on failure.
            placed = []
            for j in self.levels[i + 1]:
                img = combine(self.coords[j], scaled[:i + 1], f)
                idx = point_index(img, host_ambient, f)
                if idx not in host_set:
                    for jj in placed:
                        images[jj] = None
                    return False
                images[j] = idx
                placed.append(j)
            return placed

        def undo(placed):
            for j in placed:
                images[j] = None

        def backtrack(i):
            nonlocal indep_rows
            if i == m:
                if anchor is not None and anchor not in images:
                    return None
                return self._witness(scaled, images, host_ambient)
            for hi, w in zip(host_sorted, host_vecs):
                cand, _ = rref(indep_rows + [w], host_ambient, f)
                if len(cand) <= len(indep_rows):
                    continue
                saved = indep_rows
                indep_rows = list(cand)
                for lam in (1,) if i == 0 else nonzero:
                    scaled[i] = w if lam == 1 else tuple(f.mul(lam, x) for x in w)
                    placed = assign_level(i)
                    if placed is False:
                        continue
                    hit = backtrack(i + 1)
                    if hit is not None:
                        return hit
                    undo(placed)
                scaled[i] = None
                indep_rows = saved
            return None

        return backtrack(0)

    def _witness(self, scaled, images, host_ambient):
        rows = [combine(trow, scaled, self.f) for trow in self.basis_to_rref]
        return EmbeddingWitness(map=tuple(rows), point_map=tuple(images))


def contains(G, H, anchor=None):
    """Witness that H is a restriction of G, or None if it is not.

    Deterministic: hosts points are tried in index order.
    """
    if G.field != H.field:
        raise FieldMismatch("host and guest live over different fields")
    return EmbedSearcher(H).find(G.point_set, G.ambient, anchor=anchor)


def verify_witness(G, H, w):
    """Check a witness without re-running the search.

    True iff the map has full rank, every guest point maps (in span
    coordinates) to exactly the claimed host point, and every claimed host
    point belongs to G.
    """
    f = H.field
    vecs = H.point_vecs()
    basis, pivots = rref(vecs, H.ambient, f)
    m = len(basis)
    if len(w.map) != m or len(w.point_map) != len(vecs):
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
    for v, claimed in zip(vecs, w.point_map):
        img = combine([v[c] for c in pivots], w.map, f)
        if not any(img):
            return False
        idx = point_index(img, n, f)
        if idx != claimed or idx not in host_points:
            return False
    return True
