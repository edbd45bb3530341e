import json
import random
import resource
import subprocess
import sys
from functools import lru_cache
from itertools import combinations, product

import pytest
from conftest import rref_by_gauss_jordan
from hypothesis import given, settings
from hypothesis import strategies as st

import qgeom.embed
import qgeom.geometry
from qgeom import (
    Budget,
    EmbeddingWitness,
    FieldMismatch,
    Geometry,
    contains,
    ex_exact,
    field_make,
    flat_points,
    geometry_rank,
    is_free,
    make_ag,
    make_g,
    make_pg,
    pg_size,
    verify_witness,
)
from qgeom.embed import EmbedSearcher
from qgeom.extremal import _through_searchers
from qgeom.geometry import span_coordinates
from qgeom.projective import (canonical_vec, iter_flats, point_index,
                               point_vec, rref)

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(4)
F9 = field_make(9)


def test_line_in_fano():
    host, guest = make_pg(3, F2), make_pg(2, F2)
    w = contains(host, guest)
    assert w is not None
    assert verify_witness(host, guest, w)
    # independent cross-check: the mapped points really form a Fano line
    lines = {flat_points(L) for L in iter_flats(3, F2, 2)}
    assert frozenset(w.point_map) in lines


def test_no_line_in_affine_plane():
    host, guest = make_g(3, F2, 1), make_pg(2, F2)
    # oracle: none of the 7 Fano lines has all 3 points inside AG(2,2)
    host_set = host.point_set
    for L in iter_flats(3, F2, 2):
        assert not flat_points(L) <= host_set
    assert contains(host, guest) is None


def test_affine_plane_inside_pg32():
    host, guest = make_pg(4, F2), make_g(3, F2, 1)
    # oracle: some plane minus one of its lines lies inside PG(3,2)
    found = False
    for plane in iter_flats(4, F2, 3):
        plane_pts = flat_points(plane)
        if plane_pts <= host.point_set:
            found = True
            break
    assert found
    w = contains(host, guest)
    assert w is not None
    assert verify_witness(host, guest, w)


def test_witness_round_trip_on_corpus():
    corpus = [
        (make_pg(3, F2), make_pg(2, F2)),
        (make_pg(3, F2), make_g(3, F2, 2)),
        (make_pg(2, F3), make_ag(2, F3)),
        (make_g(3, F3, 2), make_ag(2, F3)),
        (make_pg(4, F2), make_ag(3, F2)),
    ]
    for host, guest in corpus:
        w = contains(host, guest)
        assert w is not None
        assert verify_witness(host, guest, w)


def test_verify_rejects_rank_deficient_map():
    host, guest = make_pg(3, F2), make_pg(2, F2)
    w = contains(host, guest)
    bad = EmbeddingWitness(map=(w.map[0], w.map[0]), point_map=w.point_map)
    assert not verify_witness(host, guest, bad)
    # a row or a point map that is no sequence raised TypeError
    for bad in (EmbeddingWitness(map=(1, 2), point_map=w.point_map),
                EmbeddingWitness(map=w.map, point_map=None)):
        assert verify_witness(host, guest, bad) is False


def test_verify_rejects_point_outside_host():
    guest = make_pg(2, F2)
    full = make_pg(3, F2)
    w = contains(full, guest)
    assert w is not None
    # drop one of the mapped points from the host: the witness must fail
    host = Geometry(field=F2, ambient=3,
                    points=tuple(i for i in full.points if i != w.point_map[0]))
    assert not verify_witness(host, guest, w)


def _with_entry(w, value, old=2):
    # w with its first map entry old replaced by value
    rows = [list(r) for r in w.map]
    i, j = next((i, j) for i, r in enumerate(rows) for j, x in enumerate(r)
                if x == old)
    rows[i][j] = value
    return EmbeddingWitness(map=tuple(map(tuple, rows)),
                            point_map=w.point_map)


@pytest.mark.parametrize("entry", [-1, 4, 2.0])
def test_verify_rejects_entries_outside_the_field(entry):
    # -1 used to index the field tables from the end and pass as 2; 4
    # raised IndexError and 2.0 TypeError
    host, guest = make_pg(4, F3), make_ag(3, F3)
    w = contains(host, guest)
    assert verify_witness(host, guest, w)
    assert verify_witness(host, guest, _with_entry(w, entry)) is False


def test_verify_rejects_true_for_1():
    # bool is a subclass of int, so True passed for 1, in the map and in
    # the point map
    host, guest = make_pg(4, F3), make_ag(3, F3)
    w = contains(host, guest)
    assert verify_witness(host, guest, _with_entry(w, 1, old=1))
    assert verify_witness(host, guest, _with_entry(w, True, old=1)) is False
    point_map = list(w.point_map)
    point_map[point_map.index(1)] = True
    bad = EmbeddingWitness(map=w.map, point_map=tuple(point_map))
    assert verify_witness(host, guest, bad) is False


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_verify_returns_a_bool_for_any_integer_map(data):
    # a map of the right shape, so every entry reaches the checks
    host, guest = make_pg(4, F3), make_ag(3, F3)
    row = st.lists(st.integers(), min_size=host.ambient,
                   max_size=host.ambient)
    w = EmbeddingWitness(
        map=data.draw(st.lists(row, min_size=3, max_size=3)),
        point_map=data.draw(st.lists(st.integers(), min_size=len(guest),
                                     max_size=len(guest))))
    assert type(verify_witness(host, guest, w)) is bool


def test_reflexivity():
    for H in [make_pg(2, F2), make_pg(3, F2), make_ag(3, F2),
              make_g(3, F2, 2), make_pg(2, F3), make_ag(2, F3),
              make_g(3, F3, 2)]:
        w = contains(H, H)
        assert w is not None
        assert verify_witness(H, H, w)


def test_transitivity_on_samples():
    chains = [
        (make_pg(4, F2), make_pg(3, F2), make_pg(2, F2)),
        (make_pg(4, F2), make_g(3, F2, 2), make_g(3, F2, 1)),
        (make_pg(3, F3), make_g(3, F3, 2), make_ag(2, F3)),
    ]
    for G, H, K in chains:
        assert contains(G, H) is not None
        assert contains(H, K) is not None
        assert contains(G, K) is not None


def test_monotonicity_in_host():
    guest = make_pg(2, F2)
    small = make_g(3, F2, 2)  # PG(2,2) minus one point: still has lines
    assert contains(small, guest) is not None
    bigger = make_pg(3, F2)
    assert small.point_set <= bigger.point_set
    assert contains(bigger, guest) is not None


@pytest.mark.parametrize("q", [2, 3])
def test_g_family_never_embeds_in_smaller_critical_exponent(q):
    f = field_make(q)
    for c in range(2, 5):
        for m in range(c, 5):
            for n in range(m, 5):
                assert contains(make_g(n, f, c - 1), make_g(m, f, c)) is None


@pytest.mark.parametrize("q", [2, 3])
def test_bose_burton_host_never_contains_pg(q):
    f = field_make(q)
    for m in range(2, 5):
        for n in range(m, 5):
            assert contains(make_g(n, f, m - 1), make_pg(m, f)) is None


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        contains(make_pg(2, F2), make_pg(2, F3))


def test_verify_rejects_a_witness_across_fields():
    # by the GF(2) guest's arithmetic the map sends its points to indices
    # that are points of the host, but the host is over GF(3)
    host, guest = make_pg(2, F3), make_pg(2, F2)
    w = EmbeddingWitness(map=((0, 1), (1, 0)), point_map=(1, 0, 2))
    assert verify_witness(host, guest, w) is False
    with pytest.raises(FieldMismatch):
        contains(host, guest)


def test_larger_guest_is_refused_before_its_searcher(monkeypatch):
    # PG(3, 9) has 820 points and PG(1, 9) 10: no searcher, and so no
    # stabilizer chain, is built for a guest that cannot fit.  Nor for one
    # of rank 4 in PG(2, 9): 90 points of a plane and one point off it,
    # no more points than the host's 91
    def refuse(H):
        raise AssertionError("searcher built for a guest larger than the host")

    monkeypatch.setattr("qgeom.embed.EmbedSearcher", refuse)
    plane = [point_index(point_vec(i, 3, F9) + (0,), 4, F9)
             for i in range(1, 91)]
    off = point_index((0, 0, 0, 1), 4, F9)
    rank_4 = Geometry(field=F9, ambient=4, points=tuple(plane + [off]))
    for host, guest in ((make_pg(2, F9), make_pg(4, F9)),
                        (make_pg(3, F9), rank_4)):
        assert len(guest) > len(host) or geometry_rank(guest) > host.ambient
        assert contains(host, guest) is None
        assert is_free(host, guest) is True


def test_find_answers_none_for_a_host_too_small_or_of_too_low_rank():
    # find refuses no host up front: the search itself finds no embedding
    # of PG(2, 3) into PG(2, 3) minus a point, nor of three independent
    # points into the four points of PG(1, 3)
    assert EmbedSearcher(make_pg(3, F3)).find(make_g(3, F3, 2)) is None
    triangle = Geometry(field=F3, ambient=3, points=tuple(
        point_index(v, 3, F3) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    host = make_pg(2, F3)
    assert len(host) > len(triangle) and geometry_rank(triangle) > 2
    assert EmbedSearcher(triangle).find(host) is None


def test_empty_guest_is_contained_everywhere():
    empty = Geometry(field=F2, ambient=2, points=())
    host = make_pg(2, F2)
    w = contains(host, empty)
    assert w == EmbeddingWitness(map=(), point_map=())
    assert verify_witness(host, empty, w)


def test_subset_equivalence_oracle_on_tiny_cases():
    # contains agrees with brute-force "some subset of the host is a
    # projectively equivalent copy" on every <=4-point guest in PG(2,2)
    host_sets = [make_pg(3, F2), make_g(3, F2, 1), make_g(3, F2, 2)]
    all_idx = range(7)
    for host in host_sets:
        for size in range(1, 5):
            for T in combinations(all_idx, size):
                guest = Geometry(field=F2, ambient=3, points=T)
                got = contains(host, guest) is not None
                expect = _brute_equivalent_subset(host, guest)
                assert got == expect, (host.points, T)


def _brute_equivalent_subset(host, guest):
    host_set = host.point_set
    return any(img <= host_set for img in _image_sets(guest, host.ambient))


def _full_rank_matrices(m, n, f):
    # every m x n matrix of rank m, up to a nonzero scalar factor (which
    # maps points alike): the first row runs over canonical vectors, and
    # each later row over the vectors that raise the rank under the
    # Gauss-Jordan oracle, which shares no code with the search
    rows = list(product(range(f.q), repeat=n))
    first_rows = [r for r in rows if any(r) and canonical_vec(r, f) == r]

    def extend(M):
        for r in first_rows if not M else rows:
            if len(rref_by_gauss_jordan(M + [r], n, f)[0]) == len(M):
                continue
            if len(M) + 1 == m:
                yield M + [r]
            else:
                yield from extend(M + [r])

    yield from extend([])


@lru_cache(maxsize=None)
def _image_sets(guest, n):
    # independent oracle: the host point sets onto which some full-rank
    # matrix maps the guest span coordinates
    f = guest.field
    m, coords = span_coordinates(guest)
    return {frozenset(point_index(_times(a, M, f), n, f) for a in coords)
            for M in _full_rank_matrices(m, n, f)}


def _times(a, M, f):
    # the row vector a times the matrix M
    add, mul = f.add_table, f.mul_table
    v = [0] * len(M[0])
    for ai, row in zip(a, M):
        if ai:
            v = [add[x][mul[ai][y]] for x, y in zip(v, row)]
    return v


def _random_rows(f, rng):
    # up to 7 rows of length 1 to 5: half of the time free entries, half
    # of the time combinations of at most 3 rows, so rank-deficient inputs
    # and zero rows are common
    n, count = rng.randint(1, 5), rng.randint(0, 7)
    if rng.random() < 0.5:
        return n, [tuple(rng.randrange(f.q) for _ in range(n))
                   for _ in range(count)]
    gens = [[rng.randrange(f.q) for _ in range(n)]
            for _ in range(rng.randint(1, 3))]
    return n, [tuple(_times([rng.randrange(f.q) for _ in gens], gens, f))
               for _ in range(count)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_elimination_matches_gauss_jordan_oracle(q):
    # rref, span_coordinates and the searcher's basis, coordinates and
    # basis-to-RREF matrix, each against the Gauss-Jordan oracle
    f = field_make(q)
    rng = random.Random(q)
    cases = [(3, []), (3, [(0, 0, 0)] * 2)] + \
        [_random_rows(f, rng) for _ in range(40)]
    for n, rows in cases:
        R, pivots, _ = rref_by_gauss_jordan(rows, n, f)
        assert rref(rows, n, f) == (R, pivots), rows

        points = {point_index(v, n, f) for v in rows if any(v)}
        H = Geometry(field=f, ambient=n, points=tuple(points))
        vecs = H.point_vecs()
        R, pivots, _ = rref_by_gauss_jordan(vecs, n, f)
        assert span_coordinates(H) == (
            len(R), [tuple(v[c] for c in pivots) for v in vecs])

        basis = []
        for j, v in enumerate(vecs):
            rows_so_far = [vecs[k] for k in basis] + [v]
            if len(rref_by_gauss_jordan(rows_so_far, n, f)[0]) > len(basis):
                basis.append(j)
        _, pivots, T = rref_by_gauss_jordan([vecs[j] for j in basis], n, f)
        searcher = EmbedSearcher(H)
        assert searcher.basis == basis
        assert searcher.basis_to_rref == T
        assert searcher.coords == [
            tuple(_times([v[c] for c in pivots], T, f)) for v in vecs]


def _random_spanning_guest(f, m, rng):
    # m + 2 to m + 6 random points of PG(m-1, q) that span it; past m + 1
    # points the guest fixes cross-ratios, so the scalars matter.  Point 0,
    # (0, ..., 0, 1), is left out: as the first basis point it would give
    # every point of the top level the same last coordinate.
    total = pg_size(m, f)
    while True:
        size = rng.randrange(min(m + 2, total - 1), min(m + 6, total - 1) + 1)
        pts = rng.sample(range(1, total), size)
        H = Geometry(field=f, ambient=m, points=tuple(pts))
        if geometry_rank(H) == m:
            return H


# (q, host ambient, guest ranks).  PG(3,9) is left out: a rank-2 guest
# alone has 5.4 M maps into it, too many for the oracle.
ORACLE_CASES = [(2, 3, (2, 3)), (2, 4, (2, 3)), (3, 3, (2, 3)), (3, 4, (2,)),
                (4, 3, (2,)), (4, 4, (2,)), (9, 3, (2,))]


@pytest.mark.parametrize("q, n, ranks", ORACLE_CASES)
def test_find_matches_full_rank_map_oracle(q, n, ranks):
    f = field_make(q)
    rng = random.Random(1000 * q + n)
    total = pg_size(n, f)
    seen = set()
    for m in ranks:
        for _ in range(2 if q == 9 else 6):
            guest = _random_spanning_guest(f, m, rng)
            for _ in range(15):
                keep = rng.uniform(0.02, 0.5)
                host = Geometry(field=f, ambient=n, points=tuple(
                    i for i in range(total) if rng.random() < keep))
                w = contains(host, guest)
                assert (w is not None) == _brute_equivalent_subset(
                    host, guest), (host.points, guest.points)
                if w is not None:
                    assert verify_witness(host, guest, w)
                seen.add(w is not None)
    assert seen == {True, False}


def _points(f, vecs):
    n = len(vecs[0])
    return Geometry(field=f, ambient=n, points=tuple(
        sorted({point_index(v, n, f) for v in vecs})))


# Guests with a point-transitive automorphism group, and guests with more
# than one orbit.  Point 0 of PG(2, q) is (0, 0, 1): guest point 0 lies on
# the line in "line through 0" and "triangle and point", and is the point
# off it in "line and point".
def _line_through_0(f):
    return _points(f, [(0, 1, a) for a in range(f.q)] + [(0, 0, 1), (1, 0, 0)])


def _line_and_point(f):
    return _points(f, [(1, a, 0) for a in range(f.q)] + [(0, 1, 0), (0, 0, 1)])


def _triangle_and_point(f):
    return _points(f, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)])


# (guest, whether its automorphism group is transitive on its points)
SYMMETRIC_GUESTS = [
    (make_pg(2, F3), True), (make_ag(2, F3), True), (make_pg(3, F2), True),
    (make_ag(3, F3), True), (make_g(3, F2, 2), True),
    (make_g(3, F3, 2), True), (make_pg(2, F4), True),
    (_line_through_0(F2), False), (_line_through_0(F3), False),
    (_line_and_point(F2), False), (_line_and_point(F3), False),
    (_triangle_and_point(F2), False), (_triangle_and_point(F3), False),
] + [(_random_spanning_guest(f, m, random.Random(seed)), False)
     for f, m, seed in [(F2, 3, 1), (F3, 2, 2), (F3, 3, 3), (F4, 2, 4)]]


def _automorphisms(H):
    # every permutation of H's points, by position, that some invertible
    # matrix on span coordinates induces
    f = H.field
    m, coords = span_coordinates(H)
    position = {point_index(a, m, f): j for j, a in enumerate(coords)}
    perms = set()
    for M in _full_rank_matrices(m, m, f):
        perm = tuple(position.get(point_index(_times(a, M, f), m, f))
                     for a in coords)
        if None not in perm:
            perms.add(perm)
    return perms


@pytest.mark.parametrize("guest, transitive", SYMMETRIC_GUESTS)
def test_orbit_is_within_the_automorphism_orbit(guest, transitive):
    s = EmbedSearcher(guest)
    autos = _automorphisms(guest)
    true_orbit = {perm[0] for perm in autos}
    assert 0 in s.orbits[0]
    assert set(s.symmetries) <= autos
    assert s.orbits[0] <= true_orbit
    for perm in s.symmetries:
        assert {perm[j] for j in s.orbits[0]} == s.orbits[0]
    # the line profile skips every point outside the true orbit, so the
    # budget is not spent on them and these small guests get the whole orbit
    assert s.orbits[0] == true_orbit
    if transitive:
        assert s.orbits[0] == set(range(len(guest)))


def test_points_outside_the_orbit_get_no_self_search():
    # the triangle and the point (1, 0, 1) of PG(2, 2): points 0, 2 and 3
    # are collinear and point 1 is off their line.  A failed self-search
    # for point 1 would use the whole budget of 24 steps before the others.
    s = EmbedSearcher(_triangle_and_point(F2))
    assert s.orbits[0] == {0, 2, 3}
    assert s.orbit_steps < s.size * s.m * s.f.q


def test_orbit_rule_is_exercised_on_non_transitive_guests():
    # guests with more than one orbit, whose found orbit still moves point 0
    moved = [guest for guest, transitive in SYMMETRIC_GUESTS
             if not transitive and len(EmbedSearcher(guest).orbits[0]) > 1]
    assert len(moved) >= 3


# PG(3, 2) and AG(3, 2) on hosts in PG(3, 2): 20160 maps each for the oracle
@pytest.mark.parametrize("guest, transitive", SYMMETRIC_GUESTS + [
    (make_pg(4, F2), True), (make_ag(4, F2), True)])
def test_find_matches_oracle_on_symmetric_guests(guest, transitive):
    # the rule must keep some embedding of every copy, whichever point of
    # the copy has the least index
    f = guest.field
    m = geometry_rank(guest)
    rng = random.Random(len(guest) * f.q + m)
    seen = set()
    # rank-3 maps into PG(3, q) number 224640 at q = 3: too many
    for n in (3, 4) if m == 2 or f.q == 2 else (3,):
        total = pg_size(n, f)
        for _ in range(15):
            keep = rng.uniform(0.4, 1)
            host = Geometry(field=f, ambient=n, points=tuple(
                i for i in range(total) if rng.random() < keep))
            w = contains(host, guest)
            assert (w is not None) == _brute_equivalent_subset(
                host, guest), (host.points, guest.points)
            if w is not None:
                assert verify_witness(host, guest, w)
            seen.add(w is not None)
    assert True in seen


def _stabilizer_chain(s):
    # the true O_l of every level: the orbit of b_l under the invertible
    # matrices on the searcher's basis coordinates that map the guest onto
    # itself and fix e_0..e_(l-1) up to one common scalar.  The first row
    # of each matrix is canonical, so that scalar is 1 and rows 0..l-1 are
    # e_0..e_(l-1) themselves.
    f, m = s.f, s.m
    position = {point_index(a, m, f): j for j, a in enumerate(s.coords)}
    eye = [tuple(int(i == k) for i in range(m)) for k in range(m)]
    chain = [set() for _ in range(m)]
    for M in _full_rank_matrices(m, m, f):
        perm = [position.get(point_index(_times(a, M, f), m, f))
                for a in s.coords]
        if None in perm:
            continue
        fixed = next((k for k in range(m) if tuple(M[k]) != eye[k]), m)
        for level in range(min(fixed, m - 1) + 1):
            chain[level].add(perm[s.basis[level]])
    return chain


# (guest, whether the step budget covers its whole chain).  PG(3, 2) runs
# out at level 2 and keeps 4 of the 12 points of the true orbit there.  In
# the last guest b_2's orbit has 2 points, but 4 when b_0 and b_1 are fixed
# only as points, not as vectors.
CHAIN_GUESTS = [(guest, True) for guest, _ in SYMMETRIC_GUESTS] + [
    (make_pg(3, F3), True), (make_pg(4, F2), False),
    (Geometry(field=F3, ambient=3, points=(1, 3, 6, 7, 10, 11, 12)), True)]


@pytest.mark.parametrize("guest, whole", CHAIN_GUESTS)
def test_chain_is_within_the_stabilizer_chain(guest, whole):
    s = EmbedSearcher(guest)
    true_chain = _stabilizer_chain(s)
    assert len(s.orbits) == s.m
    for level, orbit in enumerate(s.orbits):
        assert s.basis[level] in orbit
        assert orbit <= true_chain[level]
        # the permutations of this level and the deeper ones are those that
        # fix b_0..b_(l-1): one found at a shallower level k moves b_k
        for perm in s.symmetries:
            if all(perm[b] == b for b in s.basis[:level]):
                assert {perm[j] for j in orbit} == orbit
    assert (s.orbit_steps < s.size * s.m * s.f.q) == whole
    if whole:
        assert list(s.orbits) == true_chain


def _host_map(order):
    # the map find builds and _search reads, with the points in the given
    # order: point index -> position
    return {i: k for k, i in enumerate(order)}


def _core_witness(s, order, n, *args, **kw):
    # _search on order's host map, its raw hit made a witness as find does
    hit = s._search(_host_map(order), n, *args, **kw)[0]
    return None if hit is None else s._witness(hit, order)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_chain_keeps_the_first_witness(q):
    # every level's rule keeps the first embedding in candidate order, so
    # find returns what the search without any rule returns
    f = field_make(q)
    rng = random.Random(50 + q)
    guests = [make_pg(3, f), make_ag(3, f), _line_and_point(f),
              _triangle_and_point(f)] + [
        _random_spanning_guest(f, m, rng) for m in (2, 2, 3, 3)]
    if q < 5:  # without the rule, G(2, 5, 2) alone takes 6 s
        guests.append(make_g(3, f, 2))
    if q == 2:
        guests += [make_pg(4, f), make_ag(4, f)]
    seen = []
    for guest in guests:
        s = EmbedSearcher(guest)
        for n in (s.m, s.m + 1) if pg_size(s.m + 1, f) <= 40 else (s.m,):
            total = pg_size(n, f)
            for _ in range(4):
                keep = rng.uniform(0.3, 1)
                host = Geometry(field=f, ambient=n, points=tuple(
                    i for i in range(total) if rng.random() < keep))
                w = s.find(host)
                assert w == _core_witness(s, host.points, n, s._no_rules)
                seen.append(w is not None)
    assert True in seen and False in seen


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rule_keeps_the_first_witness_in_any_candidate_order(q):
    # the rule needs only some fixed order of the host's candidates: on a
    # host map built in a shuffled order, _search hits exactly when find
    # does, and its hit is an embedding, the first one that the search
    # without any rule finds in the same order
    f = field_make(q)
    rng = random.Random(70 + q)
    guests = [(make_pg(3, f), True), (make_ag(3, f), True),
              (_line_and_point(f), False), (_triangle_and_point(f), False),
              (_random_spanning_guest(f, 3, rng), False)]
    seen, moved = set(), set()
    for guest, transitive in guests:
        s = EmbedSearcher(guest)
        assert (len(s.orbits[0]) == len(guest)) == transitive
        for n in (s.m, s.m + 1) if pg_size(s.m + 1, f) <= 40 else (s.m,):
            total = pg_size(n, f)
            for _ in range(4):
                keep = rng.uniform(0.3, 1)
                host = Geometry(field=f, ambient=n, points=tuple(
                    i for i in range(total) if rng.random() < keep))
                order = rng.sample(host.points, len(host))
                hit = s._search(_host_map(order), n, s._rules)[0]
                w = s.find(host)
                assert (hit is None) == (w is None), (order, guest.points)
                if hit is not None:
                    shuffled = s._witness(hit, order)
                    assert verify_witness(host, guest, shuffled)
                    assert shuffled == _core_witness(s, order, n, s._no_rules)
                    moved.add(shuffled != w)
                seen.add(hit is not None)
    assert seen == {True, False}
    assert True in moved  # some shuffled order found another witness


def test_chain_cuts_deeper_levels():
    # the Fano plane in G(4, 2, 2): no copy, found with fewer steps by the
    # whole chain than by the rule of level 0 alone
    s = EmbedSearcher(make_pg(3, F2))
    host = make_g(5, F2, 2)
    level_0 = s._rule_table((s.orbits[0],) + (frozenset(),) * (s.m - 1))
    own = _host_map(host.points)
    hit, steps = s._search(own, host.ambient, s._rules)
    hit_0, steps_0 = s._search(own, host.ambient, level_0)
    assert hit is None and hit_0 is None
    assert steps < steps_0


# (guest, whether it is point-transitive): a point-transitive guest's
# freeness tests get one searcher, pinned at guest point 0, and any other
# guest's one per orbit representative
ANCHOR_GUESTS = [
    (make_pg(2, F3), True), (make_ag(2, F3), True), (make_pg(3, F2), True),
    (make_ag(3, F3), True), (make_g(3, F2, 2), True),
    (_line_and_point(F2), False), (_line_and_point(F3), False),
    (_triangle_and_point(F2), False), (_triangle_and_point(F3), False),
    (make_pg(2, F4), True), (_line_and_point(F4), False),
]


def _random_free_set(images, total, rng):
    # a random H-free set: points in random order, each kept with a random
    # probability unless it would complete some image set of H
    through = {}
    for img in images:
        for x in img:
            through.setdefault(x, []).append(img)
    keep, free = rng.uniform(0.3, 1), set()
    for x in rng.sample(range(total), total):
        if rng.random() < keep and not any(
                img - {x} <= free for img in through.get(x, ())):
            free.add(x)
    return free


@pytest.mark.parametrize("guest, transitive", ANCHOR_GUESTS)
def test_anchored_find_matches_oracle(guest, transitive):
    # the freeness test of a point p against an H-free set, find_through
    # of each searcher of _through_searchers, finds an embedding exactly
    # when some copy of the guest in the set plus p goes through p.  Each
    # searcher's raw hit, read through _search with find_through's
    # arguments, is its first embedding in candidate order, p pinned at
    # position -1 and then the set, with its b0 at p.  The first searcher
    # pins guest point 0; each further one a point outside the orbits
    # found before it, and the orbits cover H.
    f = guest.field
    m = geometry_rank(guest)
    searchers = _through_searchers(guest)
    s = searchers[0]
    assert s.basis[0] == 0
    assert (len(s.orbits[0]) == len(guest)) == transitive
    assert (len(searchers) == 1) == transitive
    for k, r in enumerate(searchers):
        assert r.basis[0] in r.orbits[0]
        assert not any(r.basis[0] in t.orbits[0] for t in searchers[:k])
    assert set().union(*(r.orbits[0] for r in searchers)) == \
        set(range(len(guest)))
    rng = random.Random(7 * len(guest) + f.q + m)
    seen = set()
    for n in (3, 4) if m == 2 or f.q == 2 else (3,):
        total = pg_size(n, f)
        images = _image_sets(guest, n)
        for _ in range(12):
            free = _random_free_set(images, total, rng)
            assert not any(img <= free for img in images)
            outside = sorted(set(range(total)) - free)
            for p in rng.sample(outside, min(len(outside), 3)):
                order = sorted(free)
                kept = _host_map(order)
                points = order + [p]  # position -1 holds p
                top = ((p, -1),)
                ws = []
                for r in searchers:
                    found = r.find_through(kept, n, p)
                    hit = r._search(kept, n, r._rules, top)[0]
                    assert found == (hit is not None)
                    w = None if hit is None else r._witness(hit, points)
                    first = r._search(kept, n, r._no_rules, top)[0]
                    assert w == (None if first is None
                                 else r._witness(first, points))
                    ws.append(w)
                expect = any(img <= free | {p} for img in images)
                assert any(w is not None for w in ws) == expect, (free, p)
                host = Geometry(field=f, ambient=n,
                                points=tuple(sorted(points)))
                for r, w in zip(searchers, ws):
                    if w is not None:
                        assert w.point_map[r.basis[0]] == p
                        assert verify_witness(host, guest, w)
                seen.add(expect)
    assert seen == {True, False}


# Witnesses of the search as it tries host points in index order and
# scalars in increasing code order; a change in that order changes them.
GOLDEN_WITNESSES = [
    (make_pg(4, F4), make_g(3, F4, 2),
     ((0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1)),
     (0, 1, 2, 3, 4, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18, 17, 20, 19)),
    (make_pg(4, F3), make_ag(3, F3),
     ((0, 1, 0, 2), (0, 0, 1, 2), (0, 0, 0, 1)),
     (0, 1, 2, 4, 5, 9, 7, 11, 12)),
    (make_pg(3, F9), make_ag(2, F9),
     ((0, 1, 2), (0, 0, 1)),
     (0, 1, 2, 6, 4, 5, 9, 7, 8)),
    (Geometry(field=F4, ambient=3, points=tuple(range(1, 21, 2))),
     make_ag(2, F4),
     ((1, 1, 0), (0, 1, 0)),
     (1, 5, 17, 13)),
    (Geometry(field=F3, ambient=4, points=tuple(range(5, 40, 3))),
     make_ag(2, F3),
     ((0, 0, 1, 0), (0, 1, 0, 1)),
     (5, 8, 11)),
    (Geometry(field=F9, ambient=3, points=tuple(range(7, 91, 2))),
     Geometry(field=F9, ambient=2, points=(1, 3, 4, 8)),
     ((0, 1, 6), (2, 1, 8)),
     (7, 11, 69, 55)),
]


@pytest.mark.parametrize("host, guest, matrix, point_map", GOLDEN_WITNESSES)
def test_witness_is_pinned(host, guest, matrix, point_map):
    w = contains(host, guest)
    assert w == EmbeddingWitness(map=matrix, point_map=point_map)
    assert verify_witness(host, guest, w)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_memo_holds_each_canonical_vector_met_once(q, monkeypatch):
    # a negative, a positive with a host of higher rank, a positive that
    # meets the zero vector, and an ex_exact run whose freeness tests all
    # share one searcher.  The third guest is two lines of three points
    # through e0; its basis is e2, e1, e0, and e0 lies in neither O_0 nor
    # O_1, so every host point is a candidate for it, b0's image w0 among
    # them, and for one scalar lambda the check of e0 + e2 meets
    # w0 + lambda * w0 = 0.
    made = []  # every searcher built, in order
    init = EmbedSearcher.__init__

    def record(self, H):
        init(self, H)
        made.append(self)

    monkeypatch.setattr(EmbedSearcher, "__init__", record)
    f = field_make(q)
    two_lines = _points(f, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1),
                            (1, 0, 1)])
    runs = [(make_ag(3, f), make_pg(2, f)), (make_pg(3, f), make_ag(2, f)),
            (make_pg(3, f), two_lines)]
    for host, guest in runs:
        contains(host, guest)
    res = ex_exact(make_pg(2, f), 3, Budget(node_cap=100))
    runs.append((res.witness, make_pg(2, f)))
    assert len(made) == len(runs)
    zeros = 0
    for s, (host, guest) in zip(made, runs):
        for v, c in s.memo.items():
            if any(v):
                assert c == point_index(v, len(v), f)
            else:
                assert c == -1
                zeros += 1
        ranks = {host.ambient, guest.ambient}
        assert 0 < len(s.memo) <= sum(q ** n for n in ranks)
        size = len(s.memo)
        s.find(host)
        assert len(s.memo) == size
    assert zeros


# PG(4, 2) inside the complement, in PG(5, 2), of six points that span it.
# While the rule covered only b0's image, the search tried every ordered
# basis of each candidate flat and took 23 s to return this witness.
PG42_IN_A_COMPLEMENT = """
import json
from qgeom import (Geometry, complement_geometry, contains, field_make,
                   make_pg, verify_witness)
f = field_make(2)
host = complement_geometry(
    Geometry(field=f, ambient=6, points=(2, 24, 26, 48, 54, 56)))
guest = make_pg(5, f)
w = contains(host, guest)
print(json.dumps([verify_witness(host, guest, w), w.map, w.point_map]))
"""


def test_pg42_in_a_complement_finishes_within_10_s():
    r = subprocess.run([sys.executable, "-c", PG42_IN_A_COMPLEMENT],
                       capture_output=True, text=True, timeout=10)
    assert r.returncode == 0, r.stderr
    identity = [[int(i == k) for i in range(6)] for k in range(5)]
    assert json.loads(r.stdout) == [True, identity, list(range(1, 62, 2))]


# e_0..e_(n-1) and every e_0 + e_k of PG(n-1, q), searched for inside
# itself in a child process capped at 512 MB.  The guest's span holds q^n
# vectors (16^7 or 2^25), so a search whose work or memory grows with the
# span of the chosen images cannot finish within these limits.
HIGH_RANK_SELF_CONTAINMENT = """
import sys
from qgeom import Geometry, contains, field_make, verify_witness
from qgeom.projective import point_index
n, q = int(sys.argv[1]), int(sys.argv[2])
f = field_make(q)
vecs = [tuple(int(i == k) for i in range(n)) for k in range(n)]
vecs += [tuple(int(i in (0, k)) for i in range(n)) for k in range(1, n)]
X = Geometry(field=f, ambient=n,
             points=tuple(sorted({point_index(v, n, f) for v in vecs})))
w = contains(X, X)
print(w is not None and verify_witness(X, X, w))
"""


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.parametrize("n, q", [(7, 16), (25, 2)])
def test_high_rank_guest_search_is_bounded_by_input(n, q):
    r = subprocess.run(
        [sys.executable, "-c", HIGH_RANK_SELF_CONTAINMENT, str(n), str(q)],
        capture_output=True, text=True, timeout=20,
        preexec_fn=_cap_address_space)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "True"


@pytest.mark.parametrize("n, q", [(7, 16), (25, 2)])
def test_orbit_phase_is_bounded_by_input(n, q):
    # the guests of the test above; the self-searches that build the orbit
    # share one budget of |H| * rank * q candidate steps
    f = field_make(q)
    vecs = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    vecs += [tuple(int(i in (0, k)) for i in range(n)) for k in range(1, n)]
    s = EmbedSearcher(_points(f, vecs))
    assert s.m == n
    assert 0 < s.orbit_steps <= s.size * n * q


# Searcher builds of large symmetric guests, timed in a child process.  The
# self-searches that build the chain reduce each candidate against the
# pinned prefix before any guest-point check, so a candidate in the span of
# the prefix costs one reduction, not up to |H| lookups per scalar.
LARGE_GUEST_BUILDS = """
import json, time
from qgeom import contains, field_make, make_ag, make_pg, verify_witness
from qgeom.embed import EmbedSearcher
out = {}
pg54, ag102 = make_pg(6, field_make(4)), make_ag(11, field_make(2))
for name, H in (("PG(5,4)", pg54), ("AG(10,2)", ag102)):
    t = time.perf_counter()
    s = EmbedSearcher(H)
    out[name] = [time.perf_counter() - t, s.orbit_steps]
t = time.perf_counter()
w = contains(pg54, pg54)
out["contains"] = [time.perf_counter() - t, verify_witness(pg54, pg54, w)]
print(json.dumps(out))
"""


def test_large_symmetric_guests_build_their_searchers_quickly():
    r = subprocess.run([sys.executable, "-c", LARGE_GUEST_BUILDS],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["PG(5,4)"][0] < 5 and out["PG(5,4)"][1] == 16496
    assert out["AG(10,2)"][0] < 2 and out["AG(10,2)"][1] == 22528
    assert out["contains"][0] < 5 and out["contains"][1] is True


# PG(1, 9) in PG(6, 9), 597871 points, timed in a child process.  A search
# that computed the vector of every host point took 1.7 s here.
LARGE_HOST = """
import json, time
from qgeom import contains, field_make, make_pg, verify_witness
f = field_make(9)
host, guest = make_pg(7, f), make_pg(2, f)
t = time.perf_counter()
w = contains(host, guest)
t = time.perf_counter() - t
print(json.dumps([t, verify_witness(host, guest, w), w.map, w.point_map]))
"""


def test_containment_in_a_large_host_takes_under_a_second():
    r = subprocess.run([sys.executable, "-c", LARGE_HOST],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    t, ok, matrix, point_map = json.loads(r.stdout)
    assert t < 1 and ok is True
    assert matrix == [[0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0, 1]]
    assert point_map == list(range(10))


def test_find_computes_only_the_vectors_of_the_candidates_it_tries(
        monkeypatch):
    # a host point's vector is computed the first time the search tries
    # that point, so one find on a large host calls point_vec at most once
    # per candidate tried, besides once per guest point, and never twice
    # for one point
    calls = []

    def counted(real):
        def point_vec(i, n, f):
            calls.append((i, n))
            return real(i, n, f)
        return point_vec

    for module in (qgeom.geometry, qgeom.embed):
        monkeypatch.setattr(module, "point_vec", counted(module.point_vec))
    tried = [0]
    search = EmbedSearcher._search

    def spy(self, *args, **kw):
        hit, steps = search(self, *args, **kw)
        tried[0] += steps
        return hit, steps

    monkeypatch.setattr(EmbedSearcher, "_search", spy)
    guest, host = make_pg(3, F3), make_pg(7, F3)
    s = EmbedSearcher(guest)
    assert len(calls) == len(guest)
    w, made = s.find(host), len(calls)
    assert verify_witness(host, guest, w)
    assert len(set(calls[:made])) == made
    assert made <= tried[0] + len(guest)
    assert made < len(host) // 10
