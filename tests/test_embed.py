from itertools import combinations

import pytest

from qgeom import (
    EmbeddingWitness,
    FieldMismatch,
    Geometry,
    contains,
    enumerate_flats,
    field_make,
    flat_points,
    make_ag,
    make_g,
    make_pg,
    verify_witness,
)

F2 = field_make(2)
F3 = field_make(3)


def test_line_in_fano():
    host, guest = make_pg(3, F2), make_pg(2, F2)
    w = contains(host, guest)
    assert w is not None
    assert verify_witness(host, guest, w)
    # independent cross-check: the mapped points really form a Fano line
    lines = {flat_points(L) for L in enumerate_flats(3, F2, 2)}
    assert frozenset(w.point_map) in lines


def test_no_line_in_affine_plane():
    host, guest = make_g(3, F2, 1), make_pg(2, F2)
    # oracle: none of the 7 Fano lines has all 3 points inside AG(2,2)
    host_set = host.point_set
    for L in enumerate_flats(3, F2, 2):
        assert not flat_points(L) <= host_set
    assert contains(host, guest) is None


def test_affine_plane_inside_pg32():
    host, guest = make_pg(4, F2), make_g(3, F2, 1)
    # oracle: some plane minus one of its lines lies inside PG(3,2)
    found = False
    for plane in enumerate_flats(4, F2, 3):
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


def test_verify_rejects_point_outside_host():
    guest = make_pg(2, F2)
    full = make_pg(3, F2)
    w = contains(full, guest)
    assert w is not None
    # drop one of the mapped points from the host: the witness must fail
    host = Geometry(field=F2, ambient=3,
                    points=tuple(i for i in full.points if i != w.point_map[0]))
    assert not verify_witness(host, guest, w)


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
    # independent oracle: enumerate every m x n matrix over the field,
    # keep the full-rank ones, and test whether one maps all guest span
    # coordinates onto host points
    from itertools import product

    from qgeom.geometry import span_coordinates
    from qgeom.projective import canonical_vec, point_index, rref

    f = host.field
    n = host.ambient
    m, _, coords = span_coordinates(guest)
    host_set = host.point_set
    for flat_entries in product(range(f.q), repeat=m * n):
        M = [flat_entries[i * n:(i + 1) * n] for i in range(m)]
        basis, _ = rref(M, n, f)
        if len(basis) != m:
            continue
        ok = True
        for a in coords:
            img = [0] * n
            for ai, row in zip(a, M):
                if ai:
                    img = [f.add(x, f.mul(ai, y)) for x, y in zip(img, row)]
            if point_index(canonical_vec(tuple(img), f), n, f) not in host_set:
                ok = False
                break
        if ok:
            return True
    return False
