import random
import time
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import rref_by_gauss_jordan

from qgeom import (
    ZeroVector,
    canonical_vec,
    field_make,
    flat_contains_point,
    flat_intersect,
    flat_points,
    gaussian_binomial,
    pg_size,
    point_index,
    point_vec,
    span,
)
from qgeom.projective import Flat, iter_canonical_vectors, iter_flats

F2 = field_make(2)
F3 = field_make(3)


def test_canonical_vec_scales_leading_coefficient():
    assert canonical_vec((0, 2, 1), F3) == (0, 1, 2)
    assert canonical_vec((1, 1, 0), F2) == (1, 1, 0)
    assert canonical_vec((3, 0, 0, 0), field_make(5)) == (1, 0, 0, 0)
    # every nonzero multiple of a vector has the same canonical vector: the
    # one multiple whose first nonzero coordinate is 1
    rng = random.Random(29)
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        f = field_make(q)
        for n in range(1, 6):
            with pytest.raises(ZeroVector):
                canonical_vec((0,) * n, f)
            for _ in range(20):
                v = tuple(rng.randrange(q) for _ in range(n))
                if not any(v):
                    continue
                multiples = [tuple(f.mul_table[c][x] for x in v)
                             for c in range(1, q)]
                ones = [w for w in multiples if next(filter(None, w)) == 1]
                assert len(ones) == 1
                assert {canonical_vec(w, f) for w in multiples} == {ones[0]}


def test_point_index_rejects_zero():
    with pytest.raises(ZeroVector):
        point_index((0, 0, 0), 3, F2)


def test_point_counts():
    assert len(list(iter_canonical_vectors(3, F2))) == 7  # the Fano plane
    assert len(list(iter_canonical_vectors(2, F3))) == 4
    assert len(list(iter_canonical_vectors(1, field_make(5)))) == 1
    assert point_vec(0, 1, field_make(5)) == (1,)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
@pytest.mark.parametrize("n", range(1, 7))
def test_point_count_matches_pg_size(q, n):
    f = field_make(q)
    expected = pg_size(n, f)
    if expected <= 50_000:
        vecs = list(iter_canonical_vectors(n, f))
        assert len(vecs) == expected
        assert all(point_index(v, n, f) == i and point_vec(i, n, f) == v
                   for i, v in enumerate(vecs))
    else:
        # count without materializing the (large) indexed enumeration
        assert sum(1 for _ in iter_canonical_vectors(n, f)) == expected
    for bad in (-1, expected):
        with pytest.raises(ValueError):
            point_vec(bad, n, f)


def test_enumeration_is_lexicographic():
    vecs = [point_vec(i, 3, F3) for i in range(pg_size(3, F3))]
    assert vecs == sorted(vecs)


def test_span_basics():
    e1, e2, e12 = (1, 0, 0), (0, 1, 0), (1, 1, 0)
    assert span([e1, e2], 3, F2).rank == 2
    assert span([e1, e2, e12], 3, F2) == span([e1, e2], 3, F2)
    assert span([], 3, F2).rank == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_span_invariant_under_order_and_rescaling(data):
    f = data.draw(st.sampled_from([F2, F3]))
    pts = list(iter_canonical_vectors(3, f))
    subset = data.draw(st.lists(st.sampled_from(pts), min_size=1, max_size=5))
    base = span(subset, 3, f)
    shuffled = data.draw(st.permutations(subset))
    scaled = []
    for p in shuffled:
        s = data.draw(st.integers(min_value=1, max_value=f.q - 1))
        scaled.append(tuple(f.mul(s, x) for x in p))
    assert span(scaled, 3, f) == base


def test_fano_line_pairs_meet_in_one_point():
    lines = list(iter_flats(3, F2, 2))
    assert len(lines) == 7
    for L1, L2 in combinations(lines, 2):
        assert flat_intersect(L1, L2).rank == 1


def test_intersection_idempotent_and_absorbing():
    L = next(iter_flats(3, F2, 2))
    assert flat_intersect(L, L) == L
    empty = Flat(basis=(), n=3, field=F2)
    assert flat_intersect(L, empty).rank == 0


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", range(1, 5))
def test_flat_counts_match_gaussian_binomials(q, n):
    f = field_make(q)
    for k in range(n + 1):
        flats = list(iter_flats(n, f, k))
        assert len(flats) == gaussian_binomial(n, k, q)
        assert len(set(flats)) == len(flats)  # echelon form is canonical


def test_gaussian_binomial_cross_check():
    # Fano line count by the raw falling-product formula
    assert gaussian_binomial(3, 2, 2) == (2**3 - 1) * (2**3 - 2) // ((2**2 - 1) * (2**2 - 2))
    assert gaussian_binomial(3, 0, 2) == 1
    assert gaussian_binomial(2, 1, 3) == 4


def test_flat_points_count_and_membership():
    for k in range(4):
        for F in iter_flats(4, F2, k):
            pts = flat_points(F)
            assert len(pts) == pg_size(k, F2)
            assert all(flat_contains_point(F, point_vec(i, 4, F2))
                       for i in pts)


def test_pg_size_values():
    assert pg_size(3, F2) == 7
    assert pg_size(4, F2) == 15
    assert pg_size(2, F3) == 4


@pytest.mark.parametrize("n,q", [(4, 2), (3, 3)])
def test_intersection_matches_point_set_oracle(n, q):
    f = field_make(q)
    flats = [(F, flat_points(F)) for k in range(n + 1)
             for F in iter_flats(n, f, k)]
    for A, a_pts in flats:
        for B, b_pts in flats:
            assert flat_points(flat_intersect(A, B)) == a_pts & b_pts


def test_modular_rank_bound_exhaustive_pg32():
    flats = [F for k in range(5) for F in iter_flats(4, F2, k)]
    for A in flats:
        for B in flats:
            inter = flat_intersect(A, B)
            assert inter.rank >= A.rank + B.rank - 4


@pytest.mark.parametrize("q", [2, 3])
def test_flat_meets_corank_flat_in_expected_rank(q):
    # For M of rank r-c+1, every rank-m flat meets M in rank >= m-c+1.
    f = field_make(q)
    for r in range(2, 6):
        if q == 3 and r == 5:
            ranks = [1, 2, 4, 5]  # keep the big rank-3 sweep for acceptance
        else:
            ranks = range(1, r + 1)
        for c in range(1, r + 1):
            basis = tuple(tuple(1 if j == i else 0 for j in range(r))
                          for i in range(r - c + 1))
            M = Flat(basis=basis, n=r, field=f)
            for m in ranks:
                for F in iter_flats(r, f, m):
                    assert flat_intersect(F, M).rank >= m - c + 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_point_vec_round_trips_at_every_tail_length(q):
    # the first, last and a random point of each block of one tail length,
    # up to tails long enough to split the digits in halves more than once
    f = field_make(q)
    rng = random.Random(q)
    for n in (1, 2, 3, 7, 65, 66, 300):
        for t in range(n):
            start, size = pg_size(t, f), q ** t
            for i in (start, start + size - 1, start + rng.randrange(size)):
                v = point_vec(i, n, f)
                assert len(v) == n and v.index(1) == n - 1 - t
                assert point_index(v, n, f) == i


def test_point_vec_at_rank_100000_takes_under_a_tenth_of_a_second():
    # the last point and a random one, both with 99999-digit tails; the
    # best of three runs, so that a load spike on the machine does not count
    n = 100_000
    last, i = pg_size(n, F2) - 1, random.Random(1).randrange(pg_size(n, F2))
    times = []
    for _ in range(3):
        t = time.perf_counter()
        vs = [point_vec(last, n, F2), point_vec(i, n, F2)]
        times.append(time.perf_counter() - t)
    assert vs[0] == (1,) * n and sum(vs[1]) > n // 3
    assert min(times) < 0.1


def test_point_index_at_rank_100000_takes_under_a_tenth_of_a_second():
    # the same two points, their 99999-digit tails read back; the best of
    # three runs, as above
    n = 100_000
    last, i = pg_size(n, F2) - 1, random.Random(1).randrange(pg_size(n, F2))
    vs = [point_vec(last, n, F2), point_vec(i, n, F2)]
    times = []
    for _ in range(3):
        t = time.perf_counter()
        got = [point_index(v, n, F2) for v in vs]
        times.append(time.perf_counter() - t)
    assert got == [last, i]
    assert min(times) < 0.1


def _spans_of_point_subsets(n, f, k):
    """Every rank-k flat, as the Gauss-Jordan RREF of k points spanning it."""
    points = [v for v in product(range(f.q), repeat=n)
              if next(filter(None, v), 0) == 1]
    spans = set()
    for subset in combinations(points, k):
        rows, pivots, _ = rref_by_gauss_jordan(subset, n, f)
        if len(pivots) == k:
            spans.add(rows)
    return spans


@pytest.mark.parametrize("q, n", [(2, 1), (2, 3), (2, 4), (2, 5), (3, 3),
                                  (3, 4), (4, 3), (5, 3)])
def test_iter_flats_yields_each_span_of_k_points_once(q, n):
    f = field_make(q)
    for k in range(min(n, 3) + 1):
        bases = [F.basis for F in iter_flats(n, f, k)]
        assert len(set(bases)) == len(bases), (q, n, k)
        assert set(bases) == _spans_of_point_subsets(n, f, k), (q, n, k)
