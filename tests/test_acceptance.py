"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report lines.  All comparisons are exact (integers or rationals).
"""

from fractions import Fraction

import pytest
from conftest import brute_force_ex

from qgeom import (
    Geometry,
    bose_burton_value,
    complement_geometry,
    contains,
    critical_exponent,
    ex_exact,
    field_make,
    find_sparse_flat,
    g_size,
    gaussian_binomial,
    make_ag,
    make_g,
    make_pg,
    pg_size,
    r_main2_binary,
    r_mdhj_binary,
    r_main2_recursive,
    smallest_t,
    tower,
)
from qgeom.projective import Flat, flat_intersect, iter_canonical_vectors, iter_flats

F2 = field_make(2)
F3 = field_make(3)


def _report(num, desc, passed):
    print("\ncriterion %d (%s): %s" % (num, desc, "PASS" if passed else "FAIL"))
    assert passed, "criterion %d (%s) failed" % (num, desc)


def test_criterion_1_bose_burton_exactness():
    ok = True
    for n, expect in [(2, 2), (3, 4), (4, 8)]:
        ok &= ex_exact(make_pg(2, F2), n).value == expect == 2 ** (n - 1)
    for n in (3, 4):
        ok &= ex_exact(make_pg(3, F2), n).value == g_size(n, F2, 2)
    ok &= ex_exact(make_pg(2, F3), 2).value == 3
    ok &= bose_burton_value(3, 3, F2) == 6
    ok &= bose_burton_value(3, 4, F2) == 12
    _report(1, "Bose-Burton exactness", ok)


def test_criterion_2_density_trend():
    ok = True
    dens_line = [Fraction(ex_exact(make_pg(2, F2), n).value, pg_size(n, F2))
                 for n in (2, 3, 4)]
    ok &= dens_line == [Fraction(2, 3), Fraction(4, 7), Fraction(8, 15)]
    ok &= all(a > b for a, b in zip(dens_line, dens_line[1:]))
    ok &= all(d > Fraction(1, 2) for d in dens_line)
    ok &= critical_exponent(make_pg(2, F2)) == 2

    dens_cap = [Fraction(ex_exact(make_ag(2, F3), n).value, pg_size(n, F3))
                for n in (2, 3)]
    ok &= dens_cap == [Fraction(1, 2), Fraction(4, 13)]
    ok &= dens_cap[0] > dens_cap[1]
    ok &= critical_exponent(make_ag(2, F3)) == 1
    _report(2, "density trend toward 1 - q^(1-c)", ok)


def test_criterion_3_complementary_duality():
    ok = True
    cases = [(2, 1), (3, 1), (3, 2)]
    for mask in range(1 << 7):
        pts = tuple(i for i in range(7) if mask >> i & 1)
        G = Geometry(field=F2, ambient=3, points=pts)
        comp = complement_geometry(G)
        for m, c in cases:
            sparse = find_sparse_flat(G, m, c) is not None
            embed = contains(comp, make_g(m, F2, c)) is not None
            if sparse != embed:
                ok = False
    _report(3, "complementary-form duality, all 128 x 3 cases", ok)


def test_criterion_4_oracle_equivalence():
    instances = [
        (make_pg(2, F2), 2), (make_pg(2, F2), 3), (make_pg(2, F2), 4),
        (make_pg(3, F2), 3), (make_pg(3, F2), 4),
        (make_pg(2, F3), 2),
        (make_ag(2, F3), 2), (make_ag(2, F3), 3),
    ]
    ok = True
    for H, n in instances:
        if pg_size(n, H.field) > 15:
            continue
        ok &= ex_exact(H, n).value == brute_force_ex(H, n)
    _report(4, "branch-and-bound equals all-subsets oracle", ok)


def test_criterion_5_non_containment_structure():
    ok = True
    for q in (2, 3):
        f = field_make(q)
        for c in range(2, 5):
            for m in range(c, 5):
                for n in range(m, 5):
                    ok &= contains(make_g(n, f, c - 1), make_g(m, f, c)) is None
        for m in range(1, 5):
            for c in range(1, m + 1):
                ok &= critical_exponent(make_g(m, f, c)) == c
    _report(5, "non-containment and critical exponents on the grid", ok)


def test_criterion_6_bounds_module():
    ok = True
    # tower identities on the exact range
    for c in range(1, 4):
        for s in range(5):
            a, b = tower(c, s), tower(c - 1, 2 ** s)
            if a.kind == "exact" and b.kind == "exact":
                ok &= a.value == b.value
    # closed forms at 20 grid points, including power-of-two eps boundaries
    grid = [(m, eps) for m in (2, 3, 4, 5)
            for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4),
                        Fraction(1, 3), Fraction(2, 3))]
    assert len(grid) == 20
    for m, eps in grid:
        expect = 2 ** (m - 2) * _ceil_one_minus_log2(eps)
        ok &= r_mdhj_binary(m, eps) == expect
        for c in range(1, m):
            v = r_main2_binary(m, c, eps)
            d = _ceil_log2_int(_ceil_two_minus_log2(eps))
            ok &= v == tower(c, m + d)
    # recursion traces are internally consistent
    for m, c, eps in [(3, 2, Fraction(1, 2)), (4, 2, Fraction(1, 4)),
                      (5, 3, Fraction(1, 2)), (4, 3, Fraction(1, 4))]:
        rb = r_main2_recursive(m, c, eps)
        for lvl in rb.trace:
            if lvl.c > 1:
                ok &= lvl.t == smallest_t(2, lvl.c, lvl.r, lvl.eps)
                ok &= lvl.r == r_mdhj_binary(lvl.m - lvl.c + 1, lvl.eps / 2)
    _report(6, "tower, closed forms and recursion traces", ok)


def _ceil_one_minus_log2(eps):
    # independent ceiling of 1 - log2(eps): smallest k with eps >= 2^(1-k)
    k = -100
    while eps < Fraction(2) ** (1 - k):
        k += 1
    return k


def _ceil_two_minus_log2(eps):
    return _ceil_one_minus_log2(eps / 2)


def _ceil_log2_int(x):
    k = 0
    while 2 ** k < x:
        k += 1
    return k


def test_criterion_7_field_and_projective_substrates():
    ok = True
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        f = field_make(q)
        for a in range(q):
            ok &= f.add(a, 0) == a and f.mul(a, 1) == a
            ok &= f.add(a, f.neg(a)) == 0
            if a:
                ok &= f.mul(a, f.inv(a)) == 1
            for b in range(q):
                ok &= f.add(a, b) == f.add(b, a)
                ok &= f.mul(a, b) == f.mul(b, a)
                for c in range(q):
                    ok &= f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        for n in range(1, 7):
            ok &= sum(1 for _ in iter_canonical_vectors(n, f)) == pg_size(n, f)
    for q in (2, 3):
        f = field_make(q)
        for n in range(1, 5):
            for k in range(n + 1):
                ok &= sum(1 for _ in iter_flats(n, f, k)) == \
                    gaussian_binomial(n, k, q)
    # rank-(r-c+1) flats meet every rank-m flat in rank >= m-c+1
    for q in (2, 3):
        f = field_make(q)
        for r in range(2, 6):
            for c in range(1, r + 1):
                basis = tuple(tuple(1 if j == i else 0 for j in range(r))
                              for i in range(r - c + 1))
                M = Flat(basis=basis, n=r, field=f)
                for m in range(1, r + 1):
                    for F in iter_flats(r, f, m):
                        if flat_intersect(F, M).rank < m - c + 1:
                            ok = False
    _report(7, "field and projective substrates", ok)
