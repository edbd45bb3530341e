import random
import subprocess
import sys
from fractions import Fraction

import pytest
from conftest import critical_exponent_by_flat_scan, subset_geometry

from qgeom import (
    EmptyGeometry,
    Flat,
    Geometry,
    complement_geometry,
    critical_exponent,
    field_make,
    flat_points,
    g_size,
    geometry_from_json,
    geometry_rank,
    geometry_to_json,
    make_ag,
    make_g,
    make_pg,
    pg_size,
    span,
)
from qgeom.geometry import MAX_LISTED_POINTS

F2 = field_make(2)
F3 = field_make(3)


def test_make_pg_sizes():
    assert len(make_pg(3, F2)) == 7
    assert len(make_pg(2, F3)) == 4
    assert len(make_pg(1, F2)) == 1


def test_make_g_examples():
    assert make_g(3, F2, 3) == make_pg(3, F2)
    assert len(make_g(3, F2, 1)) == 4  # AG(2,2)
    assert len(make_g(3, F2, 2)) == 6


def test_make_ag_sizes():
    assert len(make_ag(2, F3)) == 3
    assert len(make_ag(3, F2)) == 4
    assert len(make_ag(3, F3)) == 9


@pytest.mark.parametrize("q", [2, 3, 4])
def test_g_size_matches_construction(q):
    f = field_make(q)
    for m in range(1, 6):
        for c in range(m + 1):
            assert len(make_g(m, f, c)) == g_size(m, f, c)


@pytest.mark.parametrize("q", [2, 3])
def test_g_family_endpoints(q):
    f = field_make(q)
    for m in range(1, 5):
        assert make_g(m, f, m).point_set == make_pg(m, f).point_set
        assert make_g(m, f, 1).point_set == make_ag(m, f).point_set


def test_g_size_values():
    assert g_size(3, F2, 1) == 4
    assert g_size(2, F3, 1) == 3
    assert g_size(4, F2, 2) == 12


def test_geometry_rank():
    assert geometry_rank(make_pg(3, F2)) == 3
    two = Geometry(field=F2, ambient=3, points=(0, 1))
    assert geometry_rank(two) == 2
    assert geometry_rank(Geometry(field=F2, ambient=3, points=())) == 0


@pytest.mark.parametrize("q", [2, 3])
def test_g_rank_is_m_for_positive_c(q):
    f = field_make(q)
    for m in range(1, 5):
        for c in range(1, m + 1):
            assert geometry_rank(make_g(m, f, c)) == m


def test_critical_exponent_examples():
    assert critical_exponent(make_pg(3, F2)) == 3
    assert critical_exponent(make_ag(3, F3)) == 1
    assert critical_exponent(make_g(4, F2, 2)) == 2


@pytest.mark.parametrize("q", [2, 3])
def test_critical_exponent_of_g_family(q):
    f = field_make(q)
    for m in range(1, 5):
        for c in range(1, m + 1):
            assert critical_exponent(make_g(m, f, c)) == c


def test_critical_exponent_uses_span_not_ambient():
    # a full line inside a bigger ambient space: indices 0,1,2 are
    # (0,0,0,1), (0,0,1,0), (0,0,1,1), a rank-2 flat of PG(3,2)
    line = Geometry(field=F2, ambient=4, points=(0, 1, 2))
    assert geometry_rank(line) == 2
    assert critical_exponent(line) == 2
    # two of its three points leave the third as a disjoint rank-1 flat
    partial = Geometry(field=F2, ambient=4, points=(0, 1))
    assert critical_exponent(partial) == 1


def test_critical_exponent_matches_the_flat_scan_on_every_pg22_subset():
    for mask in range(1, 1 << 7):
        H = subset_geometry(F2, 3, [i for i in range(7) if mask >> i & 1])
        assert critical_exponent(H) == critical_exponent_by_flat_scan(H), \
            H.points


@pytest.mark.parametrize("q, n", [(3, 3), (2, 4), (4, 3)])
def test_critical_exponent_matches_the_flat_scan_on_random_subsets(q, n):
    # every size from one point to the whole space, so c runs over 1..n
    f = field_make(q)
    rng = random.Random(10 * q + n)
    total = pg_size(n, f)
    for _ in range(25):
        for size in range(1, total + 1):
            H = subset_geometry(f, n, rng.sample(range(total), size))
            assert critical_exponent(H) == \
                critical_exponent_by_flat_scan(H), H.points


def test_critical_exponent_rejects_empty():
    with pytest.raises(EmptyGeometry):
        critical_exponent(Geometry(field=F2, ambient=3, points=()))


def test_complement():
    ag = make_g(3, F2, 1)
    comp = complement_geometry(ag)
    assert len(comp) == 3
    assert geometry_rank(comp) == 2  # the removed Fano line returns
    assert complement_geometry(comp) == ag
    assert len(complement_geometry(make_pg(3, F2))) == 0


def test_point_listing_has_a_size_limit():
    # PG(7, 16) has 286331153 points: refused before any list is built
    f16 = field_make(16)
    big = Geometry(field=f16, ambient=8, points=(0,))
    for build in (lambda: make_pg(8, f16), lambda: make_g(8, f16, 0),
                  lambda: make_ag(8, f16), lambda: complement_geometry(big)):
        with pytest.raises(ValueError, match="above the limit"):
            build()
    # a space just below the limit still builds
    assert pg_size(20, F2) == MAX_LISTED_POINTS - 1
    assert len(make_pg(20, F2)) == MAX_LISTED_POINTS - 1


def test_density_ratio_identity():
    # |G(n-1,q,c-1)| / |PG(n-1,q)| == q^n (1 - q^(1-c)) / (q^n - 1), exactly
    for q in (2, 3):
        f = field_make(q)
        for n in range(2, 6):
            for c in range(2, n + 1):
                lhs = Fraction(g_size(n, f, c - 1), pg_size(n, f))
                rhs = (Fraction(q ** n, q ** n - 1)
                       * (1 - Fraction(1, q ** (c - 1))))
                assert lhs == rhs


def test_json_round_trip():
    H = make_g(3, F3, 2)
    obj = geometry_to_json(H)
    assert obj["q"] == 3 and obj["ambient"] == 3
    assert geometry_from_json(obj) == H


def test_json_recanonicalizes_and_rejects_duplicates():
    f = F3
    obj = geometry_to_json(make_pg(2, f))
    # scale a point: still the same projective point after parsing
    obj["points"][0] = [f.mul(2, x) for x in obj["points"][0]]
    assert geometry_from_json(obj) == make_pg(2, f)
    obj["points"].append(obj["points"][1])
    with pytest.raises(ValueError):
        geometry_from_json(obj)


@pytest.mark.parametrize("points", [(7,), (-1,), (2, 2)])
def test_geometry_rejects_bad_point_indices(points):
    with pytest.raises(ValueError):
        Geometry(field=F2, ambient=3, points=points)


@pytest.mark.parametrize("ambient", [-3, 0])
@pytest.mark.parametrize("q", [2, 3])
def test_geometry_rejects_ambient_below_1(ambient, q):
    # refused before pg_size, which gives -1.0 for rank -3 over GF(3)
    for points in ((), (0,)):
        with pytest.raises(ValueError, match="ambient rank must be at least"):
            Geometry(field=field_make(q), ambient=ambient, points=points)


def test_geometry_repr_is_pinned():
    G = Geometry(field=F2, ambient=2, points=(2, 0))
    assert repr(G) == ("Geometry(field=FieldSpec(p=2, k=1, q=2, modulus=()),"
                       " ambient=2, points=(0, 2))")


@pytest.mark.parametrize("q", [2, 3, 4])
def test_field_spec_never_equals_a_geometry(q):
    f = field_make(q)
    for G in (make_pg(1, f), make_pg(2, f),
              Geometry(field=f, ambient=1, points=())):
        assert not (f == G or G == f)
    assert len({f, make_pg(2, f)}) == 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_make_g_is_pg_minus_the_coordinate_flat(q):
    # make_g finds the removed flat's points by index arithmetic; here
    # they are listed from the flat itself
    f = field_make(q)
    for m in range(1, 5):
        everything = make_pg(m, f).points
        for c in range(m + 1):
            basis = tuple(tuple(int(i == j) for j in range(m))
                          for i in range(m - c))
            removed = flat_points(Flat(basis=basis, n=m, field=f))
            assert make_g(m, f, c).points == tuple(
                i for i in everything if i not in removed), (m, c)


def test_make_ag_of_a_large_space_is_quick():
    # AG(19, 2), 2^19 points of a space of 2^20 - 1
    code = ("from qgeom import field_make, make_ag; "
            "assert len(make_ag(20, field_make(2))) == 2 ** 19")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=3)


def test_make_g_rejects_c_above_m():
    with pytest.raises(ValueError):
        make_g(3, F2, 7)


@pytest.mark.parametrize("points", [5, [5], "11"])
def test_json_rejects_points_not_a_list_of_lists(points):
    obj = geometry_to_json(make_pg(2, F2))
    obj["points"] = points
    with pytest.raises(ValueError):
        geometry_from_json(obj)


@pytest.mark.parametrize("coord", [[1], "1", 1.0, True, None])
def test_json_rejects_non_integer_coordinates(coord):
    obj = geometry_to_json(make_pg(2, F2))
    obj["points"] = [[coord, 0]]
    with pytest.raises(ValueError):
        geometry_from_json(obj)


@pytest.mark.parametrize("key", ["q", "p", "k", "ambient"])
def test_json_rejects_non_integer_header(key):
    obj = geometry_to_json(make_pg(2, F2))
    obj[key] = [obj[key]]
    with pytest.raises(ValueError):
        geometry_from_json(obj)


@pytest.mark.parametrize("obj", [[], [1, 2], "pg", 3])
def test_json_rejects_non_object(obj):
    with pytest.raises(ValueError):
        geometry_from_json(obj)


def test_json_rejects_foreign_modulus():
    obj = geometry_to_json(make_pg(2, field_make(4)))
    obj["modulus"] = [1, 0, 1]
    with pytest.raises(ValueError):
        geometry_from_json(obj)
