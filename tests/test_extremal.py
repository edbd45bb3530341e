import ast
import gc
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from conftest import brute_force_ex, sparse_flat_by_scan, subset_geometry

import qgeom.embed
import qgeom.extremal
import qgeom.geometry
from qgeom import (
    Budget,
    EmptyGeometry,
    FieldMismatch,
    Geometry,
    bose_burton_value,
    complement_geometry,
    contains,
    density_table,
    ex_exact,
    field_make,
    find_sparse_flat,
    flat_points,
    g_size,
    is_free,
    make_ag,
    make_g,
    make_pg,
    pg_size,
    point_index,
)
from qgeom.embed import EmbedSearcher
from qgeom.projective import iter_flats

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(4)
F5 = field_make(5)


def _points(f, vecs):
    n = len(vecs[0])
    return Geometry(field=f, ambient=n,
                    points=tuple(point_index(v, n, f) for v in vecs))


# neither PG, AG nor G: three non-collinear points, and a frame of PG(2, 3)
TRIANGLE = _points(F2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
FRAME = _points(F3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])


def test_is_free_examples():
    assert is_free(make_g(3, F2, 1), make_pg(2, F2))
    assert not is_free(make_pg(3, F2), make_pg(2, F2))
    empty = Geometry(field=F2, ambient=3, points=())
    assert is_free(empty, make_pg(2, F2))


def test_is_free_field_mismatch():
    with pytest.raises(FieldMismatch):
        is_free(make_pg(2, F2), make_pg(2, F3))


def test_whole_space_operations_share_the_listing_limit(monkeypatch):
    # PG(21, 2) has 2^22 - 1 points; rank 10^12 is refused before q^n
    line = make_pg(2, F2)
    with pytest.raises(ValueError, match="above the limit"):
        ex_exact(line, 22)
    with pytest.raises(ValueError, match="above the limit"):
        ex_exact(line, 10 ** 12)
    with pytest.raises(ValueError, match="above the limit"):
        find_sparse_flat(Geometry(field=F2, ambient=10 ** 12, points=()), 2, 1)
    # the whole range is checked before the first search runs, also for
    # ranks below 1
    calls = []
    monkeypatch.setattr(qgeom.extremal, "ex_exact",
                        lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(qgeom.extremal, "critical_exponent",
                        lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError, match="above the limit"):
        density_table(line, range(2, 10 ** 11))
    for n_range in (range(0, 3), range(-2, 0)):
        with pytest.raises(ValueError, match="at least 1"):
            density_table(line, n_range)
    assert calls == []


def test_ex_exact_examples():
    assert ex_exact(make_pg(2, F2), 3).value == 4
    assert ex_exact(make_ag(2, F3), 2).value == 2
    assert ex_exact(make_ag(2, F2), 2).value == 1
    # a one-point H rules out point 0 and a two-point H rules out point 1;
    # the search stops there, without trying sets that avoid those points
    for n in (1, 2, 3):
        one = ex_exact(_points(F3, [(1, 0)]), n)
        assert (one.value, one.status, one.witness.points) == (0, "exact", ())
        two = ex_exact(_points(F3, [(1, 0), (0, 1)]), n)
        assert (two.value, two.status, two.witness.points) == \
            (1, "exact", (0,))


# ex(PG(1,2); 4), ex(PG(2,2); 4), ex(AG(1,3); 3) and ex(PG(1,3); 3).  A
# search that loses the point-pair symmetry visits more nodes; without it
# the counts are 714, 487, 795 and 416.
PINNED_NODES = [
    (make_pg(2, F2), 4, 8, 178),
    (make_pg(3, F2), 4, 12, 335),
    (make_ag(2, F3), 3, 4, 97),
    (make_pg(2, F3), 3, 9, 192),
]


@pytest.mark.parametrize("H, n, value, nodes", PINNED_NODES)
def test_ex_exact_nodes_are_pinned(H, n, value, nodes):
    res = ex_exact(H, n)
    assert (res.value, res.status, res.nodes) == (value, "exact", nodes)


def test_ex_exact_needs_no_whole_space_set_up():
    # nothing is built over the 1093 points of PG(6, 3) before the first node
    start = time.monotonic()
    res = ex_exact(make_pg(2, F3), 7, budget=Budget(node_cap=10))
    assert time.monotonic() - start < 5
    assert res.status == "lower-bound"
    assert is_free(res.witness, make_pg(2, F3))


def test_ex_exact_counts_only_visited_nodes():
    # a search still pending when the budget runs out visits no more nodes
    for cap in (1, 10, 200):
        res = ex_exact(make_pg(2, F3), 7, budget=Budget(node_cap=cap))
        assert res.status == "lower-bound"
        assert res.nodes == cap


def test_ex_exact_depth_is_not_bound_by_the_call_stack():
    # PG(9, 2) has 1023 points, and the include branch goes one level
    # deeper per point; the result is the recursive search's
    res = ex_exact(make_pg(2, F2), 10, budget=Budget(node_cap=3000))
    assert (res.value, res.status, res.nodes) == (512, "lower-bound", 3000)


def test_ex_exact_witness_contract():
    H = make_pg(2, F2)
    res = ex_exact(H, 3)
    assert res.status == "exact"
    assert len(res.witness) == res.value
    assert contains(res.witness, H) is None


BB_GRID = [(2, 2, 2), (2, 3, 2), (2, 4, 2), (3, 3, 2), (3, 4, 2), (2, 2, 3)]


@pytest.mark.parametrize("m,n,q", BB_GRID)
def test_bose_burton_equality(m, n, q):
    f = field_make(q)
    assert ex_exact(make_pg(m, f), n).value == bose_burton_value(m, n, f)


def test_bose_burton_values():
    assert bose_burton_value(2, 3, F2) == 4
    assert bose_burton_value(3, 4, F2) == 12
    assert bose_burton_value(2, 2, F3) == 3


@pytest.mark.parametrize("H,n", [
    (make_pg(2, F2), 2), (make_pg(2, F2), 3), (make_pg(2, F2), 4),
    (make_pg(3, F2), 3), (make_pg(2, F3), 2),
    (make_ag(2, F3), 2), (make_ag(2, F3), 3),
    (TRIANGLE, 3), (TRIANGLE, 4), (FRAME, 3),
    (make_pg(2, F4), 2), (make_ag(2, F4), 2), (make_pg(2, F5), 2),
])
def test_branch_and_bound_matches_naive_oracle(H, n):
    assert ex_exact(H, n).value == brute_force_ex(H, n)


def _record_searches(monkeypatch):
    # every call of the search core, as (whether it ran under find's own
    # rule table, its pinned prefix); the searcher's own self-searches run
    # before that table exists
    searches = []
    search = EmbedSearcher._search

    def spy(self, host, ambient, rules, top=(), cap=None):
        searches.append((rules is getattr(self, "_rules", None), top))
        return search(self, host, ambient, rules, top, cap)

    monkeypatch.setattr(EmbedSearcher, "_search", spy)
    return searches


@pytest.mark.parametrize("H, n", [
    (make_pg(2, F2), 3), (make_pg(2, F2), 4), (make_ag(2, F3), 3),
    (make_pg(2, F3), 3),
])
def test_anchored_freeness_tests_match_naive_oracle(H, n, monkeypatch):
    # H is point-transitive, so each freeness test fixes b0's image to the
    # new point, greater than every point of the set and pinned ahead of
    # it, in one search under find's own rule
    expect = brute_force_ex(H, n)
    calls = []
    searches = _record_searches(monkeypatch)
    through = EmbedSearcher.find_through

    def spy(self, host, ambient, p):
        searches.clear()
        found = through(self, host, ambient, p)
        calls.append(ambient == n and p not in host
                     and all(i < p for i in host)
                     and searches == [(True, ((p, -1),))])
        return found

    monkeypatch.setattr(EmbedSearcher, "find_through", spy)
    res = ex_exact(H, n)
    assert (res.value, res.status) == (expect, "exact")
    assert len(calls) > 1 and all(calls)


LINE_AND_POINT = _points(F2, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
LINE_AND_POINT_3 = _points(F3, [(1, 0, 0), (1, 1, 0), (1, 2, 0), (0, 1, 0),
                                (0, 0, 1)])
TRIANGLE_AND_POINT = _points(F2, [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                  (1, 0, 1)])


@pytest.mark.parametrize("H, n", [
    (LINE_AND_POINT, 3), (LINE_AND_POINT, 4), (LINE_AND_POINT_3, 3),
    (TRIANGLE_AND_POINT, 3), (TRIANGLE_AND_POINT, 4),
])
def test_unpinned_freeness_tests_only_find_copies_through_the_new_point(
        H, n, monkeypatch):
    # H is not point-transitive, so no one guest point pinned to the new
    # point finds every copy: each freeness test runs one pinned search per
    # orbit representative.  Every search pins its searcher's b0 to the new
    # point, outside the set and ahead of it, under find's own rule; every
    # hit maps b0 to it and no other guest point there, and each hit is
    # the first embedding with b0 there, the one the search without any
    # rule returns
    expect = brute_force_ex(H, n)
    hits, pinned = [], set()
    searches = _record_searches(monkeypatch)
    through = EmbedSearcher.find_through

    def spy(self, host, ambient, p):
        assert ambient == n and p not in host and all(i < p for i in host)
        pinned.add(self.basis[0])
        searches.clear()
        found = through(self, host, ambient, p)
        assert searches == [(True, ((p, -1),))]
        hit = self._search(host, ambient, self._rules, ((p, -1),))[0]
        first = self._search(host, ambient, self._no_rules, ((p, -1),))[0]
        assert found == (hit is not None)
        assert hit == first
        if hit is not None:
            positions = hit[1]
            hits.append(positions[self.basis[0]] == -1 and
                        sum(k < 0 for k in positions) == 1)
        return found

    monkeypatch.setattr(EmbedSearcher, "find_through", spy)
    res = ex_exact(H, n)
    assert (res.value, res.status) == (expect, "exact")
    assert len(hits) > 1 and all(hits)
    assert len(pinned) > 1
    assert pinned == {s.basis[0] for s in qgeom.embed.through_searchers(H)}


# ex(triangle and point; 5) in a new process: the guest is not
# point-transitive, so each of the 23035 nodes' freeness tests runs one
# pinned search per orbit representative
TRIANGLE_AND_POINT_5 = """
import json, time
from qgeom import Geometry, ex_exact, field_make, point_index
f = field_make(2)
vecs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)]
H = Geometry(field=f, ambient=3,
             points=tuple(point_index(v, 3, f) for v in vecs))
t = time.perf_counter()
r = ex_exact(H, 5)
print(json.dumps([time.perf_counter() - t, r.value, r.status, r.nodes]))
"""


def test_ex_of_triangle_and_point_at_rank_5_within_3_s():
    r = subprocess.run([sys.executable, "-c", TRIANGLE_AND_POINT_5],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    t, *answer = json.loads(r.stdout)
    assert answer == [16, "exact", 23035] and t < 3


@pytest.mark.parametrize("H, n, budget, expect", [
    # point-transitive: each freeness test pins b0 to the new point
    (make_pg(2, F2), 4, None, (8, "exact", 178)),
    # not point-transitive: one pinned search per orbit representative
    (LINE_AND_POINT, 4, None, None),
    # stopped by the node cap with part of the stack still to unwind
    (make_pg(2, F2), 5, Budget(node_cap=200), (None, "lower-bound", 200)),
])
def test_freeness_tests_get_the_kept_host_map(H, n, budget, expect,
                                              monkeypatch):
    # at every freeness test the map ex_exact hands the search core is the
    # one find would build for the chosen points, in index order, and the
    # new point lies outside it, after every chosen point
    calls = []
    through = EmbedSearcher.find_through
    total = pg_size(n, H.field)

    def spy(self, host, ambient, p):
        assert ambient == n
        order = list(host)
        assert order == sorted(set(order))
        assert all(0 <= i < total for i in order) and 0 <= p < total
        assert list(host.items()) == [(i, k) for k, i in enumerate(order)]
        calls.append(all(i < p for i in order))
        return through(self, host, ambient, p)

    monkeypatch.setattr(EmbedSearcher, "find_through", spy)
    res = ex_exact(H, n, budget)
    assert len(calls) > 2 and all(calls)
    assert is_free(res.witness, H)
    if expect is not None:
        value, status, nodes = expect
        assert (res.status, res.nodes) == (status, nodes)
        assert value is None or res.value == value


@pytest.mark.parametrize("H, n", [(make_pg(2, F2), 4), (LINE_AND_POINT, 4)])
def test_a_failed_freeness_test_leaves_the_host_map_alone(H, n,
                                                         monkeypatch):
    # the pinned point is never in the host map, and the map loses a
    # point only when ex_exact undoes an include whose freeness test
    # passed: no popitem follows a test that found a copy.  A freeness
    # test is the find_through of each searcher in turn, the one with b0
    # at guest point 0 first, up to the first hit, so the tests that pass
    # are the first searcher's calls less the hits.  An exact run undoes
    # every include, so it calls popitem on the map, which a profile hook
    # sees, once per freeness test that passed.
    maps, counts = [], {"tests": 0, "hits": 0, "pops": 0}
    through = EmbedSearcher.find_through

    def spy(self, host, ambient, p):
        assert p not in host
        maps.append(host)
        found = through(self, host, ambient, p)
        counts["tests"] += self.basis[0] == 0
        counts["hits"] += found
        return found

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", "") == "popitem" \
                and maps and arg.__self__ is maps[0]:
            counts["pops"] += 1

    monkeypatch.setattr(EmbedSearcher, "find_through", spy)
    sys.setprofile(profile)
    try:
        res = ex_exact(H, n)
    finally:
        sys.setprofile(None)
    assert res.status == "exact"
    assert all(host is maps[0] for host in maps)
    assert counts["hits"] > 0 and counts["pops"] > 0
    assert counts["pops"] == counts["tests"] - counts["hits"]


def test_freeness_tests_build_no_witness(monkeypatch):
    def refuse(self, *args):
        raise RuntimeError("a freeness test built a witness")

    monkeypatch.setattr(EmbedSearcher, "_witness", refuse)
    res = ex_exact(make_pg(2, F2), 4)
    assert (res.value, res.status, res.nodes) == (8, "exact", 178)


def test_ex_exact_computes_one_vector_per_node(monkeypatch):
    # no node recomputes a vector: the searcher computes each point's
    # vector once, the first time a freeness test tries it, so at most one
    # point_vec per point index the freeness tests reach, whatever the
    # size of the chosen set.  Only the searcher's set-up calls point_vec
    # through Geometry.point_vecs; the final re-check reuses the vectors.
    calls = [0]
    real = qgeom.geometry.point_vec

    def counted(*args):
        calls[0] += 1
        return real(*args)

    tried = []
    real_vec = qgeom.embed.point_vec

    def counted_vec(i, n, f):
        tried.append((i, n))
        return real_vec(i, n, f)

    reached = [-1]
    search = EmbedSearcher._search

    def spy(self, host, host_ambient, rules, top=(), cap=None):
        if host_ambient == 5:  # not a self-search of H into itself
            reached[0] = max(reached[0], *host, *(p for p, _ in top))
        return search(self, host, host_ambient, rules, top, cap)

    monkeypatch.setattr(qgeom.geometry, "point_vec", counted)
    monkeypatch.setattr(qgeom.embed, "point_vec", counted_vec)
    monkeypatch.setattr(EmbedSearcher, "_search", spy)
    H = make_pg(2, F2)
    EmbedSearcher(H)
    set_up, calls[0] = calls[0], 0
    res = ex_exact(H, 5)
    assert (res.value, res.status, res.nodes) == (16, "exact", 23006)
    assert calls[0] <= set_up
    assert len(set(tried)) == len(tried)
    assert all(n == 5 and i <= reached[0] for i, n in tried)
    assert 0 < len(tried) <= reached[0] + 1


def test_searches_leave_nothing_for_the_cyclic_collector():
    # every freeness test, and find, frees what it made by reference
    # counting; the collector is off so that it cannot hide a cycle
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        ex_exact(make_pg(2, F2), 4)
        contains(make_pg(3, F2), make_pg(2, F2))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_importing_extremal_loads_no_fractions():
    # only density_table uses Fraction, so it imports fractions itself
    code = "import sys, qgeom.extremal; print('fractions' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=30)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


@pytest.mark.parametrize("module, loads", [
    ("bounds", ["bounds"]),
    ("field", ["field"]),
    ("projective", ["field", "projective"]),
])
def test_importing_a_low_layer_loads_only_its_own_modules(module, loads):
    # each CLI subcommand imports what it uses when it runs, so a bounds
    # job loads only bounds, and the codec projective takes from field
    # costs no job a module it would not load anyway
    code = ("import sys, qgeom.%s; print(' '.join(sorted(m for m in "
            "sys.modules if m.split('.')[0] == 'qgeom')))" % module)
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=30)
    assert r.returncode == 0, r.stderr
    expect = ["qgeom", "qgeom.errors"] + ["qgeom." + m for m in loads]
    assert r.stdout.split() == sorted(expect)


def test_src_has_no_assert_statements():
    # contract checks must hold under python -O, which strips asserts
    src = os.path.dirname(qgeom.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read(), name)
            assert not any(isinstance(node, ast.Assert)
                           for node in ast.walk(tree)), name


BAD_BUDGETS = [Budget(time_cap=float("nan")), Budget(time_cap=-1),
               Budget(time_cap=-0.5, node_cap=5), Budget(node_cap=-1)]


@pytest.mark.parametrize("budget", BAD_BUDGETS)
def test_negative_or_nan_caps_raise_before_any_search(budget, monkeypatch):
    # no comparison with NaN is true, so a NaN time cap would be no cap;
    # a negative cap would return an empty "lower-bound" after 0 nodes
    def no_search(*args):
        raise AssertionError("searched with a bad budget")

    monkeypatch.setattr(qgeom.embed, "EmbedSearcher", no_search)
    monkeypatch.setattr(qgeom.extremal, "critical_exponent", no_search)
    with pytest.raises(ValueError):
        ex_exact(make_pg(2, F2), 3, budget)
    with pytest.raises(ValueError):
        density_table(make_pg(2, F2), range(2, 4), budget)


def test_zero_and_infinite_caps_are_valid():
    H = make_pg(2, F2)
    res = ex_exact(H, 3, Budget(node_cap=0))
    assert (res.value, res.status, res.nodes) == (0, "lower-bound", 0)
    res = ex_exact(H, 3, Budget(time_cap=float("inf")))
    assert (res.value, res.status) == (4, "exact")
    assert ex_exact(H, 3, Budget(time_cap=0)).value <= 4
    rows = density_table(H, range(2, 4), Budget(time_cap=float("inf")))
    assert [r.status for r in rows] == ["exact", "exact"]


def test_lower_bound_sandwich_and_monotonicity():
    from qgeom import critical_exponent, pg_size

    for H in [make_pg(2, F2), make_pg(3, F2), make_ag(2, F3)]:
        c = critical_exponent(H)
        prev = 0
        for n in range(2, 5):
            if pg_size(n, H.field) > 15:
                break
            v = ex_exact(H, n).value
            assert g_size(n, H.field, c - 1) <= v <= pg_size(n, H.field)
            assert v >= prev
            prev = v


def test_budget_exhaustion_degrades_to_lower_bound():
    res = ex_exact(make_pg(2, F2), 4, budget=Budget(node_cap=20))
    assert res.status == "lower-bound"
    assert res.value <= 8
    assert is_free(res.witness, make_pg(2, F2))


def test_argument_checks_raise_value_error():
    with pytest.raises(ValueError):
        ex_exact(make_pg(2, F2), 0)
    with pytest.raises(ValueError):
        find_sparse_flat(make_pg(3, F2), 5, 1)
    with pytest.raises(ValueError):
        find_sparse_flat(make_pg(3, F2), 2, 2)


def test_ex_exact_rejects_empty_forbidden_geometry():
    # the empty geometry lies in every set, so no set is free of it
    with pytest.raises(EmptyGeometry):
        ex_exact(Geometry(field=F2, ambient=2, points=()), 2)


def test_ex_exact_witness_check_raises_without_assert(monkeypatch):
    # an explicit check, not an assert statement: it also fires under -O.
    # The re-check is the searcher's plain find, not a freeness test.
    monkeypatch.setattr(EmbedSearcher, "find", lambda self, *args: args)
    with pytest.raises(AssertionError, match="re-validation"):
        ex_exact(make_pg(2, F2), 2)


def test_find_sparse_flat_examples():
    one_pt = Geometry(field=F2, ambient=3, points=(0,))
    # any line meets a one-point G in rank at most 1, so the answer is the
    # first line of iter_flats, whether or not it holds the point
    F = find_sparse_flat(one_pt, 2, 1)
    assert F == sparse_flat_by_scan(one_pt, 2, 1)
    assert F.rank == 2

    assert find_sparse_flat(make_pg(3, F2), 2, 1) is None

    line_pts = tuple(sorted(flat_points(next(iter_flats(3, F2, 2)))))
    line_geom = Geometry(field=F2, ambient=3, points=line_pts)
    F = find_sparse_flat(line_geom, 2, 1)
    assert F is not None
    hit = [i for i in flat_points(F) if i in line_geom.point_set]
    assert len(hit) == 1


@pytest.mark.parametrize("q, n", [(2, 4), (2, 5), (3, 3), (3, 4), (4, 3)])
def test_find_sparse_flat_matches_the_scan_without_the_cut(q, n):
    # random G of any density, and the dense G where the count decides: the
    # whole space, and the space minus one point fewer than, or exactly,
    # the pg_size(m) - pg_size(m-c) points a sparse flat needs off G
    f = field_make(q)
    rng = random.Random(10 * q + n)
    total = pg_size(n, f)
    for m in range(2, n + 1):
        for c in range(1, m):
            need = pg_size(m, f) - pg_size(m - c, f)
            sizes = [total, total - need + 1, total - need]
            for size in sizes + [rng.randint(0, total) for _ in range(6)]:
                G = subset_geometry(f, n, rng.sample(range(total), size))
                assert find_sparse_flat(G, m, c) == \
                    sparse_flat_by_scan(G, m, c), (G.points, m, c)


def test_duality_on_random_pg32_subsets():
    # sparse-flat search and complementary containment agree (rank 4 host)
    rng = random.Random(7)
    all_idx = list(range(15))
    cases = [(2, 1), (3, 1), (3, 2)]
    for _ in range(25):
        size = rng.randint(0, 15)
        T = tuple(sorted(rng.sample(all_idx, size)))
        G = Geometry(field=F2, ambient=4, points=T)
        comp = complement_geometry(G)
        for m, c in cases:
            sparse = find_sparse_flat(G, m, c) is not None
            embed = contains(comp, make_g(m, F2, c)) is not None
            assert sparse == embed, (T, m, c)


def test_density_table_fano_forbidden():
    rows = density_table(make_pg(2, F2), range(2, 5))
    assert [(r.n, r.ex, r.total) for r in rows] == \
        [(2, 2, 3), (3, 4, 7), (4, 8, 15)]
    assert [r.density for r in rows] == \
        [Fraction(2, 3), Fraction(4, 7), Fraction(8, 15)]
    assert all(r.limit == Fraction(1, 2) for r in rows)
    assert all(r.status == "exact" for r in rows)


def test_density_table_cap_sets():
    rows = density_table(make_ag(2, F3), range(2, 4))
    assert [r.density for r in rows] == [Fraction(1, 2), Fraction(4, 13)]
    assert all(r.limit == 0 for r in rows)


def test_density_table_empty_range():
    assert density_table(make_pg(2, F2), range(3, 3)) == []
