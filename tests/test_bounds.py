from fractions import Fraction
from itertools import product

import pytest

from qgeom import (
    InvalidEpsilon,
    Unsupported,
    bose_burton_value,
    field_make,
    flat_contains_point,
    flat_intersect,
    g_size,
    geometry_from_json,
    geometry_to_json,
    make_pg,
    point_index,
    r_main2_binary,
    r_main2_recursive,
    r_mdhj_binary,
    smallest_t,
    span,
    tower,
)
from qgeom.bounds import BoundValue, _ceil_log, ceil_log2

F2 = field_make(2)


def test_tower_examples():
    assert tower(0, 7) == BoundValue(kind="exact", value=7)
    assert tower(2, 2) == BoundValue(kind="exact", value=16)
    assert tower(1, 5).value == 32
    t = tower(3, 4)
    assert t.kind == "tower-symbolic"
    assert (t.height, t.arg) == (1, 65536)  # the pending 2^65536


def test_tower_recurrence_identity():
    for c in range(1, 4):
        for s in range(0, 5):
            a = tower(c, s)
            b = tower(c - 1, 2 ** s)
            if a.kind == "exact" and b.kind == "exact":
                assert a.value == b.value


def test_tower_strictly_increasing_on_exact_range():
    vals_s = [tower(2, s).value for s in range(5)]
    assert vals_s == sorted(set(vals_s))
    vals_c = [tower(c, 3).value for c in range(4)]
    assert vals_c == sorted(set(vals_c))


def test_ceil_log2_exact_boundaries():
    assert ceil_log2(Fraction(1)) == 0
    assert ceil_log2(Fraction(2)) == 1
    assert ceil_log2(Fraction(3)) == 2
    assert ceil_log2(Fraction(4)) == 2
    assert ceil_log2(Fraction(1, 2)) == -1
    assert ceil_log2(Fraction(5, 4)) == 1


@pytest.mark.parametrize("q", [3, 16])
def test_ceil_log_exact_boundaries(q):
    tiny = Fraction(1, 10 ** 60)
    for k in range(-40, 40):
        power = Fraction(q) ** k
        assert _ceil_log(power, q) == k
        assert _ceil_log(power + tiny, q) == k + 1
        assert _ceil_log(power - tiny, q) == k
    assert _ceil_log(Fraction(1, q + 1), q) == -1
    assert _ceil_log(Fraction(1, q * q + 1), q) == -2
    assert _ceil_log(Fraction(1, 2), q) == 0
    assert _ceil_log(Fraction(q + 1), q) == 2


def test_r_mdhj_binary_examples():
    assert r_mdhj_binary(3, Fraction(1, 2)) == 4
    assert r_mdhj_binary(2, Fraction(1, 4)) == 3
    assert r_mdhj_binary(4, Fraction(1)) == 4


def test_r_main2_binary_examples():
    assert r_main2_binary(3, 1, Fraction(1, 4)).value == 32
    assert r_main2_binary(3, 2, Fraction(1, 4)).value == 2 ** 32
    assert r_main2_binary(4, 1, Fraction(1, 2)).value == 64


@pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2), Fraction(1, 4),
                                 Fraction(1, 3), Fraction(3, 8)])
@pytest.mark.parametrize("m,c", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2)])
def test_r_main2_binary_grid_matches_direct_formula(m, c, eps):
    # recompute d from first principles: smallest integers bounding the logs
    inner = 2 + ceil_log2(1 / eps)
    d = ceil_log2(Fraction(inner))
    expect = tower(c, m + d)
    got = r_main2_binary(m, c, eps)
    assert got == expect


def test_smallest_t_examples():
    assert smallest_t(2, 2, 4, Fraction(1, 2)) == 5
    assert smallest_t(2, 1, 1, Fraction(2)) == 1


def test_smallest_t_definition_holds_at_boundary():
    for q, (c, r, eps) in product(
            [2, 3, 4, 7, 16],
            [(2, 4, Fraction(1, 2)), (3, 3, Fraction(1, 8)),
             (1, 2, Fraction(1)), (2, 1, Fraction(7, 3)),
             (4, 60, Fraction(1, 10 ** 30))]):
        t = smallest_t(q, c, r, eps)
        lhs = Fraction(q ** r - 1, q ** (c - 1))
        assert Fraction(eps, 2) * (q ** (t + 1) - q ** r) >= lhs
        if t > r:
            assert Fraction(eps, 2) * (q ** t - q ** r) < lhs
        assert t >= r


def test_smallest_t_weakly_decreasing_in_eps():
    eps_values = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    ts = [smallest_t(2, 2, 3, e) for e in eps_values]
    assert ts == sorted(ts, reverse=True)


def test_recursive_base_case_delegates():
    trace = r_main2_recursive(5, 1, Fraction(1, 2))
    assert trace[0].value == r_mdhj_binary(5, Fraction(1, 2))
    assert len(trace) == 1 and trace[0].c == 1


def test_recursive_traced_example():
    top, base = r_main2_recursive(3, 2, Fraction(1, 2))
    assert top.r == r_mdhj_binary(2, Fraction(1, 4)) == 3
    assert top.t == smallest_t(2, 2, 3, Fraction(1, 2)) == 4
    assert base.c == 1 and base.m == 3 and base.eps == Fraction(1, 2)
    assert base.value == 4
    assert top.value == max(top.t, base.value) == 4


def test_recursive_refuses_ranks_above_the_digit_cap():
    # -m 10 -c 3 feeds a rank of about 3 * 2^189 to its c = 1 level
    with pytest.raises(Unsupported):
        r_main2_recursive(10, 3, Fraction(1, 2))
    with pytest.raises(Unsupported):
        r_main2_recursive(10 ** 6, 1, Fraction(1, 2))


def test_recursive_eps_stays_positive():
    for q in (2, 3, 4):
        for c in range(2, 6):
            assert Fraction(q) ** (2 - c) - Fraction(q) ** (1 - c) > 0


def test_recursive_trace_internally_consistent():
    for m, c, eps in [(3, 2, Fraction(1, 2)), (4, 2, Fraction(1, 4)),
                      (5, 3, Fraction(1, 2)), (4, 3, Fraction(1, 4))]:
        for lvl in r_main2_recursive(m, c, eps):
            if lvl.c > 1:
                assert lvl.r == r_mdhj_binary(lvl.m - lvl.c + 1, lvl.eps / 2)
                assert lvl.t == smallest_t(2, lvl.c, lvl.r, lvl.eps)


def test_recursive_never_exceeds_closed_form_on_grid():
    for m, c in [(3, 2), (4, 2), (4, 3), (5, 2)]:
        for eps in [Fraction(1), Fraction(1, 2), Fraction(1, 4)]:
            if (m, c, eps) == (4, 3, Fraction(1)):
                continue  # the next level's rank r is not above c - 1
            rec = r_main2_recursive(m, c, eps)[0].value
            closed = r_main2_binary(m, c, eps)
            if closed.kind == "tower-symbolic":
                # symbolic means the exact value overflows the digit cap,
                # so it certainly dominates the (representable) recursion
                assert rec.bit_length() <= closed.arg
            else:
                assert rec <= closed.value, (m, c, eps, rec, closed.value)


def test_invalid_epsilon():
    with pytest.raises(InvalidEpsilon):
        r_mdhj_binary(3, Fraction(0))
    with pytest.raises(InvalidEpsilon):
        smallest_t(2, 2, 3, Fraction(-1, 2))
    with pytest.raises(InvalidEpsilon):
        r_main2_recursive(3, 2, Fraction(0))
    # eps is a density: the bounds take it in (0, 1] only
    for eps in (Fraction(2), Fraction(4), Fraction(5)):
        for call in (lambda: r_mdhj_binary(3, eps),
                     lambda: r_main2_binary(3, 1, eps),
                     lambda: r_main2_recursive(3, 1, eps),
                     lambda: r_main2_recursive(3, 2, eps)):
            with pytest.raises(InvalidEpsilon):
                call()


# Arguments outside each function's domain; the checks raise ValueError,
# not an assert, so they hold under python -O as well.
BAD_ARGUMENTS = {
    "g_size c > n": lambda: g_size(2, F2, 5),
    "g_size c < 0": lambda: g_size(2, F2, -1),
    "bose_burton_value m > n": lambda: bose_burton_value(3, 2, F2),
    "tower c < 0": lambda: tower(-1, 3),
    "tower s < 0": lambda: tower(2, -1),
    "r_mdhj_binary m < 2": lambda: r_mdhj_binary(1, Fraction(1, 2)),
    "r_main2_binary c >= m": lambda: r_main2_binary(3, 3, Fraction(1, 2)),
    "r_main2_binary c < 1": lambda: r_main2_binary(3, 0, Fraction(1, 2)),
    "smallest_t c < 1": lambda: smallest_t(2, 0, 3, Fraction(1, 2)),
    "smallest_t r < 1": lambda: smallest_t(2, 2, 0, Fraction(1, 2)),
    "r_main2_recursive m < 1": lambda: r_main2_recursive(
        0, 1, Fraction(1, 2)),
    "r_main2_recursive c < 1": lambda: r_main2_recursive(
        3, 0, Fraction(1, 2)),
    "r_main2_recursive m = c": lambda: r_main2_recursive(
        2, 2, Fraction(1, 2)),
    "r_main2_recursive m = c = 1": lambda: r_main2_recursive(
        1, 1, Fraction(1, 2)),
    # the top level is in the domain, but its base rank r = 2 is not
    # above the next level's c = 2
    "r_main2_recursive next level r <= c - 1": lambda: r_main2_recursive(
        4, 3, Fraction(1)),
    "flat_intersect across ambients": lambda: flat_intersect(
        span([(1, 0)], 2, F2), span([(1, 0, 0)], 3, F2)),
    "flat_intersect across fields": lambda: flat_intersect(
        span([(1, 0)], 2, F2), span([(1, 0)], 2, field_make(3))),
    "flat_contains_point across ambients": lambda: flat_contains_point(
        span([(1, 0)], 2, F2), (1, 0, 0)),
    "point_index vector longer than n": lambda: point_index((1, 0, 0), 2, F2),
    "point_index vector shorter than n": lambda: point_index((1, 0), 3, F2),
    "ceil_log2 r = 0": lambda: ceil_log2(0),
    "ceil_log2 r < 0": lambda: ceil_log2(-3),
    "geometry_from_json coordinate list of wrong length": lambda:
        geometry_from_json(dict(geometry_to_json(make_pg(3, F2)),
                                points=[[0, 0, 1], [1, 0]])),
}


@pytest.mark.parametrize("call", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
def test_argument_checks_raise_value_error(call):
    with pytest.raises(ValueError):
        call()
