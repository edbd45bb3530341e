"""The quantitative bound machinery: towers, closed forms, and the recursion.

Everything here is exact.  Logarithm ceilings are computed by comparing
rationals against powers of 2, never through floating point, because the
interesting epsilons are exact powers of 2 sitting right on the boundary.

Tower values switch to a symbolic descriptor once the exact integer would
exceed the digit cap, DIGIT_CAP decimal digits; the descriptor keeps the
remaining tower height and the exact top argument.

r_mdhj_binary, r_main2_binary and r_main2_recursive bound a density
threshold eps and raise InvalidEpsilon unless 0 < eps <= 1.  All three work
over q = 2, the only field with a closed-form base bound.  The last two
need m > c >= 1 and raise ValueError outside it, checked before eps.
"""

from collections import namedtuple
from fractions import Fraction

from .errors import InvalidEpsilon, Unsupported

# Exact values are kept while the pending exponent stays below _BITS_CAP
# bits, DIGIT_CAP decimal digits at a slight overestimate of log2(10).
DIGIT_CAP = 10_000
_BITS_CAP = DIGIT_CAP * 10 // 3


class BoundValue(namedtuple("BoundValue", "kind value height arg",
                            defaults=(None, None, None))):
    """Either an exact integer or a symbolic tower T_height(arg).

    kind is "exact" (value set) or "tower-symbolic" (height and arg set).
    """

    __slots__ = ()


def tower(c, s):
    """T_c(s) with T_0(s) = s and T_i(s) = T_{i-1}(2^s).

    Returns an exact BoundValue while the result fits the digit cap,
    otherwise a tower-symbolic descriptor T_height(arg) whose remaining
    height counts the exponentiations still to apply to arg.
    """
    if c < 0 or s < 0:
        raise ValueError("tower needs c >= 0 and s >= 0")
    height, val = c, s
    while height > 0:
        if val > _BITS_CAP:
            return BoundValue(kind="tower-symbolic", height=height, arg=val)
        val = 2 ** val
        height -= 1
    return BoundValue(kind="exact", value=val)


def _ceil_log(x, q):
    """Least integer k, negative ones included, with q^k >= x, for a
    positive Fraction x and an integer q >= 2.

    With bn and bd the bit lengths of x's numerator and denominator,
    2^(bn-bd-1) < x < 2^(bn-bd+1), so q^k < x at k = min(-1, bn-bd-1) and
    q^k >= x at k = max(0, bn-bd+1); bisection between the two takes
    O(log log x) exact powers.
    """
    d = x.numerator.bit_length() - x.denominator.bit_length()
    lo, hi = min(-1, d - 1), max(0, d + 1)
    while hi - lo > 1:  # q^lo < x <= q^hi
        mid = (lo + hi) // 2
        if Fraction(q) ** mid >= x:
            hi = mid
        else:
            lo = mid
    return hi


def ceil_log2(r):
    """Smallest integer k with 2^k >= r, for a positive rational r."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("ceil_log2 needs a positive argument")
    return _ceil_log(r, 2)


def _eps(eps):
    """eps as a Fraction; InvalidEpsilon unless 0 < eps <= 1."""
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise InvalidEpsilon("eps must lie in (0, 1]")
    return eps


def r_mdhj_binary(m, eps):
    """The binary base bound 2^(m-2) * ceil(1 - log2(eps))."""
    eps = _eps(eps)
    if m < 2:
        raise ValueError("r_mdhj_binary needs m >= 2")
    return 2 ** (m - 2) * (1 + ceil_log2(1 / eps))


def r_main2_binary(m, c, eps):
    """The binary closed-form tower bound T_c(m + d).

    d = ceil(log2(ceil(2 - log2 eps))), all computed exactly.
    """
    if not m > c >= 1:
        raise ValueError("r_main2_binary needs m > c >= 1")
    eps = _eps(eps)
    inner = 2 + ceil_log2(1 / eps)
    d = ceil_log2(inner)
    return tower(c, m + d)


def smallest_t(q, c, r, eps):
    """Least t >= r such that q^(1-c) (q^r - 1) <= (eps/2)(q^n - q^r) for n > t.

    The left side is constant and the right side increases in n, so the
    condition for all n > t reduces to the single check at n = t + 1,
    that is q^(t+1) >= q^r + q^(1-c) (q^r - 1) (2/eps).  That bound is
    above q^r, so the least such t + 1 is at least r + 1.  q is the
    integer field order.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise InvalidEpsilon("eps must be positive")
    if c < 1 or r < 1:
        raise ValueError("smallest_t needs c >= 1 and r >= 1")
    lhs = Fraction(q ** r - 1, q ** (c - 1))
    return _ceil_log(q ** r + lhs * 2 / eps, q) - 1


class RecursionLevel(namedtuple("RecursionLevel", "c m eps r t value")):
    """One level of r_main2_recursive.

    r is the base-bound rank fed to the next level and t the smallest-t
    value at this level; both are None at c = 1.
    """

    __slots__ = ()


def r_main2_recursive(m, c, eps):
    """Evaluate the binary recursion max(t, R(r, c-1, 2^(2-c) - 2^(1-c))).

    At c = 1 the value is r_mdhj_binary(m, eps); above it r is
    r_mdhj_binary(m - c + 1, eps/2) and t is smallest_t(2, c, r, eps).
    Returns the trace, one RecursionLevel per level, the top level first;
    the bound is trace[0].value.

    Every level needs m > c >= 1, so a ValueError also comes from a level
    below whose base rank r is not above c - 1.  Raises Unsupported when
    the rank m of a level, the top one or a base rank r fed down, has more
    bits than the digit cap allows: the level would build integers of
    about 2^m.
    """
    if not m > c >= 1:
        raise ValueError("r_main2_recursive needs m > c >= 1 at every "
                         "level, not m=%d, c=%d" % (m, c))
    eps = _eps(eps)
    if m > _BITS_CAP:
        raise Unsupported("rank %d at recursion level c=%d is above the "
                          "%d-bit budget of the digit cap" % (m, c, _BITS_CAP))
    if c == 1:
        v = r_mdhj_binary(m, eps)
        return (RecursionLevel(c=1, m=m, eps=eps, r=None, t=None, value=v),)
    r = r_mdhj_binary(m - c + 1, eps / 2)
    # 2^(2-c) - 2^(1-c); the inner level refuses an r too large before
    # smallest_t builds 2^r
    inner = r_main2_recursive(r, c - 1, Fraction(1, 2 ** (c - 1)))
    t = smallest_t(2, c, r, eps)
    v = max(t, inner[0].value)
    return (RecursionLevel(c=c, m=m, eps=eps, r=r, t=t, value=v),) + inner
