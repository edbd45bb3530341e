"""The quantitative bound machinery: towers, closed forms, and the recursion.

Everything here is exact.  Logarithm ceilings are computed by comparing
rationals against powers of 2, never through floating point, because the
interesting epsilons are exact powers of 2 sitting right on the boundary.

Tower values switch to a symbolic descriptor once the exact integer would
exceed a configurable digit cap; the descriptor keeps the remaining tower
height and the exact top argument.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import InvalidEpsilon, Unsupported

# Exact values are kept while the pending exponent stays below this many
# bits (= digit cap of 10^4 decimal digits, the package default).
DEFAULT_DIGIT_CAP = 10_000
_BITS_PER_DIGIT = Fraction(10, 3)  # slight overestimate of log2(10) is fine


class BoundValue(namedtuple("BoundValue", "kind value height arg",
                            defaults=(None, None, None))):
    """Either an exact integer or a symbolic tower T_height(arg).

    kind is "exact" (value set) or "tower-symbolic" (height and arg set).
    """

    __slots__ = ()

    def __int__(self):
        if self.kind != "exact":
            raise OverflowError("tower-symbolic value has no exact form here")
        return self.value


def _bits_cap(digit_cap):
    return int(digit_cap * _BITS_PER_DIGIT)


def tower(c, s, digit_cap=DEFAULT_DIGIT_CAP):
    """T_c(s) with T_0(s) = s and T_i(s) = T_{i-1}(2^s).

    Returns an exact BoundValue while the result fits the digit cap,
    otherwise a tower-symbolic descriptor T_height(arg) whose remaining
    height counts the exponentiations still to apply to arg.
    """
    assert c >= 0 and s >= 0
    bits_cap = _bits_cap(digit_cap)
    height, val = c, s
    while height > 0:
        if val > bits_cap:
            return BoundValue(kind="tower-symbolic", height=height, arg=val)
        val = 2 ** val
        height -= 1
    return BoundValue(kind="exact", value=val)


def ceil_log2(r):
    """Smallest integer k with 2^k >= r, for a positive rational r."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("ceil_log2 needs a positive argument")
    k = r.numerator.bit_length() - r.denominator.bit_length()
    while Fraction(2) ** k < r:
        k += 1
    while Fraction(2) ** (k - 1) >= r:
        k -= 1
    return k


def _ceil_minus_log2(a, eps):
    """ceil(a - log2(eps)) for integer a and exact rational eps > 0."""
    return a + ceil_log2(Fraction(1, 1) / eps)


def r_mdhj_binary(m, eps):
    """The binary base bound 2^(m-2) * ceil(1 - log2(eps))."""
    eps = Fraction(eps)
    if eps <= 0:
        raise InvalidEpsilon("eps must be positive")
    assert m >= 2
    return 2 ** (m - 2) * _ceil_minus_log2(1, eps)


def binary_base(m, q, eps):
    """r_mdhj_binary in the (m, q, eps) shape the recursion expects."""
    if q != 2:
        raise ValueError("the closed-form base bound only exists for q = 2")
    return r_mdhj_binary(m, eps)


def r_main2_binary(m, c, eps, digit_cap=DEFAULT_DIGIT_CAP):
    """The binary closed-form tower bound T_c(m + d).

    d = ceil(log2(ceil(2 - log2 eps))), all computed exactly.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise InvalidEpsilon("eps must be positive")
    assert m > c >= 1
    inner = _ceil_minus_log2(2, eps)
    d = ceil_log2(inner)
    return tower(c, m + d, digit_cap=digit_cap)


def _ceil_log(x, q):
    """Least integer k >= 0 with q^k >= x, for a rational x and q >= 2.

    q^k >= 2^k > x at k = bit length of x's numerator minus that of its
    denominator, plus 1; bisection below that bound takes O(log log x)
    exact powers.
    """
    lo, hi = -1, max(0, x.numerator.bit_length()
                     - x.denominator.bit_length() + 1)
    while hi - lo > 1:  # q^lo < x (lo = -1: none yet) and q^hi >= x
        mid = (lo + hi) // 2
        if q ** mid >= x:
            hi = mid
        else:
            lo = mid
    return hi


def smallest_t(f, c, r, eps):
    """Least t >= r such that q^(1-c) (q^r - 1) <= (eps/2)(q^n - q^r) for n > t.

    The left side is constant and the right side increases in n, so the
    condition for all n > t reduces to the single check at n = t + 1,
    that is q^(t+1) >= q^r + q^(1-c) (q^r - 1) (2/eps).  That bound is
    above q^r, so the least such t + 1 is at least r + 1.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise InvalidEpsilon("eps must be positive")
    assert c >= 1 and r >= 1
    q = f.q
    lhs = Fraction(q ** r - 1, q ** (c - 1))
    return _ceil_log(q ** r + lhs * 2 / eps, q) - 1


class RecursionLevel(namedtuple("RecursionLevel", "c m eps r t value")):
    """One level of r_main2_recursive.

    r is the base-bound rank fed to the next level and t the smallest-t
    value at this level; both are None at c = 1.
    """

    __slots__ = ()


class RecursiveBound(namedtuple("RecursiveBound", "value trace")):
    """A BoundValue and its RecursionLevel entries, outermost level first."""

    __slots__ = ()


def r_main2_recursive(m, f, c, eps, base):
    """Evaluate the recursion max(t, R(r, q, c-1, q^(2-c) - q^(1-c))).

    base(m, q, eps) supplies the c = 1 value (for q = 2 use r_mdhj_binary;
    no closed form is available for q > 2, so the caller must inject one).
    Returns the value together with the full call trace.

    Raises Unsupported when the rank m of a level, the top one or a base
    rank r fed down, has more bits than the default digit cap allows:
    the level would build integers of about 2^m.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise InvalidEpsilon("recursive epsilon dropped to a nonpositive value")
    assert m >= 1 and c >= 1
    bits_cap = _bits_cap(DEFAULT_DIGIT_CAP)
    if m > bits_cap:
        raise Unsupported("rank %d at recursion level c=%d is above the "
                          "%d-bit budget of the digit cap" % (m, c, bits_cap))
    q = f.q
    if c == 1:
        v = base(m, q, eps)
        level = RecursionLevel(c=1, m=m, eps=eps, r=None, t=None, value=v)
        return RecursiveBound(value=BoundValue(kind="exact", value=v),
                              trace=(level,))
    r = base(m - c + 1, q, eps / 2)
    if r <= c - 1:
        raise ValueError(
            "recursion is ill-posed here: base bound r=%d does not exceed "
            "the next level c=%d" % (r, c - 1))
    next_eps = Fraction(q) ** (2 - c) - Fraction(q) ** (1 - c)
    # the inner level refuses an r too large before smallest_t builds q^r
    inner = r_main2_recursive(r, f, c - 1, next_eps, base)
    t = smallest_t(f, c, r, eps)
    v = max(t, inner.value.value)
    level = RecursionLevel(c=c, m=m, eps=eps, r=r, t=t, value=v)
    return RecursiveBound(value=BoundValue(kind="exact", value=v),
                          trace=(level,) + inner.trace)
