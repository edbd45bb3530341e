"""Exact GF(q) arithmetic for prime powers q <= 16.

Elements are integers in [0, q) whose base-p digits are the coefficients of
a polynomial over GF(p), constant term in the least significant digit.  For
prime q the code is simply the residue mod p.  One irreducible modulus per
extension field is frozen here so that element codes, point orderings and
serialized files are reproducible across runs:

    GF(4)  : x^2 + x + 1
    GF(8)  : x^3 + x + 1
    GF(9)  : x^2 + 2x + 2
    GF(16) : x^4 + x + 1

field_make reads p and k off q and this table, which every non-prime
prime power up to 16 is in: p is q's least divisor above 1, k the
degree of q's modulus or 1, and q is a prime power iff p^k = q.

FieldSpec builds its addition and multiplication tables once, straight
from these digits: addition is digit-wise mod p (a plain XOR when p = 2)
and multiplication is the polynomial product reduced mod the modulus.
Negation and inversion are read off the table rows.  The digits go
through _digits and _number, the package's one base-b codec, which
projective also ranks and unranks points with.
"""

from functools import lru_cache

from .errors import DivisionByZero, NotPrimePower, Unsupported

MAX_Q = 16

# Moduli as ascending coefficient tuples (constant term first, leading 1 last).
_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (2, 2, 1),
    16: (1, 1, 0, 0, 1),
}


def _number(digits, q):
    """The integer whose base-q digits, most significant first, are digits;
    the inverse of _digits.  A long tail is read in halves, as _digits
    writes it: about two multiplications of the result's size, not one per
    digit."""
    t = len(digits)
    if t > 64:
        hi = t - t // 2
        return _number(digits[:hi], q) * q ** (t // 2) + \
            _number(digits[hi:], q)
    i = 0
    for x in digits:
        i = i * q + x
    return i


def _digits(i, q, t):
    """The t base-q digits of i < q^t, most significant first.  A long i
    is split in halves: about two divisions of i's size, not t of them."""
    if t > 64:
        hi, lo = divmod(i, q ** (t // 2))
        return _digits(hi, q, t - t // 2) + _digits(lo, q, t // 2)
    tail = [0] * t
    for k in range(t - 1, -1, -1):
        i, tail[k] = divmod(i, q)
    return tuple(tail)


def _poly_mul_mod(a, b, modulus, p):
    """Multiply coefficient lists a, b over GF(p) and reduce mod `modulus`."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    k = len(modulus) - 1
    for deg in range(len(prod) - 1, k - 1, -1):
        c = prod[deg]
        if c:
            prod[deg] = 0
            for i in range(k + 1):
                prod[deg - k + i] = (prod[deg - k + i] - c * modulus[i]) % p
    return prod[:k] + [0] * (k - len(prod))


class _Value:
    """An immutable value: equality, hashing, repr and pickling read the
    fields named in _KEY, which are also its constructor's arguments."""

    __slots__ = ()

    def _key(self):
        return tuple(getattr(self, name) for name in self._KEY)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % item for item in zip(self._KEY, self._key())))

    def __reduce__(self):
        return type(self), self._key()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)


class FieldSpec(_Value):
    """Immutable description of GF(q) plus its arithmetic tables.

    modulus is empty when k == 1.  The tables are derived from (p, k,
    modulus) and excluded from equality/hashing; field_make caches one
    instance per q anyway.  add_table[a][b] and mul_table[a][b] are a + b
    and a * b; inner loops index these rows directly instead of calling
    add and mul.  shift[c][x][y] = x + c * y, so one map updates a whole
    vector; unit[c] scales a vector led by c to a leading 1.
    """

    __slots__ = ("p", "k", "q", "modulus", "add_table", "mul_table", "shift",
                 "unit", "_neg", "_inv")
    _KEY = __slots__[:4]

    def __init__(self, p, k, q, modulus):
        digits = [_digits(a, p, k) for a in range(q)]
        mod = list(modulus) if k > 1 else [0, 1]
        add = [[_number([(x + y) % p for x, y in zip(da, db)], p)
                for db in digits] for da in digits]
        # _poly_mul_mod takes and gives the constant term first
        poly = [d[::-1] for d in digits]
        mul = [[_number(_poly_mul_mod(da, db, mod, p)[::-1], p) for db in poly]
               for da in poly]
        # a nonzero row without a 1 is a zero divisor: the modulus factors
        if any(1 not in row for row in mul[1:]):
            raise ValueError("modulus %r is reducible over GF(%d)"
                             % (tuple(modulus), p))
        neg = [row.index(0) for row in add]
        inv = [0] + [row.index(1) for row in mul[1:]]

        shift = [[[add[x][y] for y in row] for x in range(q)] for row in mul]
        unit = [mul[0]] + [mul[inv[c]] for c in range(1, q)]

        for name, value in zip(self.__slots__, (p, k, q, modulus, add, mul,
                                                shift, unit, neg, inv)):
            object.__setattr__(self, name, value)

    def add(self, a, b):
        return self.add_table[a][b]

    def sub(self, a, b):
        return self.add_table[a][self._neg[b]]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0 in GF(%d)" % self.q)
        return self._inv[a]


@lru_cache(maxsize=None)
def field_make(q: int) -> FieldSpec:
    """Construct GF(q) with the frozen canonical modulus.

    Raises Unsupported when q exceeds the cap of 16, before q is factored,
    so no q read from a file or argv costs a trial division.  Below it, p
    is q's least divisor above 1 and k the degree of q's frozen modulus,
    or 1 when q has none; NotPrimePower is raised unless p^k = q.
    """
    if q > MAX_Q:
        raise Unsupported("q = %d exceeds the supported cap %d" % (q, MAX_Q))
    modulus = _MODULI.get(q, ())
    k = max(len(modulus) - 1, 1)
    p = next((d for d in range(2, q + 1) if q % d == 0), None)
    if p is None or p ** k != q:
        raise NotPrimePower("q = %d is not a prime power" % q)
    return FieldSpec(p=p, k=k, q=q, modulus=modulus)

