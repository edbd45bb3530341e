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

Multiplication and inversion go through log/antilog tables built once at
construction time; addition is digit-wise mod p (a plain XOR when p = 2).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DivisionByZero, NotPrimePower, Unsupported

MAX_Q = 16

# FieldElement is a plain integer code in [0, q); a separate wrapper class
# would only slow down the inner loops of the search modules.
FieldElement = int

# Moduli as ascending coefficient tuples (constant term first, leading 1 last).
_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (2, 2, 1),
    16: (1, 1, 0, 0, 1),
}


def _prime_power(q):
    """Return (p, k) with q = p^k for prime p, or None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q and p < q:
            break
        if q % p:
            continue
        k = 0
        m = q
        while m % p == 0:
            m //= p
            k += 1
        return (p, k) if m == 1 else None
    return (q, 1)


def _digits(code, p, k):
    out = []
    for _ in range(k):
        out.append(code % p)
        code //= p
    return out


def _code(digits, p):
    c = 0
    for d in reversed(digits):
        c = c * p + d
    return c


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


def _poly_divmod(num, den, p):
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p) if den[-1] != 1 else 1
    quot = [0] * max(len(num) - dd, 1)
    for deg in range(len(num) - 1, dd - 1, -1):
        c = num[deg]
        if c:
            f = (c * inv_lead) % p
            quot[deg - dd] = f
            for i in range(dd + 1):
                num[deg - dd + i] = (num[deg - dd + i] - f * den[i]) % p
    return quot, num


def is_irreducible(modulus, p):
    """Trial division by every lower-degree polynomial over GF(p)."""
    k = len(modulus) - 1
    if k < 1 or modulus[-1] == 0:
        return False
    for deg in range(1, k):
        for code in range(p ** deg, p ** (deg + 1)):
            den = _digits(code, p, deg + 1)
            _, rem = _poly_divmod(modulus, den, p)
            if not any(rem):
                return False
    return True


class FieldSpec:
    """Immutable description of GF(q) plus its arithmetic tables.

    modulus is empty when k == 1.  The tables are derived from (p, k,
    modulus) and excluded from equality/hashing; field_make caches one
    instance per q anyway.  add_table[a][b] and mul_table[a][b] are a + b
    and a * b; inner loops index these rows directly instead of calling
    add and mul.
    """

    __slots__ = ("p", "k", "q", "modulus", "add_table", "mul_table", "_neg",
                 "_inv", "_exp", "_log")

    def __init__(self, p, k, q, modulus):
        mod = list(modulus) if k > 1 else [0, 1]

        def mul_raw(a, b):
            if k == 1:
                return (a * b) % p
            prod = _poly_mul_mod(_digits(a, p, k), _digits(b, p, k), mod, p)
            return _code(prod, p)

        # Find a multiplicative generator, then build log/antilog tables.
        gen = None
        for g in range(2 if q > 2 else 1, q):
            x, order = g, 1
            while x != 1:
                x = mul_raw(x, g)
                order += 1
            if order == q - 1:
                gen = g
                break
        exp = [0] * (q - 1)
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = mul_raw(x, gen)

        add = [[0] * q for _ in range(q)]
        for a in range(q):
            da = _digits(a, p, k)
            for b in range(q):
                db = _digits(b, p, k)
                add[a][b] = _code([(x + y) % p for x, y in zip(da, db)], p)
        mul = [[0] * q for _ in range(q)]
        for a in range(1, q):
            for b in range(1, q):
                mul[a][b] = exp[(log[a] + log[b]) % (q - 1)]
        neg = [_code([(-d) % p for d in _digits(a, p, k)], p) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            inv[a] = exp[(q - 1 - log[a]) % (q - 1)]

        for name, value in zip(self.__slots__, (p, k, q, modulus, add, mul,
                                                neg, inv, tuple(exp),
                                                tuple(log))):
            object.__setattr__(self, name, value)

    def _key(self):
        return self.p, self.k, self.q, self.modulus

    def __eq__(self, other):
        if type(other) is not FieldSpec:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "FieldSpec(p=%r, k=%r, q=%r, modulus=%r)" % self._key()

    def __reduce__(self):
        return FieldSpec, self._key()

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

    def __delattr__(self, name):
        raise AttributeError("FieldSpec is immutable")

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

    Raises NotPrimePower when q is not a prime power, Unsupported when
    q exceeds the cap of 16.
    """
    pk = _prime_power(q)
    if pk is None:
        raise NotPrimePower("q = %d is not a prime power" % q)
    if q > MAX_Q:
        raise Unsupported("q = %d exceeds the supported cap %d" % (q, MAX_Q))
    p, k = pk
    modulus = _MODULI[q] if k > 1 else ()
    if k > 1 and not is_irreducible(list(modulus), p):
        raise AssertionError("modulus table entry for q=%d is reducible" % q)
    return FieldSpec(p=p, k=k, q=q, modulus=modulus)


def fe_add(f: FieldSpec, a: FieldElement, b: FieldElement) -> FieldElement:
    return f.add(a, b)


def fe_sub(f: FieldSpec, a: FieldElement, b: FieldElement) -> FieldElement:
    return f.sub(a, b)


def fe_mul(f: FieldSpec, a: FieldElement, b: FieldElement) -> FieldElement:
    return f.mul(a, b)


def fe_inv(f: FieldSpec, a: FieldElement) -> FieldElement:
    return f.inv(a)
