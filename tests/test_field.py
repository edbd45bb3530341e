import pytest

from qgeom import DivisionByZero, FieldSpec, NotPrimePower, Unsupported
from qgeom import field_make
from qgeom.field import _MODULI

SUPPORTED = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_field_make_prime():
    f = field_make(2)
    assert (f.p, f.k, f.modulus) == (2, 1, ())


def test_field_make_gf9():
    f = field_make(9)
    assert (f.p, f.k) == (3, 2)
    assert f.modulus == (2, 2, 1)  # x^2 + 2x + 2
    assert repr(f) == "FieldSpec(p=3, k=2, q=9, modulus=(2, 2, 1))"


def test_field_make_rejects_non_prime_power():
    for q in (-1, 0, 1, 6, 10, 12, 14, 15):
        with pytest.raises(NotPrimePower):
            field_make(q)


# (p, k) with q = p^k, for every q in SUPPORTED
FACTORS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
           9: (3, 2), 11: (11, 1), 13: (13, 1), 16: (2, 4)}


@pytest.mark.parametrize("q", SUPPORTED)
def test_field_make_factors_every_supported_q(q):
    f = field_make(q)
    assert (f.p, f.k, f.q) == FACTORS[q] + (q,)
    assert f.modulus == _MODULI.get(q, ())


def test_field_make_rejects_large():
    with pytest.raises(Unsupported):
        field_make(17)
    with pytest.raises(Unsupported):
        field_make(25)
    # refused before q is factored: 2^61 - 1 is a prime, and 18 is not a
    # prime power
    with pytest.raises(Unsupported):
        field_make(2 ** 61 - 1)
    with pytest.raises(Unsupported):
        field_make(18)


def test_moduli_are_irreducible():
    # a reducible modulus leaves a zero divisor: a nonzero row of the
    # built multiplication table without a 1
    for q, mod in _MODULI.items():
        f = field_make(q)
        assert f.modulus == mod
        assert all(1 in row for row in f.mul_table[1:])
    # and a reducible control: x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError):
        FieldSpec(2, 2, 4, (1, 0, 1))


@pytest.mark.parametrize("q", sorted(_MODULI))
def test_element_codes_follow_the_frozen_modulus(q):
    # x is the code p and x^(k-1) the code p^(k-1); their product x^k is
    # minus the low coefficients of the modulus (GF(9): x * x = x + 1, code 4)
    f = field_make(q)
    p, k, mod = f.p, f.k, _MODULI[q]
    expect = sum((-c) % p * p ** i for i, c in enumerate(mod[:-1]))
    assert f.mul(p, p ** (k - 1)) == expect
    if q == 9:
        assert expect == 4


def _polynomial_tables(q):
    """GF(q)'s addition and multiplication tables, rebuilt from its frozen
    modulus by plain polynomial arithmetic over GF(p): code a stands for
    sum_i c_i x^i with c_i the base-p digits of a, c_0 the least
    significant."""
    p, k = FACTORS[q]
    mod = _MODULI.get(q)

    def coeffs(a):
        return [a // p ** i % p for i in range(k)]

    def code(c):
        return sum(x % p * p ** i for i, x in enumerate(c))

    def times(a, b):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(coeffs(a)):
            for j, y in enumerate(coeffs(b)):
                prod[i + j] += x * y
        # x^k = -(mod_0 + mod_1 x + ... + mod_(k-1) x^(k-1)), top degree first
        for d in range(2 * k - 2, k - 1, -1):
            c, prod[d] = prod[d], 0
            for i in range(k):
                prod[d - k + i] -= c * mod[i]
        return code(prod[:k])

    add = [[code(map(sum, zip(coeffs(a), coeffs(b)))) for b in range(q)]
           for a in range(q)]
    mul = [[times(a, b) for b in range(q)] for a in range(q)]
    return add, mul


@pytest.mark.parametrize("q", SUPPORTED)
def test_every_table_entry_follows_the_frozen_modulus(q):
    # element codes fix the coordinates of every geometry file, so every
    # entry is pinned, not a sample
    f = field_make(q)
    add, mul = _polynomial_tables(q)
    assert f.add_table == add
    assert f.mul_table == mul
    for a in range(q):
        assert add[a][f.neg(a)] == 0
        if a:
            assert mul[a][f.inv(a)] == 1
        for c in range(q):
            assert f.shift[c][a] == [add[a][mul[c][y]] for y in range(q)]


def test_gf2_addition_is_xor():
    f = field_make(2)
    assert f.add(1, 1) == 0


def test_gf4_multiplication_reduces_by_modulus():
    # codes: 2 = x, 3 = x + 1; x * x = x^2 = x + 1 mod x^2+x+1
    f = field_make(4)
    assert f.mul(2, 2) == 3


def test_gf5_inverse():
    f = field_make(5)
    assert f.inv(3) == 2


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        field_make(7).inv(0)


@pytest.mark.parametrize("q", SUPPORTED)
def test_field_axioms_exhaustive(q):
    f = field_make(q)
    elems = range(q)
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(f.add(a, b), b) == a
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", SUPPORTED)
def test_frobenius_is_additive(q):
    f = field_make(q)

    def frob(a):
        # a^p by repeated multiplication
        r = a
        for _ in range(f.p - 1):
            r = f.mul(r, a)
        return r

    for a in range(q):
        for b in range(q):
            assert frob(f.add(a, b)) == f.add(frob(a), frob(b))


@pytest.mark.parametrize("q", SUPPORTED)
def test_log_antilog_tables_consistent(q):
    # log/antilog tables built here from a generator of the multiplicative
    # group: the library's multiplication and inverse must agree with them
    f = field_make(q)
    for g in range(1, q):
        exp = [1]  # exp[i] = g^i
        for _ in range(q - 2):
            exp.append(f.mul(exp[-1], g))
        if len(set(exp)) == q - 1:
            break
    assert len(set(exp)) == q - 1
    log = {x: i for i, x in enumerate(exp)}
    for a in range(1, q):
        assert exp[log[a]] == a
        assert f.inv(a) == exp[-log[a] % (q - 1)]
        for b in range(1, q):
            assert f.mul(a, b) == exp[(log[a] + log[b]) % (q - 1)]
