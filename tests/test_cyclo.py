import random
from fractions import Fraction

import numpy as np
import pytest

from hypergf import GroupRingElement, NonRationalValueError, cyclotomic_polynomial
from hypergf.cyclo import convolve_cyclic, rational_from_vector, reduce_mod_cyclotomic


Z = GroupRingElement.zeta_power


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)   # x^4 - x^2 + 1
    # degree is always Euler phi(n), leading coefficient 1
    for n, deg in [(8, 4), (9, 6), (15, 8), (16, 8), (48, 16)]:
        poly = cyclotomic_polynomial(n)
        assert len(poly) - 1 == deg and poly[-1] == 1
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


@pytest.mark.parametrize("ns", [range(1, 400), (1008, 1020, 2046, 4092, 4095)])
def test_cyclotomic_polynomials_match_sympy(ns):
    sympy = pytest.importorskip("sympy")
    for n in ns:
        expected = sympy.cyclotomic_poly(n, polys=True).all_coeffs()[::-1]
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in expected), n


def test_unit_elements():
    assert Z(4, 0) == 1
    assert Z(4, 2) == -1            # zeta_4^2 = -1 via Phi_4 = x^2+1
    assert Z(4, 5) == Z(4, 1)       # exponents mod n
    assert Z(4, 2).canonical() == (Fraction(-1), Fraction(0))


def test_add_scale_mul():
    n4 = 4
    assert (Z(n4, 1) + Z(n4, 3)).is_zero()            # conjugate pair
    fifth = GroupRingElement.constant(n4, Fraction(1, 5))
    assert Z(n4, 0).scale(Fraction(1, 5)) == fifth
    assert Z(n4, 1) * Z(n4, 3) == 1                   # exponent addition
    one_plus = Z(n4, 0) + Z(n4, 1)
    one_minus = Z(n4, 0) - Z(n4, 1)
    assert one_plus * one_minus == 2                  # 1 - zeta^2 = 2
    assert 3 * Z(n4, 0) == GroupRingElement.constant(n4, 3)


def test_modulus_mismatch_rejected():
    with pytest.raises(ValueError, match="moduli"):
        Z(4, 1) + Z(6, 1)
    with pytest.raises(ValueError, match="moduli"):
        Z(4, 1) * Z(8, 1)


def test_canonical_forms():
    assert GroupRingElement(4, (1, 1, 1, 1)).canonical() == (0, 0)  # full orbit
    assert GroupRingElement.zero(4).canonical() == (0, 0)
    assert Z(4, 2).canonical() == (-1, 0)
    # semantic equality across distinct raw vectors: both are 2*zeta
    assert GroupRingElement(4, (1, 2, 1, 0)) == GroupRingElement(4, (0, 1, 0, -1))
    assert hash(GroupRingElement(4, (1, 1, 1, 1))) == hash(GroupRingElement.zero(4))


def test_to_rational():
    assert Z(4, 2).to_rational() == -1
    assert GroupRingElement.constant(6, Fraction(2, 5)).to_rational() == Fraction(2, 5)
    with pytest.raises(NonRationalValueError):
        Z(4, 1).to_rational()
    for r in (Fraction(3, 7), Fraction(-11, 4), Fraction(0)):
        assert Z(12, 0).scale(r).to_rational() == r


def test_embed():
    z = Z(4, 1).embed()
    assert abs(z - 1j) < 1e-12
    assert abs(GroupRingElement.constant(4, Fraction(2, 5)).embed() - 0.4) < 1e-12
    # embedding is invariant under canonical reduction
    for vec in [(1, 2, 3, 4), (0, 5, 0, -5), (7, 0, 7, 0)]:
        elt = GroupRingElement(4, vec)
        reduced = GroupRingElement(4, elt.canonical() + (0, 0))
        assert abs(elt.embed() - reduced.embed()) < 1e-6


@pytest.mark.parametrize("n", [2, 4, 6, 12, 16])
def test_ring_laws_on_random_triples(n):
    rng = random.Random(987123 + n)

    def rand_elt():
        return GroupRingElement(
            n, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)])

    for _ in range(25):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def _dense_reduce(vec, n):
    # the long division over every coefficient of Phi_n, zeros included
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    work = list(vec)
    for k in range(len(work) - 1, deg - 1, -1):
        c = work[k]
        if c:
            work[k] = 0
            for j in range(deg):
                work[k - deg + j] -= c * phi[j]
    return tuple(work[:deg])


# 1394 = 2*17*41, 2042 = 2*1021 and 2310 = 2*3*5*7*11: dense Phi_n with
# several primes, so every link of the division chain carries terms
@pytest.mark.parametrize("ns", [range(1, 400), (1008, 4092), (1394, 2042, 2310)])
def test_reduction_matches_the_dense_division(ns):
    rng = random.Random(20240 + len(ns))
    for n in ns:
        # small entries mixed with entries beyond int64
        vec = [rng.randint(-b, b) for b in rng.choices((3, 1 << 70), k=n)]
        assert reduce_mod_cyclotomic(vec, n) == _dense_reduce(vec, n), n


def test_reduction_takes_integer_vectors_only():
    assert reduce_mod_cyclotomic(np.array([1, 2, 3, 4], dtype=np.int64), 4) == (-2, -2)
    with pytest.raises(TypeError):
        reduce_mod_cyclotomic([Fraction(1, 2), 0, 0, 0], 4)


def test_one_denominator_in_lowest_terms():
    half = GroupRingElement(4, (Fraction(1, 2), Fraction(3, 4), 0, 1))
    assert (half.num, half.den) == ((2, 3, 0, 4), 4)
    assert GroupRingElement(4, (6, 0, -4, 2), denominator=-8) == GroupRingElement(
        4, (Fraction(-3, 4), 0, Fraction(1, 2), Fraction(-1, 4)))
    third = GroupRingElement(4, (6, 0, -4, 2), denominator=-9)
    assert (third.num, third.den) == ((-6, 0, 4, -2), 9)
    assert (GroupRingElement.zero(4).num, GroupRingElement.zero(4).den) == ((0,) * 4, 1)
    product = half * GroupRingElement(4, (2, 0, 0, 0), denominator=3)
    assert product.den == 6 and product == half.scale(Fraction(2, 3))
    with pytest.raises(ZeroDivisionError):
        GroupRingElement(4, (1, 0, 0, 0), denominator=0)


def test_reduce_and_rational_kernel():
    # the integer kernel agrees with the object layer
    vec = [3, -1, 4, 1, -5, 9, 2, 6]
    n = 8
    obj = GroupRingElement(n, vec)
    assert tuple(reduce_mod_cyclotomic(vec, n)) == tuple(
        int(c) for c in obj.canonical())
    assert rational_from_vector([7, 0, 0, 0], 4) == 7
    with pytest.raises(NonRationalValueError):
        rational_from_vector([0, 1, 0, 0], 4)


def test_convolve_cyclic_matches_object_product():
    rng = random.Random(4242)
    for n in (3, 4, 7, 12):
        a = [rng.randint(-9, 9) for _ in range(n)]
        b = [rng.randint(-9, 9) for _ in range(n)]
        conv = convolve_cyclic(a, b, n)
        assert GroupRingElement(n, conv) == GroupRingElement(n, a) * GroupRingElement(n, b)


def test_convolve_cyclic_big_values_fall_back_exactly():
    # magnitudes chosen to exceed the int64 fast path
    big = 1 << 40
    a = [big, -big, 3]
    b = [big, 2, -1]
    out = convolve_cyclic(a, b, 3)
    assert GroupRingElement(3, out) == GroupRingElement(3, a) * GroupRingElement(3, b)


def test_poly_string():
    assert Z(4, 1).poly_string() == "z"
    assert (Z(4, 0) - Z(4, 1)).poly_string() == "1 - z"
    assert GroupRingElement.zero(4).poly_string() == "0"
