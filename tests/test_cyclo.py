import random
from fractions import Fraction

import numpy as np
import pytest

import _convolve_referee as referee
from hypergf import GroupRingElement, NonRationalValueError, cyclotomic_polynomial
from hypergf import ff
from hypergf.cyclo import (convolve_cyclic, rational_from_vector, rational_values,
                          reduce_mod_cyclotomic)


def Z(n, m):
    """The root of unity zeta**m as a vector of length n."""
    return [int(i == m % n) for i in range(n)]


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
    assert rational_from_vector(Z(4, 0), 4) == 1
    assert rational_from_vector(Z(4, 2), 4) == -1      # zeta_4^2 = -1 via Phi_4 = x^2+1
    assert GroupRingElement(4, Z(4, 2)).canonical() == (Fraction(-1), Fraction(0))


def test_canonical_forms():
    assert GroupRingElement(4, (1, 1, 1, 1)).canonical() == (0, 0)  # full orbit
    assert GroupRingElement(4, (0, 0, 0, 0)).canonical() == (0, 0)
    assert GroupRingElement(4, Z(4, 2)).canonical() == (-1, 0)
    # one value from distinct raw vectors: both are 2*zeta
    assert (GroupRingElement(4, (1, 2, 1, 0)).canonical()
            == GroupRingElement(4, (0, 1, 0, -1)).canonical() == (0, 2))
    # a display value compares by identity, not by value
    assert GroupRingElement(4, (1, 1, 1, 1)) != GroupRingElement(4, (1, 1, 1, 1))


def test_embed():
    z = GroupRingElement(4, Z(4, 1)).embed()
    assert abs(z - 1j) < 1e-12
    assert abs(GroupRingElement(4, (2, 0, 0, 0), denominator=5).embed() - 0.4) < 1e-12
    # embedding is invariant under canonical reduction
    for vec in [(1, 2, 3, 4), (0, 5, 0, -5), (7, 0, 7, 0)]:
        elt = GroupRingElement(4, vec)
        reduced = GroupRingElement(4, [int(c) for c in elt.canonical()] + [0, 0])
        assert abs(elt.embed() - reduced.embed()) < 1e-6


@pytest.mark.parametrize("n", [2, 4, 6, 12, 16])
def test_ring_laws_on_random_triples(n):
    # the vector product is commutative, associative and bilinear, as
    # vectors before any reduction
    rng = random.Random(987123 + n)

    def rand_vec():
        return [rng.randint(-4, 4) for _ in range(n)]

    def add(a, b):
        return [x + y for x, y in zip(a, b)]

    for _ in range(25):
        a, b, c = rand_vec(), rand_vec(), rand_vec()
        assert convolve_cyclic(a, b, n) == convolve_cyclic(b, a, n)
        assert (convolve_cyclic(convolve_cyclic(a, b, n), c, n)
                == convolve_cyclic(a, convolve_cyclic(b, c, n), n))
        assert convolve_cyclic(a, add(b, c), n) == add(convolve_cyclic(a, b, n),
                                                        convolve_cyclic(a, c, n))


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
    half = GroupRingElement(4, (2, 3, 0, 4), denominator=4)
    assert (half.num, half.den) == ((2, 3, 0, 4), 4)
    eighth = GroupRingElement(4, (6, 0, -4, 2), denominator=8)
    assert (eighth.num, eighth.den) == ((3, 0, -2, 1), 4)
    third = GroupRingElement(4, (6, 0, -4, 2), denominator=9)
    assert (third.num, third.den) == ((6, 0, -4, 2), 9)
    zero = GroupRingElement(4, (0, 0, 0, 0), denominator=7)
    assert (zero.num, zero.den) == ((0,) * 4, 1)
    assert GroupRingElement(4, np.array([2, 0, 0, 0]), 2).num == (1, 0, 0, 0)
    for den in (0, -8):
        with pytest.raises(ValueError, match="denominator"):
            GroupRingElement(4, (1, 0, 0, 0), denominator=den)
    with pytest.raises(TypeError):
        GroupRingElement(4, (Fraction(1, 2), 0, 0, 0))


def test_reduce_and_rational_kernel():
    # the integer kernel agrees with the display value
    vec = [3, -1, 4, 1, -5, 9, 2, 6]
    n = 8
    obj = GroupRingElement(n, vec)
    assert tuple(reduce_mod_cyclotomic(vec, n)) == tuple(
        int(c) for c in obj.canonical())
    assert rational_from_vector([7, 0, 0, 0], 4) == 7
    assert rational_from_vector([5], 1) == 5             # Phi_1 = x - 1


def test_to_rational():
    assert rational_from_vector(Z(4, 2), 4) == -1
    assert rational_from_vector([2, 0, 0, 0, 0, 0], 6) == 2
    # 1 + zeta_6^2 + zeta_6^4 = 0
    assert rational_from_vector([1, 0, 1, 0, 1, 0], 6) == 0
    with pytest.raises(NonRationalValueError):
        rational_from_vector(Z(4, 1), 4)
    for r in (3, -11, 0):
        assert rational_from_vector([r] + [0] * 11, 12) == r


def _rational_row(rng, n, bound):
    """A random integer at zeta^0 plus random multiples of the shifts
    x**j Phi_n mod x**n - 1, all of value 0."""
    phi = cyclotomic_polynomial(n)
    row = [0] * n
    row[0] = rng.randint(-bound, bound)
    for j in rng.sample(range(n), min(n, 5)):
        a = rng.randint(-bound, bound) // (4 * len(phi))
        for i, c in enumerate(phi):
            row[(i + j) % n] += a * c
    return row


def _referee(row, n):
    """The value by the long division, or None if it is not rational."""
    can = reduce_mod_cyclotomic(row, n)
    return None if any(can[1:]) else can[0]


# 9 and 8 are prime powers; 12, 30, 210 and 2310 have 2 to 5 primes
@pytest.mark.parametrize("n", [1, 2, 4, 8, 9, 12, 30, 210, 2310])
def test_rational_values_match_the_long_division(n, monkeypatch):
    rng = random.Random(n)
    omega = len(ff.prime_factors(n))
    # entries near 2**62 take Python ints once 2**omega(n) times them leaves int64
    for bound in (9, 1 << 40, (1 << 62) - 1):
        rows = [_rational_row(rng, n, bound) for _ in range(3)]
        block = np.array(rows, dtype=np.int64)
        want = [_referee(row, n) for row in rows]
        wide = int(np.abs(block).max()) << omega >= 1 << 63
        assert wide or bound < 1 << 62 or omega < 2
        for cells in (ff.BLOCK_CELLS, n, 2 * n):            # one block, or several
            monkeypatch.setattr(ff, "BLOCK_CELLS", cells)
            got = rational_values(block, n)
            assert got.tolist() == want and (got.dtype == object) == wide, (n, bound)
        assert [rational_from_vector(row, n) for row in rows] == want
    for rows in ([], [_rational_row(rng, n, 9)]):           # 0 rows and 1 row
        got = rational_values(np.array(rows, dtype=np.int64).reshape(len(rows), n), n)
        assert got.tolist() == [_referee(row, n) for row in rows]
    # random rows: rational iff the long division leaves a constant
    for _ in range(20):
        row = [rng.randint(-3, 3) for _ in range(n)]
        want = _referee(row, n)
        if want is None:
            with pytest.raises(NonRationalValueError):
                rational_values([row], n)
            with pytest.raises(NonRationalValueError):    # anywhere in a block
                rational_values([_rational_row(rng, n, 9), row], n)
        else:
            assert rational_values([row], n).tolist() == [want]
    if n > 2:       # only Q(zeta_1) = Q(zeta_2) = Q has no irrational row
        with pytest.raises(NonRationalValueError):
            rational_values([Z(n, 1)], n)


def test_rational_values_take_integer_blocks_only():
    assert rational_values([[1 << 70, 0, 0, 0]], 4).tolist() == [1 << 70]
    with pytest.raises(TypeError):
        rational_values([[Fraction(1, 2), 0, 0, 0]], 4)
    with pytest.raises(TypeError):
        rational_values(np.zeros((1, 4)), 4)
    with pytest.raises(ValueError, match="block"):
        rational_values([1, 0, 0, 0], 4)
    with pytest.raises(ValueError, match="block"):
        rational_values([[1, 0, 0]], 4)


def test_convolve_cyclic_matches_the_schoolbook_product():
    # small entries take int64, large ones Python ints; full and short vectors
    rng = random.Random(4242)
    edge = (1 << 62) - 1
    for n in (1, 2, 3, 4, 5, 7, 12):
        for lo, hi in [(-9, 9), (-edge, edge), (-(1 << 80), 1 << 80)]:
            for la, lb in [(n, n), (n, 1), (max(1, n - 2), max(1, n // 2))]:
                a = [rng.randint(lo, hi) for _ in range(la)]
                b = [rng.randint(lo, hi) for _ in range(lb)]
                got = convolve_cyclic(a, b, n)
                assert got == referee.convolve_cyclic(a, b, n), (n, lo, la, lb)
                assert all(type(c) is int for c in got)
    assert convolve_cyclic([1, 2], [3, 4], 5) == [3, 10, 8, 0, 0]
    assert convolve_cyclic([1, 2, 3], [1, 1, 1], 1) == [18]
    # (1 + zeta)(1 - zeta) = 1 - zeta^2 = 2 at n = 4
    assert rational_from_vector(convolve_cyclic([1, 1, 0, 0], [1, -1, 0, 0], 4), 4) == 2


def test_convolve_cyclic_big_values_fall_back_exactly():
    # magnitudes chosen to exceed the int64 fast path
    big = 1 << 40
    a = [big, -big, 3]
    b = [big, 2, -1]
    assert convolve_cyclic(a, b, 3) == referee.convolve_cyclic(a, b, 3)
    # either side of the product bound max|a| max|b| n < 2**62
    n, m = 4, 1 << 30
    for a, b in [([m - 1] * n, [m - 1] * n), ([m] * n, [-m] * n),
                 ([1 << 61] * n, [3, 0, 0, 0])]:
        assert convolve_cyclic(a, b, n) == referee.convolve_cyclic(a, b, n)
    assert convolve_cyclic([m] * n, [m] * n, n) == [n * m * m] * n
    k = (1 << 31) - 1        # k * k < 2**62, but a sum of n such products overflows int64
    assert convolve_cyclic([k] * n, [k] * n, n) == [n * k * k] * n
    # one entry at or past 2**62 against zeros stays exact
    for big in (1 << 62, 1 << 63, 1 << 100):
        assert convolve_cyclic([0, big, 0], [0, 0, 0], 3) == [0, 0, 0]
        assert convolve_cyclic([big], [1], 3) == [big, 0, 0]
    assert convolve_cyclic([1 << 70], [3, -1], 1) == [2 << 70]


def test_poly_string():
    assert GroupRingElement(4, Z(4, 1)).poly_string() == "z"
    assert GroupRingElement(4, (1, -1, 0, 0)).poly_string() == "1 - z"
    assert GroupRingElement(4, (0, 0, 0, 0)).poly_string() == "0"
    assert GroupRingElement(4, (1, 0, 0, 3), denominator=2).poly_string() == "1/2 - 3/2*z"
