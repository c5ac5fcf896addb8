import random
from fractions import Fraction

import numpy as np
import pytest

import _convolve_referee as referee
import _reduce_referee as reduce_referee
from hypergf import NonRationalValueError, cyclotomic_polynomial
from hypergf import ff
from hypergf.cli import _render
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
    # 2*3*5*...*17: its products pass the int64 bound, refused, not wrapped
    with pytest.raises(OverflowError):
        cyclotomic_polynomial(510510)


@pytest.mark.parametrize("ns", [range(1, 400), (1008, 1020, 2046, 4092, 4095)])
def test_cyclotomic_polynomials_match_sympy(ns):
    sympy = pytest.importorskip("sympy")
    for n in ns:
        expected = sympy.cyclotomic_poly(n, polys=True).all_coeffs()[::-1]
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in expected), n


def test_unit_elements():
    assert rational_from_vector(Z(4, 0), 4) == 1
    assert rational_from_vector(Z(4, 2), 4) == -1      # zeta_4^2 = -1 via Phi_4 = x^2+1
    assert reduce_mod_cyclotomic(Z(4, 2), 4) == (-1, 0)


def test_canonical_forms():
    assert reduce_mod_cyclotomic((1, 1, 1, 1), 4) == (0, 0)  # full orbit
    assert reduce_mod_cyclotomic((0, 0, 0, 0), 4) == (0, 0)
    assert reduce_mod_cyclotomic(Z(4, 2), 4) == (-1, 0)
    # one value from distinct raw vectors: both are 2*zeta
    assert reduce_mod_cyclotomic((1, 2, 1, 0), 4) == reduce_mod_cyclotomic((0, 1, 0, -1), 4) == (0, 2)


def _embedding(vec, n, den=1):
    re, im = _render(vec, n, den)["embedding"]
    return complex(re, im)


def test_embed():
    assert abs(_embedding(Z(4, 1), 4) - 1j) < 1e-12
    assert abs(_embedding((2, 0, 0, 0), 4, den=5) - 0.4) < 1e-12
    # embedding is invariant under canonical reduction
    for vec in [(1, 2, 3, 4), (0, 5, 0, -5), (7, 0, 7, 0)]:
        reduced = list(reduce_mod_cyclotomic(vec, 4)) + [0, 0]
        assert abs(_embedding(vec, 4) - _embedding(reduced, 4)) < 1e-6


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
    edge = (1 << 62) - 1
    for n in ns:
        # small entries mixed with entries beyond int64
        vec = [rng.randint(-b, b) for b in rng.choices((3, 1 << 70), k=n)]
        assert reduce_mod_cyclotomic(vec, n) == _dense_reduce(vec, n), n
        # entries that start in int64, where the division passes 2**62
        vec = [rng.choice((-edge, edge)) for _ in range(n)]
        assert reduce_mod_cyclotomic(np.array(vec), n) == _dense_reduce(vec, n), n
    # edge (x - x^4 - x^5) = edge (-1 + 3x) mod x^2 - x + 1: past 2**63, not wrapped
    got = reduce_mod_cyclotomic(np.array([0, edge, 0, 0, -edge, -edge]), 6)
    assert got == _dense_reduce([0, edge, 0, 0, -edge, -edge], 6) == (-edge, 3 * edge)


def test_reduction_matches_the_chain_referee():
    # the Python long division, at sizes the dense one is too slow for: 8038
    # takes Phi_8038 of degree 4018, 65520 six primes; and vectors shorter
    # and longer than n, whose remainders have min(len, phi(n)) entries
    rng = random.Random(8038)
    for n in (8038, 65520):
        for bound in (40, 1 << 70):
            vec = [rng.randint(-bound, bound) for _ in range(n)]
            assert reduce_mod_cyclotomic(vec, n) == reduce_referee.reduce_mod_cyclotomic(vec, n), n
    for n in (1, 2, 6, 12, 30, 105):
        for size in (1, n // 2 + 1, n, 2 * n + 3):
            vec = [rng.randint(-9, 9) for _ in range(size)]
            got = reduce_mod_cyclotomic(vec, n)
            assert got == reduce_referee.reduce_mod_cyclotomic(vec, n), (n, size)
            assert all(type(c) is int for c in got)
    for n in (1, 2, 12, 105, 8038, 65520):
        assert cyclotomic_polynomial(n) == reduce_referee.cyclotomic_polynomial(n), n


def test_reduction_takes_integer_vectors_only():
    assert reduce_mod_cyclotomic(np.array([1, 2, 3, 4], dtype=np.int64), 4) == (-2, -2)
    assert reduce_mod_cyclotomic([], 4) == reduce_referee.reduce_mod_cyclotomic([], 4) == ()
    with pytest.raises(TypeError):
        reduce_mod_cyclotomic([Fraction(1, 2), 0, 0, 0], 4)


def test_one_denominator_in_lowest_terms():
    # a vector over a denominator renders as its value in lowest terms
    assert _render((2, 3, 0, 4), 4, 4)["poly"] == "1/2 - 1/4*z"
    assert _render((6, 0, -4, 2), 4, 8) == _render((3, 0, -2, 1), 4, 4)
    assert _render((6, 0, -4, 2), 4, 9)["poly"] == "10/9 - 2/9*z"
    assert _render((0, 0, 0, 0), 4, 7) == {"poly": "0", "embedding": [0, 0]}
    assert _render(np.array([2, 0, 0, 0]), 4, 2) == _render((1, 0, 0, 0), 4, 1)
    with pytest.raises(TypeError):
        _render((Fraction(1, 2), 0, 0, 0), 4, 1)


def test_reduce_and_rational_kernel():
    vec = [3, -1, 4, 1, -5, 9, 2, 6]
    n = 8
    assert reduce_mod_cyclotomic(vec, n) == (8, -10, 2, -5)      # Phi_8 = x^4 + 1
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
    assert _render(Z(4, 1), 4, 1)["poly"] == "z"
    assert _render((1, -1, 0, 0), 4, 1)["poly"] == "1 - z"
    assert _render((0, 0, 0, 0), 4, 1)["poly"] == "0"
    assert _render((1, 0, 0, 3), 4, 2)["poly"] == "1/2 - 3/2*z"
    assert _render((0, -1, 0, 0, 0, 2), 6, 1)["poly"] == "2 - 3*z"     # zeta^5 = 1 - zeta
    assert _render((0, 0, 3), 12, 1)["poly"] == "3*z^2"
