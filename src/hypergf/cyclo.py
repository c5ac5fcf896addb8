"""Exact values in the cyclotomic field of n-th roots of unity.

A value is a vector of n integers, entry m multiplying zeta**m for
zeta = exp(2*pi*i/n).  Raw vectors are not unique representatives: two
are the same number when their remainders modulo the n-th cyclotomic
polynomial Phi_n agree.  The one reduction is an integer long division,
at their nonzero terms, by a chain of multiples of Phi_n that ends in
Phi_n; :func:`rational_from_vector` reads a rational value off it.

:class:`GroupRingElement` holds such a vector over one denominator for
display only: its canonical form, a polynomial string and a floating
:meth:`~GroupRingElement.embed` that is a diagnostic cross-check, never
a source of truth.
"""

from __future__ import annotations

import cmath
import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

import numpy as np

from .ff import prime_factors


class NonRationalValueError(ValueError):
    """A group-ring element expected to be rational is not."""


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low first.

    Computed as the product over d | n of (x**d - 1)**mu(n/d): every
    factor multiplies or exactly divides by a binomial, O(n) each.
    """
    if n < 1:
        raise ValueError("cyclotomic polynomial index must be >= 1")
    ups, downs = [], []
    for d in range(1, n + 1):
        if n % d == 0:
            primes = prime_factors(n // d)
            if prod(primes) == n // d:          # mu(n/d) = (-1)**len(primes)
                (downs if len(primes) % 2 else ups).append(d)
    poly = [1]
    for d in ups:
        # times x**d - 1
        poly = [0] * d + poly
        for i in range(len(poly) - d):
            poly[i] -= poly[i + d]
    for d in downs:
        # divided by x**d - 1, from the low end: a_i = quo_(i-d) - quo_i
        quo = []
        for i in range(len(poly) - d):
            quo.append((quo[i - d] if i >= d else 0) - poly[i])
        top = ([0] * d + quo)[-d:]
        assert top == poly[-d:], f"x^{d}-1 does not divide the product"
        poly = quo
    return tuple(poly)


def reduce_mod_cyclotomic(vec, n: int) -> tuple[int, ...]:
    """Remainder of sum(vec[m] * x**m) modulo Phi_n, as a tuple of phi(n)
    ints.  The entries must be integers (Python or numpy).

    With p_1 < ... < p_k the primes of n and m_i = p_1 ... p_i, the long
    division runs by the monic Phi_(m_i)(x**(n/m_i)) in turn, subtracting
    at its nonzero terms only.  Each divisor has zeta_n as a root, so is a
    multiple of Phi_n, and the last is Phi_n itself: the remainder is the
    one by Phi_n alone, while a dense Phi_n (n = 2p) meets only the few
    coefficients the earlier divisions leave."""
    work = list(map(operator.index, vec))
    m = 1
    for p in prime_factors(n) or [1]:                   # n = 1: Phi_1 alone
        m *= p
        step = n // m
        phi = cyclotomic_polynomial(m)
        deg = (len(phi) - 1) * step
        terms = [(j * step, c) for j, c in enumerate(phi[:-1]) if c]
        for k in range(len(work) - 1, deg - 1, -1):
            c = work[k]
            if c:
                base = k - deg
                for j, pj in terms:
                    work[base + j] -= c * pj
        del work[deg:]
    return tuple(work)


def rational_from_vector(vec, n: int) -> Fraction:
    """Exact rational value of an integer group-ring vector, if it has one."""
    can = reduce_mod_cyclotomic(vec, n)
    if any(can[1:]):
        raise NonRationalValueError(
            f"canonical form has degree > 0 modulo Phi_{n}: {can}")
    return Fraction(can[0])


def convolve_cyclic(a, b, n: int) -> list[int]:
    """Cyclic convolution of two integer vectors of length at most n: their
    product as values.  Nothing in the package multiplies values; the
    sum over characters that the tests hold the series to does.

    One ``np.convolve``, folded mod n: in int64 while every entry and every
    sum of n products stays below 2**62, else over Python ints."""
    max_a = max(map(abs, a), default=0)
    max_b = max(map(abs, b), default=0)
    fits_int64 = max(max_a, max_b) < (1 << 62) and max_a * max_b * n < (1 << 62)
    dtype = np.int64 if fits_int64 else object
    full = np.convolve(np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype))
    padded = np.concatenate([full, np.zeros(-len(full) % n, dtype=dtype)])
    return padded.reshape(-1, n).sum(axis=0).tolist()


class GroupRingElement:
    """An exact element of the rational group ring over Z_n, held for
    display: integer coefficients ``num`` of zeta**0 .. zeta**(n-1) over
    one positive denominator ``den``, in lowest terms.

    It does no arithmetic and compares by identity; compare values by
    :meth:`canonical`.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs, denominator: int = 1):
        """The element sum(coeffs[m] * zeta**m) / denominator, for integer
        coefficients and a positive integer denominator."""
        if n < 1:
            raise ValueError("group ring modulus must be >= 1")
        num = tuple(map(operator.index, coeffs))
        if len(num) != n:
            raise ValueError(f"expected {n} coefficients, got {len(num)}")
        if denominator < 1:
            raise ValueError(f"group-ring denominator must be >= 1, got {denominator}")
        g = gcd(denominator, *num)
        self.n = n
        self.num = tuple(c // g for c in num)
        self.den = denominator // g

    # -- extraction ----------------------------------------------------------

    def canonical(self) -> tuple[Fraction, ...]:
        """Canonical form: remainder mod Phi_n, a tuple of phi(n) rationals."""
        return tuple(Fraction(c, self.den) for c in reduce_mod_cyclotomic(self.num, self.n))

    def embed(self) -> complex:
        """Complex image under zeta -> exp(2*pi*i/n), at double precision.
        Diagnostic only; never a source of truth."""
        return sum(
            c / self.den * cmath.exp(2j * cmath.pi * m / self.n)
            for m, c in enumerate(self.num) if c
        )

    # -- display ---------------------------------------------------------------

    def __repr__(self):
        return f"GroupRingElement(n={self.n}, {self.poly_string()})"

    def poly_string(self) -> str:
        """Canonical form rendered as a polynomial in z (a primitive n-th
        root of unity)."""
        parts = []
        for m, c in enumerate(self.canonical()):
            if not c:
                continue
            if m == 0:
                parts.append(str(c))
            else:
                mono = "z" if m == 1 else f"z^{m}"
                parts.append(f"{c}*{mono}" if abs(c) != 1 else
                             (mono if c > 0 else f"-{mono}"))
        if not parts:
            return "0"
        joined = parts[0]
        for t in parts[1:]:
            joined += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return joined
