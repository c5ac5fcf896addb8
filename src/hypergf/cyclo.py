"""Exact arithmetic with sums of n-th roots of unity.

Values live in the rational group ring over Z_n: a vector of n exact
rationals, entry m multiplying zeta**m for zeta = exp(2*pi*i/n).  Raw
vectors are not unique representatives; semantic equality means equal
remainders modulo the n-th cyclotomic polynomial.  Canonicalization is
paid only at comparison/extraction points, so bulk accumulation stays
integer vector arithmetic.

The floating :meth:`GroupRingElement.embed` is a diagnostic cross-check
only; every result that matters is extracted exactly.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import prod

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


def reduce_mod_cyclotomic(vec, n: int) -> tuple:
    """Remainder of sum(vec[m] * x**m) modulo Phi_n, as a tuple of length
    phi(n).  Works unchanged for int or Fraction coefficients since
    Phi_n is monic."""
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


def rational_from_vector(vec, n: int) -> Fraction:
    """Exact rational value of a group-ring vector, if it has one."""
    can = reduce_mod_cyclotomic(vec, n)
    if any(can[1:]):
        raise NonRationalValueError(
            f"canonical form has degree > 0 modulo Phi_{n}: {can}")
    return Fraction(can[0]) if can else Fraction(0)


def convolve_cyclic(a, b, n: int) -> list[int]:
    """Cyclic convolution of two integer vectors of length n."""
    max_a = max(map(abs, a), default=0)
    max_b = max(map(abs, b), default=0)
    fits_int64 = (
        n > 0
        and max(max_a, max_b) < (1 << 62)
        and max_a * max_b * n < (1 << 62)
    )
    if fits_int64:
        full = np.convolve(np.asarray(a, dtype=np.int64),
                           np.asarray(b, dtype=np.int64))
        out = np.zeros(n, dtype=np.int64)
        for start in range(0, len(full), n):
            chunk = full[start:start + n]
            out[: len(chunk)] += chunk
        return out.tolist()
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[(i + j) % n] += ai * bj
    return out


class GroupRingElement:
    """An exact element of the rational group ring over Z_n.

    Supports +, -, scalar and ring multiplication; equality and hashing
    go through the canonical form, so two raw vectors representing the
    same algebraic number compare equal.
    """

    __slots__ = ("n", "coeffs", "_canonical")

    def __init__(self, n: int, coeffs):
        if n < 1:
            raise ValueError("group ring modulus must be >= 1")
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != n:
            raise ValueError(f"expected {n} coefficients, got {len(cs)}")
        self.n = n
        self.coeffs = cs
        self._canonical = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> GroupRingElement:
        return cls(n, [0] * n)

    @classmethod
    def zeta_power(cls, n: int, m: int) -> GroupRingElement:
        """The root of unity zeta**m (exponent reduced mod n)."""
        coeffs = [0] * n
        coeffs[m % n] = 1
        return cls(n, coeffs)

    @classmethod
    def constant(cls, n: int, value) -> GroupRingElement:
        coeffs = [Fraction(0)] * n
        coeffs[0] = Fraction(value)
        return cls(n, coeffs)

    @classmethod
    def from_int_vector(cls, n: int, vec, denominator: int = 1) -> GroupRingElement:
        return cls(n, [Fraction(c, denominator) for c in vec])

    # -- ring operations ----------------------------------------------------

    def _check(self, other: GroupRingElement):
        if self.n != other.n:
            raise ValueError(f"mixed group-ring moduli {self.n} and {other.n}")

    def __add__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._check(other)
        return GroupRingElement(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._check(other)
        return GroupRingElement(self.n, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return GroupRingElement(self.n, [-a for a in self.coeffs])

    def scale(self, s) -> GroupRingElement:
        s = Fraction(s)
        return GroupRingElement(self.n, [s * a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, GroupRingElement):
            self._check(other)
            n = self.n
            out = [Fraction(0)] * n
            for i, ai in enumerate(self.coeffs):
                if ai:
                    for j, bj in enumerate(other.coeffs):
                        if bj:
                            out[(i + j) % n] += ai * bj
            return GroupRingElement(n, out)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    # -- extraction ----------------------------------------------------------

    def canonical(self) -> tuple[Fraction, ...]:
        """Canonical form: remainder mod Phi_n, a tuple of phi(n) rationals."""
        if self._canonical is None:
            self._canonical = tuple(
                Fraction(c) for c in reduce_mod_cyclotomic(self.coeffs, self.n))
        return self._canonical

    def is_zero(self) -> bool:
        return not any(self.canonical())

    def to_rational(self) -> Fraction:
        """The exact rational value; raises NonRationalValueError if the
        canonical form is not constant."""
        can = self.canonical()
        if any(can[1:]):
            raise NonRationalValueError(
                f"group-ring element is not rational: canonical form {can}")
        return can[0] if can else Fraction(0)

    def embed(self) -> complex:
        """Complex image under zeta -> exp(2*pi*i/n), at double precision.
        Diagnostic only; never a source of truth."""
        return sum(
            float(c) * cmath.exp(2j * cmath.pi * m / self.n)
            for m, c in enumerate(self.coeffs) if c
        )

    # -- comparison / display -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GroupRingElement):
            if self.n != other.n:
                return False
            return self.canonical() == other.canonical()
        if isinstance(other, (int, Fraction)):
            can = self.canonical()
            return not any(can[1:]) and (can[0] if can else 0) == other
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.canonical()))

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
