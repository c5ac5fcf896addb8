"""The remainder modulo Phi_n as a Python long division.

This is the referee :func:`hypergf.cyclo.reduce_mod_cyclotomic` and
:func:`hypergf.cyclo.cyclotomic_polynomial` are held to: Python ints
throughout, so exact at any size, and no numpy.  With p_1 < ... < p_k
the primes of n and m_i = p_1 ... p_i, the division runs by the monic
Phi_(m_i)(x**(n/m_i)) in turn, subtracting at its nonzero terms only,
one coefficient at a time.  Each divisor has zeta_n as a root and the
last is Phi_n, so the remainder is the one by Phi_n alone.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import prod

from hypergf.ff import prime_factors


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Phi_n, low coefficient first: the product over d | n of
    (x**d - 1)**mu(n/d), one binomial at a time."""
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
        assert ([0] * d + quo)[-d:] == poly[-d:], f"x^{d}-1 does not divide the product"
        poly = quo
    return tuple(poly)


def reduce_mod_cyclotomic(vec, n: int) -> tuple[int, ...]:
    """Remainder of sum(vec[m] * x**m) modulo Phi_n, as a tuple of
    min(len(vec), phi(n)) ints."""
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
