"""Exact values in the cyclotomic field of n-th roots of unity.

A value is a vector of n integers, entry m multiplying zeta**m for
zeta = exp(2*pi*i/n), over a denominator its caller keeps apart.  Raw
vectors are not unique representatives: two are the same number when
their remainders modulo the n-th cyclotomic polynomial Phi_n agree.  The
one reduction is an integer long division by a chain of multiples of
Phi_n that ends in Phi_n, a numpy row step per top row; it gives the
canonical form (:func:`reduce_mod_cyclotomic`).

Rationality is read a whole block of vectors at a time, in the power
basis of Z[zeta_n] as the tensor product of the Z[zeta_Q] over the prime
powers Q = p**e exactly dividing n (Washington, ch. 2): entry m goes to
the index (m mod Q) on each Q's axis, and each axis, viewed as a
(p, Q/p) array, loses its last row by subtracting it from the others,
since Phi_Q(x) = 1 + x**(Q/p) + ... + x**((p-1)Q/p).  What is left is
the power basis of Z[zeta_Q], and a value is rational iff every
coordinate but the origin is 0 (:func:`rational_values`).  Each fold at
most doubles an entry, so the block stays in int64 while its largest
entry times 2**omega(n) (omega(n) the number of primes of n) is below
2**63, and is held as Python ints otherwise.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import prod

import numpy as np

from .ff import prime_factors, row_blocks


class NonRationalValueError(ValueError):
    """A value expected to be rational is not."""


def _integers(values) -> np.ndarray:
    """``values`` as an integer array: numpy integers as they are, Python
    ints as objects; TypeError for any other entry."""
    values = np.asarray(values)
    if values.dtype == object:
        return np.frompyfunc(operator.index, 1, 1)(values)
    if values.dtype.kind not in "iu" and values.size:
        raise TypeError(f"expected integer entries, got {values.dtype}")
    return values


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low first.

    Computed as the product over the squarefree n/d of (x**d - 1)**mu(n/d):
    every factor multiplies by, or exactly divides by, a binomial in a few
    numpy steps, a quotient being a negated cumsum down the (rows, d)
    reshape.  Exact in int64 while the length times the 1-norm stays below
    2**62 (a product at most doubles the 1-norm, and every quotient
    coefficient is a partial sum of the dividend's), as at every n <= 2**16;
    OverflowError beyond that bound.
    """
    if n < 1:
        raise ValueError("cyclotomic polynomial index must be >= 1")
    primes = prime_factors(n)
    # (d, mu(n/d) = -1) for n/d the product of k distinct primes of n
    factors = [(n // prod(sub), k % 2 == 1)
               for k in range(len(primes) + 1) for sub in combinations(primes, k)]
    poly, norm = np.ones(1, dtype=np.int64), 1
    for d, divide in sorted(factors, key=lambda f: f[1]):   # every product first
        if len(poly) * norm >= 1 << 62:
            raise OverflowError(f"Phi_{n} is past the int64 bound")
        size = len(poly)
        if not divide:
            # times x**d - 1
            pad = np.zeros(d, dtype=poly.dtype)
            poly = np.concatenate([pad, poly]) - np.concatenate([poly, pad])
        else:
            # divided by x**d - 1, from the low end: quo_i = quo_(i-d) - poly_i
            rows = np.concatenate([poly, np.zeros(-size % d, dtype=poly.dtype)])
            quo = -np.cumsum(rows.reshape(-1, d), axis=0).reshape(-1)
            assert not quo[size - d:].any(), f"x^{d}-1 does not divide the product"
            poly = quo[:size - d]
        norm = int(np.abs(poly).sum())
    return tuple(poly.tolist())


def reduce_mod_cyclotomic(vec, n: int) -> tuple[int, ...]:
    """Remainder of sum(vec[m] * x**m) modulo Phi_n, as a tuple of
    min(len(vec), phi(n)) ints.  The entries must be integers (Python or
    numpy).

    With p_1 < ... < p_k the primes of n and m_i = p_1 ... p_i, the long
    division runs by the monic Phi_(m_i)(x**s), s = n/m_i, in turn.  Each
    divisor has zeta_n as a root, so is a multiple of Phi_n, and the last is
    Phi_n itself: the remainder is the one by Phi_n alone, while a dense
    Phi_n (n = 2p) meets only the few coefficients the earlier divisions
    leave.  A divisor in x**s divides each residue class mod s on its own,
    so the vector is held as a (rows, s) array and each top row, from the
    last, takes one numpy step at the nonzero terms of Phi_(m_i).  Exact:
    int64 while a running bound on every entry (the largest input entry,
    plus max|Phi_(m_i)| times the largest entry of each top row divided
    out) stays below 2**62, else Python ints."""
    work = _integers(vec)
    size = len(work)
    bound = max(int(work.max(initial=0)), -int(work.min(initial=0)))
    work = work.astype(np.int64 if bound < 1 << 62 else object)
    m = 1
    for p in prime_factors(n) or [1]:                   # n = 1: Phi_1 alone
        m *= p
        step = n // m
        phi = np.array(cyclotomic_polynomial(m))
        deg = len(phi) - 1
        terms = np.flatnonzero(phi[:-1])
        coef = phi[terms, None]
        height = int(np.abs(phi).max())
        rows = np.concatenate([work, np.zeros(-len(work) % step, dtype=work.dtype)])
        rows = rows.reshape(-1, step)
        for i in range(len(rows) - 1, deg - 1, -1):
            top = max(int(rows[i].max()), -int(rows[i].min()))
            if top:
                bound += height * top
                if bound >= 1 << 62 and rows.dtype != object:
                    rows = rows.astype(object)
                rows[i - deg + terms] -= coef * rows[i]
        work = rows[:deg].reshape(-1)
    return tuple(work[:size].tolist())


@lru_cache(maxsize=None)
def _crt_axes(n: int) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The (p, Q) of each prime power Q exactly dividing n, and the order
    of the exponents m that lays a length-n vector out as a C-order array
    with one axis per Q, entry m at the index (m mod Q) on each."""
    axes = []
    for p in prime_factors(n):
        q = p
        while n % (q * p) == 0:
            q *= p
        axes.append((p, q))
    m = np.arange(n)
    place = np.zeros(n, dtype=np.int64)
    for _, q in axes:
        place = place * q + m % q
    order = np.empty(n, dtype=np.int64)
    order[place] = m
    order.flags.writeable = False
    return axes, order


def rational_values(rows, n: int) -> np.ndarray:
    """The rational value of each integer vector of an (R, n) block, as R
    int64 (or, past the int64 bound, Python int) entries.  Raises
    :class:`NonRationalValueError` if any vector is not rational.

    Read in the CRT power basis (module docstring), one block of
    ``ff.BLOCK_CELLS`` cells at a time; no vector is divided by Phi_n."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"expected an (R, {n}) block, got shape {rows.shape}")
    rows = _integers(rows)
    axes, order = _crt_axes(n)
    peak = max(int(rows.max(initial=0)), -int(rows.min(initial=0)))
    dtype = np.int64 if peak << len(axes) < (1 << 63) else object
    out = np.empty(len(rows), dtype=dtype)
    for s in row_blocks(len(rows), n):
        block = rows[s][:, order].astype(dtype)
        r, done, rest = len(block), 1, n
        for p, q in axes:
            rest //= q
            block = block.reshape(r, done, p, q // p, rest)
            block = block[:, :, :-1] - block[:, :, -1:]
            done *= q - q // p
        block = block.reshape(r, done)
        bad = np.flatnonzero(block[:, 1:].any(axis=1))
        if len(bad):
            raise NonRationalValueError(
                f"row {s.start + bad[0]} has a coordinate off zeta^0 in the "
                f"power basis modulo Phi_{n}")
        out[s] = block[:, 0]
    return out


def rational_from_vector(vec, n: int) -> Fraction:
    """Exact rational value of an integer group-ring vector of length n,
    if it has one: :func:`rational_values` of a one-row block."""
    return Fraction(int(rational_values([vec], n)[0]))


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

