"""Gaussian hypergeometric sums over F_q, exactly.

The generic series with top characters (A_0, ..., A_n) and bottom
characters (B_1, ..., B_n) at an argument x is Greene's

    q/(q-1) * sum over all chi of
        (A_0 chi choose chi) (A_1 chi choose B_1 chi) ... chi(x).

It is evaluated by Greene's recursion (Trans. AMS 301, 1987, Def. 3.5,
Thm. 3.6 and Thm. 3.13) instead of the sum over chi.  The base is
1F0(A | x) = eps(x) conj(A)(1-x); the 2F1 level is the integral form

    2F1(A, B; C | x) = eps(x) BC(-1)/q * sum over y of
        B(y) conj(B)C(1-y) conj(A)(1-xy),

and each higher level is

    n+1Fn(... A_n; ... B_n | x) = A_nB_n(-1)/q * sum over y of
        nFn-1(... | xy) A_n(y) conj(A_n)B_n(1-y).

A level is held as integer vectors over the (q-1)-th roots of unity:
q**(k-1) times the order-k value, one row per argument.  The 2F1 rows
are one bincount of zeta-exponents over y, O(q) per argument; a higher
level sums rolled rows of the level below at every xy, so an order k >= 3
series needs the level below as a (q, q-1) int64 column, and each of
its k-3 levels between the 2F1 and the top one costs q**2 (q-1) cells.
:func:`check_order` refuses a column beyond ``MAX_COLUMN_CELLS`` cells,
recursion work beyond ``MAX_RECURSION_CELLS`` cells, or entries that
could reach 2**62.  The rationals of all the rows are read exactly in one
block (:func:`~hypergf.cyclo.rational_values`).

The workhorse is the (phi, phi; eps) specialization
:func:`two_f_one`, evaluated by Greene's sum form

    F(lambda) = phi(-1)/q * sum over y of phi(y) phi(1-y) phi(1-lambda y),

an integer over q.  With n = q-1, y = g**i, lambda = g**k and
u[j] = phi(g**j - 1) (indices mod n), the factors phi(-1) of 1-y = -(y-1)
and 1-lambda y = -(lambda y - 1) cancel: phi(y) phi(1-y) phi(1-lambda y) =
(-1)**i u[i] u[i+k], so q F(lambda) is the sum over i of w[i] u[i+k] with
w[i] = phi(-1) (-1)**i u[i].  Every term is +-1 but the two with a factor
u[0] = phi(0) = 0, at i = 0 and i = n-k; so q F(g**k) = L - 2N, with L = n-1
live terms at k = 0 and n-2 at every other k, and N the live terms equal to
-1.  Per field, U is the sign plane of u as one Python int (bit j set iff
u[j] = -1) and W that of w, both on bits 1..n-1.  Rotating W by k,
((W | W << n) >> (n-k)), puts w[j-k] at bit j against u[j]: N is the
popcount of the XOR on bits 1..n-1, less U's bit k, which meets w[0] = 0.
That is O(q) bit operations per argument, with no numpy, no float and no
memo per lambda; the planes come from one pass over the field's log table.
Also here: the two-squares decomposition of a prime p = 1 mod 4
(Hermite-Serret / Cornacchia, deterministic) and the closed form at -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .chars import (Character, char_sign_at_minus_one, jacobi_terms, phi_at_minus_one,
                    same_field)
# jacobi_vector is unused here; perfbench/spans.py traces it at this binding
from .chars import jacobi_vector
# convolve_cyclic is unused here; perfbench/spans.py traces it at this binding
from .cyclo import convolve_cyclic
# rational_from_vector is unused here; perfbench/spans.py traces it at this binding
from .cyclo import rational_from_vector
from .cyclo import rational_values
from .ff import FieldContext, FieldError, NumpyTables, is_prime, numpy_tables, row_blocks
# make_field is unused here; perfbench/spans.py traces it at this binding
from .ff import make_field

# an order k >= 3 series holds the level below as a (q, q-1) int64 column
MAX_COLUMN_CELLS = 2 ** 24
# its (k-3) q^2 (q-1) cells of recursion take about 2.7 ns each on a 2-vCPU
# VM, so this budget is about 3 s: order 4 up to q = 1021, order 5 to 811
MAX_RECURSION_CELLS = 2 ** 30


def _check_characters(top, bottom) -> FieldContext:
    """The characters' one field, after checking their counts."""
    if len(top) != len(bottom) + 1:
        raise ValueError("need exactly one more top character than bottom")
    return same_field(*top, *bottom)


@dataclass(frozen=True)
class HypSpec:
    """Characters and argument of one generic hypergeometric sum."""

    top: tuple[Character, ...]
    bottom: tuple[Character, ...]
    x: int

    def __post_init__(self):
        _check_characters(self.top, self.bottom)
        self.ctx.check_code(self.x)

    @property
    def ctx(self) -> FieldContext:
        return self.top[0].ctx


def check_order(q: int, order: int) -> None:
    """Raise :class:`FieldError` unless a series of ``order`` top
    characters over F_q fits its int64 rows and its work budget: for
    order >= 3 the (q, q-1) column of the level below is at most
    ``MAX_COLUMN_CELLS`` cells, the (order-3) q**2 (q-1) cells of recursion
    are at most ``MAX_RECURSION_CELLS``, and every entry, at most
    (q-2)**(order-1) in absolute value, stays below 2**62."""
    if order >= 3 and q * (q - 1) > MAX_COLUMN_CELLS:
        raise FieldError(f"an order-{order} series over q={q} needs a {q}x{q - 1} "
                         f"column, over the {MAX_COLUMN_CELLS}-cell bound")
    if (work := (order - 3) * q * q * (q - 1)) > MAX_RECURSION_CELLS:
        raise FieldError(f"an order-{order} series over q={q} needs {work} cells of "
                         f"recursion, over the {MAX_RECURSION_CELLS}-cell budget")
    if q ** (order - 1) >= 2 ** 62:
        raise FieldError(f"an order-{order} series over q={q} has entries up to "
                         f"q^{order - 1} >= 2^62")


def hyp_eval(spec: HypSpec) -> Fraction:
    """Exact rational value of the generic hypergeometric sum.

    Greene's recursion from 1F0; O(q) for a 2F1 and O(k q^2 (q-1)) at
    worst for order k >= 3, which :func:`check_order` bounds.  Raises
    :class:`~hypergf.cyclo.NonRationalValueError` if the value is not
    rational.
    """
    num = hyp_numerators(spec.top, spec.bottom, [spec.x])[0]
    return Fraction(int(num), spec.ctx.q ** (len(spec.top) - 1))


def hyp_numerators(top: tuple[Character, ...], bottom: tuple[Character, ...],
                   xs) -> np.ndarray:
    """q**(k-1) times :func:`hyp_eval` at every argument code of ``xs``, for
    k = len(top), as an int64 column: one pass of the recursion and one
    block extraction (:func:`~hypergf.cyclo.rational_values`)."""
    ctx = _check_characters(top, bottom)
    rows = _series_rows(ctx, [chi.j for chi in top], [chi.j for chi in bottom],
                        np.asarray([ctx.check_code(x) for x in xs], dtype=np.int64))
    # a value is at most the row's q**(k-1) terms, below 2**62 by check_order
    return rational_values(rows, ctx.q - 1).astype(np.int64)


def _series_rows(ctx: FieldContext, tops: list[int], bots: list[int],
                 xs: np.ndarray) -> np.ndarray:
    """q**(k-1) times the order-k series at each code of ``xs``, as an
    int64 row of zeta-coefficients per argument."""
    check_order(ctx.q, len(tops))
    t = numpy_tables(ctx)
    if len(tops) == 1:
        # 1F0(A | x) = eps(x) conj(A)(1-x): one root of unity, or 0
        rows = np.zeros((len(xs), t.n), dtype=np.int64)
        omx = t.one_minus[xs]
        live = np.flatnonzero((xs != 0) & (omx != 0))
        rows[live, (-tops[0] * t.log_[omx[live]]) % t.n] = 1
        return rows
    # every level but the top one is needed at every xy, so at all codes
    every = np.arange(ctx.q)
    rows = _integral_rows(t, tops[0], tops[1], bots[0], xs if len(tops) == 2 else every)
    rows *= char_sign_at_minus_one(ctx, tops[1] + bots[0])
    for j in range(2, len(tops)):
        rows = _recursion_rows(t, rows, tops[j], bots[j - 1],
                               xs if j == len(tops) - 1 else every)
        rows *= char_sign_at_minus_one(ctx, tops[j] + bots[j - 1])
    return rows


def _integral_rows(t: NumpyTables, ja: int, jb: int, jc: int,
                   xs: np.ndarray) -> np.ndarray:
    """q 2F1(A, B; C | x) for each x of ``xs`` by the integral form: one
    bincount of zeta-exponents over the y with 1-xy != 0."""
    n = t.n
    y, ey = jacobi_terms(t, jb, jc - jb)   # B(y) conj(B)C(1-y)
    rows = np.zeros((len(xs), n), dtype=np.int64)
    for s in row_blocks(len(xs), len(y)):
        block = xs[s]
        z = t.one_minus[t.vmul(block[:, None], y[None, :])]
        i, k = np.nonzero((block[:, None] != 0) & (z != 0))
        idx = i * n + (ey[k] - ja * t.log_[z[i, k]]) % n
        rows[s] = np.bincount(idx, minlength=len(block) * n).reshape(-1, n)
    return rows


def _recursion_rows(t: NumpyTables, below: np.ndarray, ja: int, jb: int,
                    xs: np.ndarray) -> np.ndarray:
    """Sum over y of the rows of ``below`` (one per code) at xy, each
    rolled by the exponent of A(y) conj(A)B(1-y), for each x of ``xs``."""
    y, ey = jacobi_terms(t, ja, jb - ja)   # A(y) conj(A)B(1-y)
    rows = np.zeros((len(xs), t.n), dtype=np.int64)
    for s in row_blocks(len(xs), t.n):
        block, acc = xs[s], rows[s]
        for yk, e in zip(y.tolist(), ey.tolist()):
            acc += np.roll(below[t.vmul(block, yk)], e, axis=1)
    return rows


def two_f_one(ctx: FieldContext, lam: int) -> Fraction:
    """The (phi, phi; eps) hypergeometric value at lambda, exact.

    Greene's sum phi(-1)/q * sum_y phi(y) phi(1-y) phi(1-lambda y) as a
    popcount over the field's two sign bit-planes (module docstring): O(q)
    bit operations on Python ints, no numpy and no float.  A value is
    kept per distinct numerator, at most 4 sqrt(q) + 3 of them by Hasse's
    bound, and none per lambda.  The value at 0 is 0 (Greene's
    eps(lambda) factor), 1 is an ordinary argument, and a code outside
    range(q) raises ValueError.
    """
    if not ctx.check_code(lam):     # code 0 is the field's zero
        return Fraction(0)
    # perfbench/spans.py reads this key to spot a cold call
    planes = ctx._cache.get("squared_phi_binom_table")
    if planes is None:
        planes = ctx._cache["squared_phi_binom_table"] = _sign_planes(ctx)
    w2, u, mask, u_bytes, values = planes
    n = ctx.q - 1
    k = ctx.log.item(lam)
    num = n - 1 - 2 * (((w2 >> (n - k)) & mask) ^ u).bit_count()
    if k:   # the dead term at j = k: L is n-2, and the XOR kept U's bit k
        num += 2 * ((u_bytes[k >> 3] >> (k & 7)) & 1) - 1
    value = values.get(num)
    if value is None:
        value = values[num] = Fraction(num, ctx.q)
    return value


def _sign_planes(ctx: FieldContext) -> tuple:
    """A field's state for :func:`two_f_one`: W2 = W | W << n, U, the mask
    of bits 1..n-1, U's bytes (little-endian), and the value per numerator
    (empty)."""
    n = ctx.q - 1
    # g**j - 1 has code (exp[j] - one) % q by the ff module's 1 + y rule.
    # Bit j of U is set iff u[j] = phi(g**j - 1) = -1; bit 0 is clear, as log[0] = 0.
    # log parity, not numpy_tables(ctx).phi: building those tables outlasts this whole cold call
    par = ctx.log[(ctx.exp - ctx.one) % ctx.q] % 2
    u_bytes = np.packbits(par, bitorder="little").tobytes()
    u = int.from_bytes(u_bytes, "little")
    mask = (1 << n) - 2
    # w[i] = phi(-1) (-1)**i u[i]: flip U at the odd i, and everywhere if phi(-1) = -1
    odd = int.from_bytes(b"\xaa" * len(u_bytes), "little")
    w = (u ^ odd ^ -(phi_at_minus_one(ctx) < 0)) & mask
    return w | w << n, u, mask, u_bytes, {}


# ---------------------------------------------------------------------------
# two squares and the closed form at -1
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoSquares:
    """Normalized representation x**2 + y**2 = p with x odd, both positive."""

    x: int
    y: int
    p: int

    def __post_init__(self):
        if self.x * self.x + self.y * self.y != self.p:
            raise ValueError("not a two-squares representation")
        if self.x <= 0 or self.y <= 0 or self.x % 2 == 0:
            raise ValueError("normalization requires x odd, both positive")

    @property
    def value_minus1(self) -> Fraction:
        """The (phi, phi; eps) sum at -1 over F_p: 2x(-1)**((x+y+1)/2) / p."""
        sign = -1 if ((self.x + self.y + 1) // 2) % 2 else 1
        return Fraction(2 * self.x * sign, self.p)


def cornacchia(p: int) -> TwoSquares:
    """Decompose a prime p = 1 mod 4 as x**2 + y**2, x odd.

    Deterministic: the square root of -1 is s = c**((p-1)/4) for the
    smallest quadratic non-residue c (Euler's criterion); the descending
    Euclid remainder sequence on (p, s) is then read off at the first
    remainder below sqrt(p).
    """
    if not is_prime(p) or p % 2 == 0:
        raise FieldError(f"{p} is not an odd prime")
    if p % 4 != 1:
        raise ValueError(f"no two-squares representation: {p} = 3 mod 4")
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    s = pow(c, (p - 1) // 4, p)
    a, b = p, s
    limit = isqrt(p)
    while b > limit:
        a, b = b, a % b
    first, second = b, a % b
    x, y = (first, second) if first % 2 == 1 else (second, first)
    return TwoSquares(x=x, y=y, p=p)


def ono_value_minus1(p: int) -> Fraction:
    """Closed-form value of the (phi, phi; eps) sum at -1 over F_p:
    2x(-1)**((x+y+1)/2) / p for p = 1 mod 4 with cornacchia(p) = (x, y),
    and 0 for p = 3 mod 4."""
    if p % 4 == 3 and is_prime(p):
        return Fraction(0)
    return cornacchia(p).value_minus1  # raises FieldError unless p is an odd prime
