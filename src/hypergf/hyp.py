"""Gaussian hypergeometric sums over F_q, exactly.

The generic series with top characters (A_0, ..., A_n) and bottom
characters (B_1, ..., B_n) at an argument x is

    q/(q-1) * sum over all chi of
        (A_0 chi choose chi) (A_1 chi choose B_1 chi) ... chi(x),

a rational number for the specs used here.  Evaluation accumulates the
scaled integer vectors of the symbols and extracts the rational once at
the end, so the whole computation is exact.

The workhorse is the (phi, phi; eps) specialization
:func:`two_f_one`, evaluated by Greene's sum form

    F(lambda) = phi(-1)/q * sum over y of phi(y) phi(1-y) phi(1-lambda y),

an integer over q: one dot product of length q per argument against the
per-field cached weights phi(y) phi(1-y), so O(q) work per argument and
no table.  Also here: the two-squares decomposition of a prime
p = 1 mod 4 (Hermite-Serret / Cornacchia, deterministic) and the
closed-form value of the series at -1 built from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

# jacobi_vector is unused here; perfbench/spans.py traces it at this binding
from .chars import Character, jacobi_vector, phi_at_minus_one, scaled_binomial_vector
from .cyclo import convolve_cyclic, rational_from_vector
from .ff import FieldContext, FieldError, is_prime, make_field, numpy_tables


@dataclass(frozen=True)
class HypSpec:
    """Characters and argument of one generic hypergeometric sum."""

    top: tuple[Character, ...]
    bottom: tuple[Character, ...]
    x: int

    def __post_init__(self):
        if len(self.top) != len(self.bottom) + 1:
            raise ValueError("need exactly one more top character than bottom")
        ctx = self.top[0].ctx
        for chi in (*self.top, *self.bottom):
            if chi.ctx != ctx:
                raise ValueError("all characters must share one field")

    @property
    def ctx(self) -> FieldContext:
        return self.top[0].ctx


def hyp_eval(spec: HypSpec) -> Fraction:
    """Exact rational value of the generic hypergeometric sum."""
    ctx = spec.ctx
    q = ctx.q
    n = q - 1
    if spec.x == ctx.zero:
        return Fraction(0)  # every term carries chi(0) = 0
    dlx = ctx.log[spec.x]
    tops = [chi.j for chi in spec.top]
    bots = [chi.j for chi in spec.bottom]
    k = len(tops)
    acc = [0] * n
    for c in range(n):
        vec = _scaled_binom(ctx, (tops[0] + c) % n, c)
        for a_j, b_j in zip(tops[1:], bots):
            vec = convolve_cyclic(
                vec, _scaled_binom(ctx, (a_j + c) % n, (b_j + c) % n), n)
        r = (c * dlx) % n
        for m, v in enumerate(vec):
            if v:
                acc[(m + r) % n] += v
    # acc carries q**k times the chi-sum; fold in the q/(q-1) prefactor
    return rational_from_vector(acc, n) * q / (Fraction(q - 1) * q ** k)


def _scaled_binom(ctx: FieldContext, ja: int, jb: int) -> list[int]:
    cache = ctx._cache.setdefault("scaled_binom_vecs", {})
    key = (ja, jb)
    vec = cache.get(key)
    if vec is None:
        vec = cache[key] = scaled_binomial_vector(ctx, ja, jb)
    return vec


def two_f_one(ctx: FieldContext, lam: int) -> Fraction:
    """The (phi, phi; eps) hypergeometric value at lambda, exact.

    Greene's sum phi(-1)/q * sum_y phi(y) phi(1-y) phi(1-lambda y): an
    integer of size at most q over q, O(q) per argument.  The value at 0
    is 0 (Greene's eps(lambda) factor), and 1 is evaluated like any
    other argument.  Values are memoized per field.
    """
    memo = ctx._cache.setdefault("two_f_one_values", {})
    val = memo.get(lam)
    if val is not None:
        return val
    if lam == ctx.zero:
        val = Fraction(0)
    else:
        t = numpy_tables(ctx)
        # phi(y) phi(1-y); perfbench/spans.py reads this key to spot a cold call
        w = ctx._cache.get("squared_phi_binom_table")
        if w is None:
            w = ctx._cache["squared_phi_binom_table"] = t.phi * t.phi[t.one_minus]
        terms = t.phi[t.one_minus[t.vmul(lam, np.arange(ctx.q))]]
        val = Fraction(phi_at_minus_one(ctx) * int(w @ terms), ctx.q)
    memo[lam] = val
    return val


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


def cornacchia(p: int) -> TwoSquares:
    """Decompose a prime p = 1 mod 4 as x**2 + y**2, x odd.

    Deterministic: the square root of -1 is g**((p-1)/4) for the field's
    canonical generator g; the descending Euclid remainder sequence on
    (p, s) is then read off at the first remainder below sqrt(p).
    """
    if not is_prime(p) or p % 2 == 0:
        raise FieldError(f"{p} is not an odd prime")
    if p % 4 != 1:
        raise ValueError(f"no two-squares representation: {p} = 3 mod 4")
    g = make_field(p).gen
    s = pow(g, (p - 1) // 4, p)
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
    ts = cornacchia(p)  # raises FieldError unless p is an odd prime
    sign = -1 if ((ts.x + ts.y + 1) // 2) % 2 else 1
    return Fraction(2 * ts.x * sign, p)
