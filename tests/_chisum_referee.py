"""The generic hypergeometric sum by its definition, the sum over chi.

This is the referee :func:`hypergf.hyp.hyp_eval` is held to: Greene's
definition

    q/(q-1) * sum over all chi of
        (A_0 chi choose chi) (A_1 chi choose B_1 chi) ... chi(x),

with each binomial symbol a scaled Jacobi-sum vector and the products
cyclic convolutions, accumulated as an integer vector over the (q-1)-th
roots of unity.  It shares no code with the recursion that ``hyp_eval``
runs: q-1 cyclic convolutions per factor and argument, so O(k q^3) for
one value of order k, fine for the small fields of the tests.
"""

from __future__ import annotations

from fractions import Fraction

from hypergf.chars import scaled_binomial_vector
from hypergf.cyclo import convolve_cyclic, rational_from_vector
from hypergf.ff import FieldContext
from hypergf.hyp import HypSpec


def chisum_vector(spec: HypSpec) -> list[int]:
    """q**k times the sum over chi, as an integer vector of length q-1."""
    ctx = spec.ctx
    q = ctx.q
    n = q - 1
    acc = [0] * n
    if spec.x == ctx.zero:
        return acc  # every term carries chi(0) = 0
    dlx = ctx.log[spec.x]
    tops = [chi.j for chi in spec.top]
    bots = [chi.j for chi in spec.bottom]
    for c in range(n):
        vec = _scaled_binom(ctx, (tops[0] + c) % n, c)
        for a_j, b_j in zip(tops[1:], bots):
            vec = convolve_cyclic(
                vec, _scaled_binom(ctx, (a_j + c) % n, (b_j + c) % n), n)
        r = (c * dlx) % n
        for m, v in enumerate(vec):
            if v:
                acc[(m + r) % n] += v
    return acc


def hyp_eval(spec: HypSpec) -> Fraction:
    """Exact rational value of the generic hypergeometric sum."""
    q = spec.ctx.q
    k = len(spec.top)
    # the vector carries q**k times the chi-sum; fold in the q/(q-1) prefactor
    return rational_from_vector(chisum_vector(spec), q - 1) * q / (Fraction(q - 1) * q ** k)


def _scaled_binom(ctx: FieldContext, ja: int, jb: int) -> list[int]:
    cache = ctx._cache.setdefault("chisum_referee_binoms", {})
    key = (ja, jb)
    vec = cache.get(key)
    if vec is None:
        vec = cache[key] = scaled_binomial_vector(ctx, ja, jb)
    return vec
