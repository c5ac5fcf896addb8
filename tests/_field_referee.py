"""The per-element exp/log fill and generator search, as Python lists.

This is the referee :func:`hypergf.ff.make_field` is held to: each
power of the generator is one schoolbook polynomial product reduced by
the modulus, so it shares only the modulus search, the element codec
and ``_power`` with the doubling fill.  O(q r^2) Python steps, which
takes seconds at the largest fields; the tests use it in full only for
q <= 1000 and for its product :func:`mul_codes` elsewhere.

:func:`with_generator` gives the tests a field with another generator,
which ``make_field`` never picks, and :func:`power` powers by repeated
products.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from hypergf.ff import (FieldContext, FieldError, _digits, _find_modulus, _poly_rem, _power,
                        _weights, prime_factors)


def with_generator(ctx: FieldContext, u: int) -> FieldContext:
    """The field of ``ctx`` with generator gen**u, gcd(u, q-1) = 1: the same
    modulus and codes, the tables re-indexed, exp'[k] = exp[k u mod n] and
    log'[x] = log[x] / u mod n (log'[0] stays 0)."""
    n = ctx.q - 1
    assert gcd(u, n) == 1, f"gen**{u} does not generate F_{ctx.q}^x"
    exp = ctx.exp[np.arange(n) * u % n]
    log = ctx.log * pow(u, -1, n) % n
    exp.flags.writeable = log.flags.writeable = False
    return FieldContext(ctx.p, ctx.r, ctx.modulus, ctx.exp.item(u % n), exp, log)


def _code(digits, weights) -> int:
    """The element code of reduced digits (c_0, ..., c_{r-1})."""
    return sum(c * w for c, w in zip(digits, weights))


def _poly_mul_mod(a, b, modulus, p):
    r = len(modulus) - 1
    out = [0] * (2 * r - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_rem(out, modulus, p)


def mul_codes(p: int, modulus: tuple[int, ...], a: int, b: int) -> int:
    """The product of the element codes a and b of F_p[t]/(modulus)."""
    weights = _weights(p, len(modulus) - 1)
    return _code(_poly_mul_mod(_digits(a, weights), _digits(b, weights), modulus, p),
                 weights)


def power(ctx: FieldContext, a: int, e: int) -> int:
    """a**e in ``ctx``, e >= 0, as e products ``ctx.mul`` from 1: the
    powers the exp table is checked against."""
    acc = ctx.one
    for _ in range(e):
        acc = ctx.mul(acc, a)
    return acc


def referee_field(p: int, r: int = 1, generator: int | None = None):
    """(modulus, gen, exp, log) of F_{p**r}: lists, with log[0] None."""
    q = p ** r
    modulus = _find_modulus(p, r)
    weights = _weights(p, r)
    one = weights[0]

    def mul(a, b):
        return mul_codes(p, modulus, a, b)

    def order_is_maximal(g):
        # g has order q-1 iff g**((q-1)/l) != 1 for every prime l | q-1
        return all(_power(mul, one, g, (q - 1) // ell) != one
                   for ell in prime_factors(q - 1))

    if generator is None:
        gen = next(g for g in range(1, q) if order_is_maximal(g))
    else:
        if generator <= 0 or generator >= q or not order_is_maximal(generator):
            raise FieldError(f"{generator} does not generate the multiplicative group")
        gen = generator

    exp = [0] * (q - 1)
    log: list[int | None] = [None] * q
    x = one
    for k in range(q - 1):
        exp[k] = x
        log[x] = k
        x = mul(x, gen)
    if x != one or any(log[c] is None for c in range(1, q)):
        raise FieldError("generator does not enumerate the multiplicative group")
    return modulus, gen, exp, log
