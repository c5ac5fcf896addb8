"""The audit's identities evaluated one point at a time, in Fractions.

This is the reference the columnar evaluators of :mod:`hypergf.audit`
are held to: every side is built from scalar field arithmetic, the
per-curve counters ``count_*``, :func:`two_f_one`, the sum over chi of
``_chisum_referee`` and :func:`ono_value_minus1`, and combined with
``Fraction``.  The domains are plain lists of parameter tuples.

``REFEREE[key]`` is ``(points, evaluate)``: ``points(ctx)`` lists the
domain of the identity in one admissible field, sorted, and
``evaluate(ctx, point)`` returns the exact ``(lhs, rhs)``.
"""

from __future__ import annotations

from fractions import Fraction

import _chisum_referee as chisum_referee
from hypergf import hyp
from hypergf.chars import phi_at_minus_one, quadratic_character, trivial_character
from hypergf.curves import (
    EdwardsParams,
    GeneralHuffParams,
    HuffParams,
    WeierstrassParams,
    count_edwards_affine,
    count_general_huff,
    count_general_huff_quartic,
    count_huff,
    count_weierstrass,
)
from hypergf.ff import FieldContext, numpy_tables
from hypergf.hyp import HypSpec, two_f_one


def _phi_sign(ctx: FieldContext, x: int) -> int:
    return int(numpy_tables(ctx).phi[x])


def _ratio(ctx: FieldContext, num: int, den: int) -> int:
    return ctx.mul(num, ctx.inv(den))


def _points_ab(ctx):
    return [(a, b) for a in range(1, ctx.q) for b in range(1, ctx.q) if b != a]


def _points_huff_ab(ctx):
    return [(a, b) for a in range(1, ctx.q) for b in range(1, ctx.q)
            if ctx.mul(a, a) != ctx.mul(b, b)]


def _points_lambda(exclude_minus_one: bool):
    def points(ctx):
        banned = {ctx.zero, ctx.one}
        if exclude_minus_one:
            banned.add(ctx.neg(ctx.one))
        return [(lam,) for lam in range(ctx.q) if lam not in banned]
    return points


def _points_lambda_not_one(ctx):
    return [(lam,) for lam in range(ctx.q) if lam != ctx.one]


def _sqrts(ctx, value):
    return [a for a in range(1, ctx.q) if ctx.mul(a, a) == value]


def _points_sqrt_minus_one(ctx):
    return [(a,) for a in _sqrts(ctx, ctx.neg(ctx.one))]


def _points_sqrt_two_or_half(ctx):
    two = ctx.element(2)
    return [(a,) for a in sorted(_sqrts(ctx, two) + _sqrts(ctx, ctx.inv(two)))]


def _transform_arg(ctx, a):
    """4a / (1+a)**2."""
    opa = ctx.add(ctx.one, a)
    return ctx.mul(ctx.mul(ctx.element(4), a), ctx.inv(ctx.mul(opa, opa)))


def _printed_curve_rhs(ctx, t):
    """q + 2 - 1/(q-1) - (2 + 1/(q-1)) phi(t) + q^2/(q-1) * F(t)."""
    q = ctx.q
    return (Fraction(q + 2) - Fraction(1, q - 1)
            - (2 + Fraction(1, q - 1)) * _phi_sign(ctx, t)
            + Fraction(q * q, q - 1) * two_f_one(ctx, t))


def _cornacchia_term(p):
    return hyp.ono_value_minus1(p) * Fraction(p, p - 1) - Fraction(p + 1, p * (p - 1))


def _general_huff(ctx, a, b):
    return count_general_huff(ctx, GeneralHuffParams(a, b)).total


def _huff(ctx, a, b):
    return count_huff(ctx, HuffParams(a, b)).total


def _weierstrass(ctx, a, b):
    return count_weierstrass(ctx, WeierstrassParams(a, b)).total


def _edwards_plus_4(ctx, d2):
    return count_edwards_affine(ctx, EdwardsParams(d2)) + 4


def _transform_tail(ctx, lam, variant, corrected):
    one = ctx.one
    oml, opl = ctx.sub(one, lam), ctx.add(one, lam)
    if variant == "a":
        ratio = _ratio(ctx, oml, opl)
        return phi_at_minus_one(ctx) * two_f_one(ctx, ctx.mul(ratio, ratio))
    if variant == "b":
        return two_f_one(ctx, _transform_arg(ctx, lam))
    arg = ctx.mul(ctx.mul(oml, oml), ctx.inv(ctx.neg(ctx.mul(ctx.element(4), lam))))
    sign_arg = ctx.neg(lam) if corrected else lam
    return _phi_sign(ctx, sign_arg) * two_f_one(ctx, arg)


def t41(ctx, pt):
    a, b = pt
    return Fraction(_general_huff(ctx, a, b)), _printed_curve_rhs(ctx, _ratio(ctx, b, a))


def t41_proof(ctx, pt):
    a, b = pt
    quartic = count_general_huff_quartic(ctx, GeneralHuffParams(a, b)).total
    return Fraction(_general_huff(ctx, a, b)), Fraction(quartic + 1)


def c42(ctx, pt):
    a, b = pt
    q = ctx.q
    t = _ratio(ctx, ctx.mul(b, b), ctx.mul(a, a))
    rhs = Fraction(q) - Fraction(2, q - 1) + Fraction(q * q, q - 1) * two_f_one(ctx, t)
    return Fraction(_huff(ctx, a, b)), rhs


def c51(ctx, pt):
    a, b = pt
    return Fraction(_weierstrass(ctx, a, b)), _printed_curve_rhs(ctx, _ratio(ctx, b, a))


def t52(variant):
    def ev(ctx, pt):
        (lam,) = pt
        q = ctx.q
        lhs = two_f_one(ctx, ctx.mul(lam, lam))
        tail = _transform_tail(ctx, lam, variant, corrected=False)
        return lhs, Fraction(q + 1, q * q) + Fraction(q - 1, q) * tail
    return ev


def t53_printed(ctx, pt):
    (a,) = pt
    return two_f_one(ctx, _transform_arg(ctx, a)), _cornacchia_term(ctx.p)


def t53b(ctx, pt):
    (a,) = pt
    p = ctx.p
    return two_f_one(ctx, _transform_arg(ctx, a)), Fraction(-(p + 1), p * (p - 1))


def c1(ctx, pt):
    a, b = pt
    q = ctx.q
    rhs = q + 1 + q * _phi_sign(ctx, a) * two_f_one(ctx, _ratio(ctx, b, a))
    return Fraction(_weierstrass(ctx, a, b)), Fraction(rhs)


def c2(ctx, pt):
    a, b = pt
    return Fraction(_general_huff(ctx, a, b)), Fraction(_weierstrass(ctx, a, b))


def c3(ctx, pt):
    a, b = pt
    t = _ratio(ctx, ctx.mul(b, b), ctx.mul(a, a))
    return Fraction(_huff(ctx, a, b)), Fraction(ctx.q + 1 + ctx.q * two_f_one(ctx, t))


def c4(variant):
    def ev(ctx, pt):
        (lam,) = pt
        lhs = two_f_one(ctx, ctx.mul(lam, lam))
        return lhs, Fraction(_transform_tail(ctx, lam, variant, corrected=True))
    return ev


def c53(ctx, pt):
    (a,) = pt
    return two_f_one(ctx, _transform_arg(ctx, a)), hyp.ono_value_minus1(ctx.p)


def cedw(ctx, pt):
    a, b = pt
    d = _ratio(ctx, ctx.sub(a, b), ctx.add(a, b))
    return Fraction(_huff(ctx, a, b)), Fraction(_edwards_plus_4(ctx, ctx.mul(d, d)))


def greflect(ctx, pt):
    (lam,) = pt
    rhs = phi_at_minus_one(ctx) * two_f_one(ctx, ctx.sub(ctx.one, lam))
    return two_f_one(ctx, lam), Fraction(rhs)


def gratio(ctx, pt):
    (lam,) = pt
    arg = ctx.mul(lam, ctx.inv(ctx.sub(lam, ctx.one))) if lam != ctx.zero else ctx.zero
    rhs = _phi_sign(ctx, ctx.sub(ctx.one, lam)) * two_f_one(ctx, arg)
    return two_f_one(ctx, lam), Fraction(rhs)


def g316(ctx, pt):
    (lam,) = pt
    phi, eps = quadratic_character(ctx), trivial_character(ctx)
    lhs = chisum_referee.hyp_eval(HypSpec(top=(phi, eps), bottom=(phi,), x=lam))
    rhs = Fraction(-phi_at_minus_one(ctx) * (1 + _phi_sign(ctx, lam)), ctx.q)
    return lhs, rhs


def sedw(ctx, pt):
    (d,) = pt
    d2 = ctx.mul(d, d)
    q = ctx.q
    rhs = 1 + q + q * phi_at_minus_one(ctx) * two_f_one(ctx, d2)
    return Fraction(_edwards_plus_4(ctx, d2)), Fraction(rhs)


def ominus1(ctx, pt):
    return two_f_one(ctx, ctx.neg(ctx.one)), hyp.ono_value_minus1(ctx.p)


_LAMBDA = _points_lambda(exclude_minus_one=True)

REFEREE = {
    "T4.1": (_points_ab, t41),
    "T4.1-proof": (_points_ab, t41_proof),
    "C4.2": (_points_huff_ab, c42),
    "C5.1": (_points_ab, c51),
    "T5.2a": (_LAMBDA, t52("a")),
    "T5.2b": (_LAMBDA, t52("b")),
    "T5.2c": (_LAMBDA, t52("c")),
    "T5.3a": (_points_sqrt_minus_one, t53_printed),
    "T5.3b": (_points_sqrt_two_or_half, t53b),
    "T5.3c": (_points_sqrt_two_or_half, t53_printed),
    "C1": (_points_ab, c1),
    "C2": (_points_ab, c2),
    "C3": (_points_huff_ab, c3),
    "C4a": (_LAMBDA, c4("a")),
    "C4b": (_LAMBDA, c4("b")),
    "C4c": (_LAMBDA, c4("c")),
    "C5.3": (_points_sqrt_minus_one, c53),
    "C-edw": (_points_huff_ab, cedw),
    "G-reflect": (_points_lambda(exclude_minus_one=False), greflect),
    "G-ratio": (_points_lambda_not_one, gratio),
    "G-316": (_points_lambda(exclude_minus_one=False), g316),
    "S-edw": (_LAMBDA, sedw),
    "O-minus1": (lambda ctx: [()], ominus1),
}
