"""Multiplicative characters, Jacobi sums, and binomial symbols over F_q.

A character chi_j is indexed by j mod (q-1): chi_j(gen**k) = zeta**(j*k)
with zeta a fixed primitive (q-1)-th root of unity, extended by
chi(0) = 0.  Index 0 is the trivial character eps; index (q-1)/2 the
quadratic character phi.  Character products and inverses are index
arithmetic, which callers do on ``.j``; that keeps sums over all
characters enumerable as plain ranges.

Jacobi sums and binomial symbols are integer vectors over the
(q-1)-th roots of unity (``jacobi_vector``, ``scaled_binomial_vector``),
accumulated as raw counts with no canonicalization inside the loops.
Their kernel :func:`jacobi_terms` also gives the series recursion in
:mod:`hypergf.hyp` its Jacobi-type terms.  :func:`jacobi_sum` and
:func:`binomial_symbol` wrap one vector in a
:class:`~hypergf.cyclo.GroupRingElement` for display.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclo import GroupRingElement
from .ff import FieldContext, NumpyTables, numpy_tables


@dataclass(frozen=True)
class Character:
    """The multiplicative character chi_j over a fixed field."""

    ctx: FieldContext
    j: int

    def __post_init__(self):
        object.__setattr__(self, "j", self.j % (self.ctx.q - 1))


def trivial_character(ctx: FieldContext) -> Character:
    return Character(ctx, 0)


def quadratic_character(ctx: FieldContext) -> Character:
    return Character(ctx, (ctx.q - 1) // 2)


def char_sign_at_minus_one(ctx: FieldContext, j: int) -> int:
    """chi_j(-1) as +-1.  Uses -1 = gen**((q-1)/2)."""
    n = ctx.q - 1
    return -1 if (j * (n // 2)) % n else 1


def phi_at_minus_one(ctx: FieldContext) -> int:
    """phi(-1); equals +1 exactly when q = 1 mod 4."""
    return char_sign_at_minus_one(ctx, (ctx.q - 1) // 2)


# ---------------------------------------------------------------------------
# integer-vector kernel
# ---------------------------------------------------------------------------

def jacobi_terms(t: NumpyTables, ja: int, jb: int) -> tuple[np.ndarray, np.ndarray]:
    """The x off {0, 1} and the exponent of chi_ja(x) chi_jb(1-x) at each:
    the nonvanishing terms of J(chi_ja, chi_jb)."""
    codes = np.arange(t.q)
    x = codes[(codes != 0) & (t.one_minus != 0)]
    return x, (ja * t.log_[x] + jb * t.log_[t.one_minus[x]]) % t.n


def jacobi_vector(ctx: FieldContext, ja: int, jb: int) -> list[int]:
    """Raw integer vector of J(chi_ja, chi_jb) = sum_x chi_ja(x) chi_jb(1-x).

    Entry m counts the x with chi_ja(x) chi_jb(1-x) = zeta**m; terms where
    either factor vanishes contribute nothing.
    """
    _, idx = jacobi_terms(numpy_tables(ctx), ja, jb)
    return np.bincount(idx, minlength=ctx.q - 1).tolist()


def scaled_binomial_vector(ctx: FieldContext, ja: int, jb: int) -> list[int]:
    """q * (chi_ja choose chi_jb) as an integer vector: the sign chi_jb(-1)
    folded into J(chi_ja, conj(chi_jb))."""
    n = ctx.q - 1
    vec = jacobi_vector(ctx, ja, (-jb) % n)
    if char_sign_at_minus_one(ctx, jb) < 0:
        return [-c for c in vec]
    return vec


# ---------------------------------------------------------------------------
# display values
# ---------------------------------------------------------------------------

def same_field(*chars: Character) -> FieldContext:
    """The one field of ``chars``; ValueError if they mix fields."""
    ctx = chars[0].ctx
    if any(chi.ctx != ctx for chi in chars):
        raise ValueError("all characters must share one field")
    return ctx


def jacobi_sum(a: Character, b: Character) -> GroupRingElement:
    """J(A, B) = sum over x in F_q of A(x) B(1-x), exact."""
    ctx = same_field(a, b)
    return GroupRingElement(ctx.q - 1, jacobi_vector(ctx, a.j, b.j))


def binomial_symbol(a: Character, b: Character) -> GroupRingElement:
    """(A choose B) = B(-1)/q * J(A, conj(B)); q times it is a cyclotomic
    integer."""
    ctx = same_field(a, b)
    vec = scaled_binomial_vector(ctx, a.j, b.j)
    return GroupRingElement(ctx.q - 1, vec, denominator=ctx.q)
