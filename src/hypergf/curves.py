"""Brute-force rational point counts for four plane curve models.

Counting is exhaustive: the defining equation is tested at every affine
pair (x, y), vectorized over the grid but with no discriminant logic,
so these counts serve as ground truth for everything else in the
package.  Points at infinity are fixed constants read off the
homogenized equations: three for the Huff models, one for Weierstrass;
the Edwards count is reported affine-only and any completion convention
is left to the caller.

The audit needs whole families of curves over one field, so each count
also has a family form (``general_huff_family``, ``huff_family``,
``weierstrass_family``, ``general_huff_quartic_family``,
``edwards_affine_family``): a memoized, read-only int64 table of the
totals at every parameter, -1 where the parameters are invalid.  They
count what the per-parameter functions count, with no characters beyond
the quartic route's own and no discriminant shortcut.  The three
exhaustive models use that each defining equation is linear in its
parameters: an affine pair lies on every curve of the family, on none,
or fixes the parameter (for general Huff, b for each a), so every pair
is still visited and the solved parameters are bincounted.  General
Huff, Weierstrass and the quartic route cost O(q**3) for the whole
(a, b) family, Huff and Edwards O(q**2).  The three O(q**3) tables
are broadcast over blocks of consecutive a, each block within
``ff.BLOCK_CELLS`` int64 cells (or one a, when one row alone is larger),
so no build holds more than O(max(q**2, BLOCK_CELLS)) elements at once.

Also here: the rational maps between the general Huff model and the
Weierstrass model v**2 = u(u+a)(u+b), applied pointwise with their
exceptional loci counted rather than skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps

import numpy as np

from .ff import BLOCK_CELLS, FieldContext, NumpyTables, numpy_tables


class ParameterError(ValueError):
    """Curve parameters violate the model's nondegeneracy conditions."""


@dataclass(frozen=True)
class GeneralHuffParams:
    """x(a y**2 - 1) = y(b x**2 - 1) with a b (a - b) != 0."""

    a: int
    b: int

    def validate(self, ctx: FieldContext):
        if self.a == ctx.zero or self.b == ctx.zero:
            raise ParameterError("general Huff model needs a, b nonzero")
        if self.a == self.b:
            raise ParameterError("general Huff model needs a != b")


@dataclass(frozen=True)
class HuffParams:
    """a x(y**2 - 1) = b y(x**2 - 1) with a, b nonzero and a**2 != b**2."""

    a: int
    b: int

    def validate(self, ctx: FieldContext):
        if self.a == ctx.zero or self.b == ctx.zero:
            raise ParameterError("Huff model needs a, b nonzero")
        if ctx.mul(self.a, self.a) == ctx.mul(self.b, self.b):
            raise ParameterError("Huff model needs a**2 != b**2")


@dataclass(frozen=True)
class WeierstrassParams:
    """y**2 = x(x+a)(x+b) with roots 0, -a, -b distinct."""

    a: int
    b: int

    def validate(self, ctx: FieldContext):
        if self.a == ctx.zero or self.b == ctx.zero:
            raise ParameterError("Weierstrass model needs a, b nonzero")
        if self.a == self.b:
            raise ParameterError("Weierstrass model needs a != b")


@dataclass(frozen=True)
class EdwardsParams:
    """x**2 + y**2 = 1 + d2 x**2 y**2 with d2 not in {0, 1}."""

    d2: int

    def validate(self, ctx: FieldContext):
        if self.d2 == ctx.zero:
            raise ParameterError("Edwards model needs d2 != 0")
        if self.d2 == ctx.one:
            raise ParameterError("Edwards model needs d2 != 1")


@dataclass(frozen=True)
class CurveCount:
    affine: int
    at_infinity: int
    total: int

    def __post_init__(self):
        if self.total != self.affine + self.at_infinity:
            raise ValueError("total must equal affine + at_infinity")
        if min(self.affine, self.at_infinity, self.total) < 0:
            raise ValueError("counts must be nonnegative")


def _general_huff_grid(ctx: FieldContext, a: int, b: int) -> np.ndarray:
    """Boolean (q, q) grid of affine solutions of the general Huff equation."""
    t = numpy_tables(ctx)
    codes = np.arange(ctx.q)
    w = t.vsub(t.vmul(a, t.sq), ctx.one)                  # a y^2 - 1, indexed by y
    c = t.vsub(t.vmul(b, t.sq), ctx.one)                  # b x^2 - 1, indexed by x
    lhs = t.vmul(codes[:, None], w[None, :])              # x * (a y^2 - 1)
    rhs = t.vmul(c[:, None], codes[None, :])              # (b x^2 - 1) * y
    return lhs == rhs


def count_general_huff(ctx: FieldContext, params: GeneralHuffParams) -> CurveCount:
    """Affine count by exhaustive enumeration; three points at infinity."""
    params.validate(ctx)
    affine = int(_general_huff_grid(ctx, params.a, params.b).sum())
    return CurveCount(affine=affine, at_infinity=3, total=affine + 3)


def count_huff(ctx: FieldContext, params: HuffParams) -> CurveCount:
    """Affine count by exhaustive enumeration; three points at infinity."""
    params.validate(ctx)
    t = numpy_tables(ctx)
    codes = np.arange(ctx.q)
    ax = t.vmul(params.a, codes)                          # a x
    by = t.vmul(params.b, codes)                          # b y
    sq_m1 = t.vsub(t.sq, ctx.one)                         # z^2 - 1, any axis
    lhs = t.vmul(ax[:, None], sq_m1[None, :])
    rhs = t.vmul(sq_m1[:, None], by[None, :])
    affine = int((lhs == rhs).sum())
    return CurveCount(affine=affine, at_infinity=3, total=affine + 3)


def _weierstrass_fx(t: NumpyTables, a: int, b: int) -> np.ndarray:
    """x(x+a)(x+b) at every x, indexed by x."""
    codes = np.arange(t.q)
    return t.vmul(codes, t.vmul(t.vadd(codes, a), t.vadd(codes, b)))


def count_weierstrass(ctx: FieldContext, params: WeierstrassParams) -> CurveCount:
    """Affine solutions of y**2 = x(x+a)(x+b) counted by matching squares
    (the y**2 multiplicity table is built by enumerating every y once);
    one point at infinity."""
    params.validate(ctx)
    t = numpy_tables(ctx)
    affine = int(t.nsqrt[_weierstrass_fx(t, params.a, params.b)].sum())
    return CurveCount(affine=affine, at_infinity=1, total=affine + 1)


def count_edwards_affine(ctx: FieldContext, params: EdwardsParams) -> int:
    """Exhaustive affine solution count of the Edwards equation.  No
    points at infinity are added; completion conventions live upstream."""
    params.validate(ctx)
    t = numpy_tables(ctx)
    lhs = t.vadd(t.sq[:, None], t.sq[None, :])
    rhs = t.vadd(ctx.one, t.vmul(params.d2, t.vmul(t.sq[:, None], t.sq[None, :])))
    return int((lhs == rhs).sum())


def count_general_huff_quartic(ctx: FieldContext,
                               params: GeneralHuffParams) -> CurveCount:
    """The quadratic-in-y route: total = 3 + 1 + (q-1) + sum over nonzero x
    of phi(b^2 x^4 + (4a - 2b) x^2 + 1).

    This is the alternative counting path; it must agree with the
    exhaustive count (and does, which pins the constant at q+3, not q+4).
    """
    params.validate(ctx)
    t = numpy_tables(ctx)
    q = ctx.q
    a, b = params.a, params.b
    b2 = ctx.mul(b, b)
    mid = ctx.sub(ctx.mul(ctx.element(4), a), ctx.add(b, b))  # 4a - 2b
    codes = np.arange(1, q)                               # nonzero x codes
    x2 = t.sq[codes]
    x4 = t.vmul(x2, x2)
    val = t.vadd(t.vadd(t.vmul(b2, x4), t.vmul(mid, x2)), ctx.one)
    s = int(t.phi[val].sum())
    affine = q + s                                        # 1 + (q-1) + sum
    return CurveCount(affine=affine, at_infinity=3, total=affine + 3)


# ---------------------------------------------------------------------------
# whole families, counted once per field
# ---------------------------------------------------------------------------

def _per_field(build):
    """Memoize ``build(ctx)`` in ``ctx._cache`` as a read-only table."""
    key = build.__name__

    @wraps(build)
    def family(ctx: FieldContext) -> np.ndarray:
        table = ctx._cache.get(key)
        if table is None:
            table = build(ctx)
            table.flags.writeable = False
            ctx._cache[key] = table
        return table
    return family


def _rows_over_a(q: int, cells: int, rows) -> np.ndarray:
    """A (q, q) table whose rows a >= 1 are ``rows(a)`` for an array of
    consecutive a's, ``cells`` int64 cells per a; each block of a's stays
    within ``BLOCK_CELLS`` cells, or is one a.  Row 0 is left unset."""
    table = np.empty((q, q), dtype=np.int64)
    step = max(1, BLOCK_CELLS // cells)
    for lo in range(1, q, step):
        table[lo:lo + step] = rows(np.arange(lo, min(lo + step, q)))
    return table


def _excluded_ab(table: np.ndarray, bad_pair: np.ndarray) -> np.ndarray:
    """-1 where a = 0, b = 0 or ``bad_pair[a, b]``."""
    table[bad_pair] = -1
    table[0, :] = table[:, 0] = -1
    return table


@_per_field
def general_huff_family(ctx: FieldContext) -> np.ndarray:
    """``count_general_huff(ctx, GeneralHuffParams(a, b)).total`` at
    ``[a, b]`` for every (a, b), -1 where the parameters are invalid."""
    # a x y^2 - b x^2 y = x - y: the origin lies on every curve, the other
    # axis points on none, and x y != 0 fixes b = a (y/x) - (x-y)/(x^2 y)
    t = numpy_tables(ctx)
    q = ctx.q
    nz = np.arange(1, q)
    x, y = nz[:, None], nz[None, :]
    inv_x2y = t.vinv(t.vmul(t.sq[x], y))
    slope = t.vmul(t.vmul(x, t.sq[y]), inv_x2y).ravel()   # y/x
    offset = t.vmul(t.vsub(x, y), inv_x2y).ravel()        # (x-y)/(x^2 y)

    def rows(a):
        # b at [a, (x, y)], bincounted per a as one histogram of a-row q + b
        b = t.vsub(t.vmul(a[:, None], slope), offset)
        at = np.arange(len(a))[:, None] * q + b
        return 1 + 3 + np.bincount(at.ravel(), minlength=len(a) * q).reshape(-1, q)
    return _excluded_ab(_rows_over_a(q, len(slope), rows), np.eye(q, dtype=bool))


@_per_field
def huff_family(ctx: FieldContext) -> np.ndarray:
    """``count_huff(ctx, HuffParams(a, b)).total`` at ``[a, b]`` for every
    (a, b), -1 where the parameters are invalid."""
    # a A = b B with A = x(y^2-1), B = y(x^2-1): pairs with A = B = 0 lie
    # on every curve, pairs with A B != 0 on the curves with b/a = A/B
    t = numpy_tables(ctx)
    q = ctx.q
    codes = np.arange(q)
    sq_m1 = t.vsub(t.sq, ctx.one)
    big_a = t.vmul(codes[:, None], sq_m1[None, :])
    big_b = t.vmul(sq_m1[:, None], codes[None, :])
    every = int(((big_a == 0) & (big_b == 0)).sum())
    solved = (big_a != 0) & (big_b != 0)
    hist = np.bincount(t.vmul(big_a[solved], t.vinv(big_b[solved])), minlength=q)
    inv_a = np.zeros(q, dtype=np.int64)   # row a = 0 is excluded below
    inv_a[1:] = t.vinv(codes[1:])
    table = 3 + every + hist[t.vmul(codes[None, :], inv_a[:, None])]
    return _excluded_ab(table, t.sq[:, None] == t.sq[None, :])


@_per_field
def edwards_affine_family(ctx: FieldContext) -> np.ndarray:
    """``count_edwards_affine(ctx, EdwardsParams(d2))`` at ``[d2]`` for
    every d2, -1 at d2 in {0, 1}."""
    # x^2 + y^2 - 1 = d2 x^2 y^2: pairs with x y = 0 and x^2 + y^2 = 1 lie
    # on every curve, the others fix d2
    t = numpy_tables(ctx)
    lhs = t.vsub(t.vadd(t.sq[:, None], t.sq[None, :]), ctx.one)
    prod = t.vmul(t.sq[:, None], t.sq[None, :])
    axis = prod == 0
    every = int((axis & (lhs == 0)).sum())
    d2 = t.vmul(lhs[~axis], t.vinv(prod[~axis]))
    table = every + np.bincount(d2, minlength=ctx.q)
    table[[ctx.zero, ctx.one]] = -1
    return table


@_per_field
def weierstrass_family(ctx: FieldContext) -> np.ndarray:
    """``count_weierstrass(ctx, WeierstrassParams(a, b)).total`` at
    ``[a, b]`` for every (a, b), -1 where the parameters are invalid."""
    t = numpy_tables(ctx)
    q = ctx.q
    codes = np.arange(q)
    x_plus_b = t.vadd(codes[:, None], codes[None, :])     # [x, b]

    def rows(a):
        left = t.vmul(codes, t.vadd(codes, a[:, None]))       # x(x+a) at [a, x]
        return 1 + t.nsqrt[t.vmul(left[:, :, None], x_plus_b)].sum(axis=1)
    return _excluded_ab(_rows_over_a(q, q * q, rows), np.eye(q, dtype=bool))


@_per_field
def general_huff_quartic_family(ctx: FieldContext) -> np.ndarray:
    """``count_general_huff_quartic(ctx, GeneralHuffParams(a, b)).total``
    at ``[a, b]`` for every (a, b), -1 where the parameters are invalid."""
    t = numpy_tables(ctx)
    q = ctx.q
    codes = np.arange(q)
    x2 = t.sq[1:, None]                                   # nonzero x
    two_b = t.vadd(codes, codes)[None, :]
    # b^2 x^4 - 2b x^2 + 1 at [x, b]; row a adds 4a x^2
    rest = t.vadd(t.vsub(t.vmul(t.sq[None, :], t.vmul(x2, x2)), t.vmul(two_b, x2)),
                  ctx.one)
    four = ctx.element(4)

    def rows(a):
        # rest + 4a x^2 at [a, x, b]
        four_a_x2 = t.vmul(t.vmul(four, a)[:, None, None], x2)
        return q + 3 + t.phi[t.vadd(rest, four_a_x2)].sum(axis=1)
    return _excluded_ab(_rows_over_a(q, rest.size, rows), np.eye(q, dtype=bool))


# ---------------------------------------------------------------------------
# model-to-model maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MapReport:
    """Outcome of applying a rational model map to every affine point.

    For pairs with an explicit pointwise map, ``mapped`` counts source
    points with nonvanishing denominator, the exceptional counts are the
    source/target points where the forward/inverse map denominators
    vanish, and the flags certify injectivity and that every image lies
    on the target curve.  For parameter-level pairs (no printed point
    map) only the totals are compared and the flags are None.
    """

    source_model: str
    target_model: str
    source_params: tuple
    target_params: tuple
    mapped: int
    exceptional_source: int
    exceptional_target: int
    injective: bool | None
    images_on_target: bool | None
    source_total: int
    target_total: int

    @property
    def totals_match(self) -> bool:
        return self.source_total == self.target_total


def _affine_points(grid: np.ndarray) -> list[tuple[int, int]]:
    xs, ys = np.nonzero(grid)
    return list(zip(xs.tolist(), ys.tolist()))


def _weierstrass_points(ctx: FieldContext, a: int, b: int) -> list[tuple[int, int]]:
    t = numpy_tables(ctx)
    return _affine_points(_weierstrass_fx(t, a, b)[:, None] == t.sq[None, :])


def map_points(ctx: FieldContext, source_model: str, target_model: str,
               params) -> MapReport:
    """Apply the model isomorphism pointwise and report the bookkeeping.

    Supported pairs: ghuff<->weier (explicit rational maps
    u = (bx - ay)/(y - x), v = (b - a)/(y - x) and inverse
    x = (u + a)/v, y = (u + b)/v), huff->ghuff (parameters squared),
    and huff->edwards (parameter d = (a - b)/(a + b), count-level only).
    """
    pair = (source_model, target_model)
    if pair == ("ghuff", "weier"):
        return _map_ghuff_weier(ctx, params, forward=True)
    if pair == ("weier", "ghuff"):
        return _map_ghuff_weier(ctx, params, forward=False)
    if pair == ("huff", "ghuff"):
        return _map_huff_ghuff(ctx, params)
    if pair == ("huff", "edwards"):
        return _map_huff_edwards(ctx, params)
    raise ParameterError(f"unsupported model pair {source_model} -> {target_model}")


def _map_ghuff_weier(ctx: FieldContext, params: GeneralHuffParams,
                     forward: bool) -> MapReport:
    gparams = GeneralHuffParams(params.a, params.b)
    gparams.validate(ctx)
    a, b = params.a, params.b
    g_pts = _affine_points(_general_huff_grid(ctx, a, b))
    w_pts = _weierstrass_points(ctx, a, b)
    g_exc = sum(1 for (x, y) in g_pts if x == y)          # y = x kills the map
    w_exc = sum(1 for (_, v) in w_pts if v == 0)          # v = 0 kills the inverse
    images = []
    on_target = True
    if forward:
        w_set = set(w_pts)
        for (x, y) in g_pts:
            if x == y:
                continue
            inv_d = ctx.inv(ctx.sub(y, x))
            u = ctx.mul(ctx.sub(ctx.mul(b, x), ctx.mul(a, y)), inv_d)
            v = ctx.mul(ctx.sub(b, a), inv_d)
            images.append((u, v))
            if (u, v) not in w_set:
                on_target = False
        mapped, exc_src, exc_tgt = len(images), g_exc, w_exc
        src_total, tgt_total = len(g_pts) + 3, len(w_pts) + 1
    else:
        g_set = set(g_pts)
        for (u, v) in w_pts:
            if v == 0:
                continue
            inv_v = ctx.inv(v)
            x = ctx.mul(ctx.add(u, a), inv_v)
            y = ctx.mul(ctx.add(u, b), inv_v)
            images.append((x, y))
            if (x, y) not in g_set:
                on_target = False
        mapped, exc_src, exc_tgt = len(images), w_exc, g_exc
        src_total, tgt_total = len(w_pts) + 1, len(g_pts) + 3
    return MapReport(
        source_model="ghuff" if forward else "weier",
        target_model="weier" if forward else "ghuff",
        source_params=(a, b), target_params=(a, b),
        mapped=mapped, exceptional_source=exc_src, exceptional_target=exc_tgt,
        injective=len(set(images)) == len(images),
        images_on_target=on_target,
        source_total=src_total, target_total=tgt_total,
    )


def _map_huff_ghuff(ctx: FieldContext, params: HuffParams) -> MapReport:
    params.validate(ctx)
    a2, b2 = ctx.mul(params.a, params.a), ctx.mul(params.b, params.b)
    src = count_huff(ctx, params)
    tgt = count_general_huff(ctx, GeneralHuffParams(a2, b2))
    return MapReport(
        source_model="huff", target_model="ghuff",
        source_params=(params.a, params.b), target_params=(a2, b2),
        mapped=0, exceptional_source=0, exceptional_target=0,
        injective=None, images_on_target=None,
        source_total=src.total, target_total=tgt.total,
    )


def _map_huff_edwards(ctx: FieldContext, params: HuffParams) -> MapReport:
    params.validate(ctx)
    apb = ctx.add(params.a, params.b)
    if apb == ctx.zero:
        raise ParameterError("Edwards parameter (a-b)/(a+b) undefined: a + b = 0")
    d = ctx.mul(ctx.sub(params.a, params.b), ctx.inv(apb))
    d2 = ctx.mul(d, d)
    src = count_huff(ctx, params)
    affine = count_edwards_affine(ctx, EdwardsParams(d2))
    return MapReport(
        source_model="huff", target_model="edwards",
        source_params=(params.a, params.b), target_params=(d2,),
        mapped=0, exceptional_source=0, exceptional_target=0,
        injective=None, images_on_target=None,
        source_total=src.total, target_total=affine,
    )
