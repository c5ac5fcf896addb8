"""Brute-force rational point counts for four plane curve models.

Counting is exhaustive: one enumerator tests a model's defining equation
at every affine pair (x, y), in blocks of x rows within ``ff.BLOCK_CELLS``
cells, with no discriminant logic, so these counts serve as ground truth
for everything else in the package.  Points at infinity are fixed
constants read off the homogenized equations: three for the Huff models,
one for Weierstrass; the Edwards count is reported affine-only and any
completion convention is left to the caller.

The audit needs whole families of curves over one field, so each count
also has a family form (``general_huff_family``, ``huff_family``,
``weierstrass_family``, ``general_huff_quartic_family``,
``edwards_affine_family``): a memoized, read-only int64 table of the
totals at every parameter, -1 where the parameters are invalid.  They
count what the per-parameter functions count, with no characters beyond
the quartic route's own and no discriminant shortcut.  Every family is
one histogram plus one read.  Each exhaustive equation is linear in its
parameters, so an affine pair lies on every curve of the family, on none,
or fixes a parameter, and the pairs are bincounted by what they fix:
Huff and Edwards one parameter, O(q**2); general Huff and Weierstrass a
line s u - v = m in two (for general Huff, b = a (y/x) - (x-y)/(x^2 y)),
read from the counts of all q**2 lines, an O(q**3) gather over blocks of
s within ``ff.BLOCK_CELLS``.  The quartic route bincounts c per b and
reads it through one int64 product with the q x q table phi(c + 4a).  No
family build holds more than a few q x q tables.

Also here: the rational maps between the general Huff model and the
Weierstrass model v**2 = u(u+a)(u+b), applied to every enumerated point
with their exceptional loci counted rather than skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ff import FieldContext, NumpyTables, numpy_tables, per_field, row_blocks


class ParameterError(ValueError):
    """Curve parameters violate the model's nondegeneracy conditions."""


def _pair_rule(ctx: FieldContext, a, b, squares: bool):
    """:func:`valid_pairs` at codes a, b (ints or broadcast arrays)."""
    if squares:
        sq = numpy_tables(ctx).sq
        a, b = sq[a], sq[b]
    return (a != 0) & (b != 0) & (a != b)


def valid_pairs(ctx: FieldContext, squares: bool = False) -> np.ndarray:
    """True at ``[a, b]`` where the general Huff and Weierstrass models
    accept (a, b): a b != 0 and a != b.  With ``squares``, the Huff model's
    rule: a b != 0 and a**2 != b**2."""
    codes = np.arange(ctx.q)
    return _pair_rule(ctx, codes[:, None], codes[None, :], squares)


def _check_pair(ctx: FieldContext, model: str, a: int, b: int, squares: bool = False):
    """ValueError unless a, b are element codes, else ParameterError unless valid."""
    if not _pair_rule(ctx, ctx.check_code(a), ctx.check_code(b), squares):
        rule = "a**2 != b**2" if squares else "a != b"
        raise ParameterError(f"{model} model needs {rule if a and b else 'a, b nonzero'}")


@dataclass(frozen=True)
class GeneralHuffParams:
    """x(a y**2 - 1) = y(b x**2 - 1) with a b (a - b) != 0."""

    a: int
    b: int

    def validate(self, ctx: FieldContext):
        _check_pair(ctx, "general Huff", self.a, self.b)


@dataclass(frozen=True)
class HuffParams:
    """a x(y**2 - 1) = b y(x**2 - 1) with a, b nonzero and a**2 != b**2."""

    a: int
    b: int

    def validate(self, ctx: FieldContext):
        _check_pair(ctx, "Huff", self.a, self.b, squares=True)


@dataclass(frozen=True)
class WeierstrassParams:
    """y**2 = x(x+a)(x+b) with roots 0, -a, -b distinct."""

    a: int
    b: int

    def validate(self, ctx: FieldContext):
        _check_pair(ctx, "Weierstrass", self.a, self.b)


@dataclass(frozen=True)
class EdwardsParams:
    """x**2 + y**2 = 1 + d2 x**2 y**2 with d2 not in {0, 1}."""

    d2: int

    def validate(self, ctx: FieldContext):
        if ctx.check_code(self.d2) == ctx.zero:
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


# each model's defining equation (see its parameter class) as a test at
# broadcast arrays of x and y codes

def _on_general_huff(ctx: FieldContext, a: int, b: int):
    t = numpy_tables(ctx)
    a_sq_m1 = t.vsub(t.vmul(a, t.sq), ctx.one)
    b_sq_m1 = t.vsub(t.vmul(b, t.sq), ctx.one)
    return lambda x, y: t.vmul(x, a_sq_m1[y]) == t.vmul(b_sq_m1[x], y)


def _on_huff(ctx: FieldContext, a: int, b: int):
    t = numpy_tables(ctx)
    sq_m1 = t.vsub(t.sq, ctx.one)
    return lambda x, y: t.vmul(t.vmul(a, x), sq_m1[y]) == t.vmul(sq_m1[x], t.vmul(b, y))


def _weierstrass_fx(t: NumpyTables, a: int, b: int, x: np.ndarray) -> np.ndarray:
    return t.vmul(x, t.vmul(t.vadd(x, a), t.vadd(x, b)))


def _on_weierstrass(ctx: FieldContext, a: int, b: int):
    t = numpy_tables(ctx)
    return lambda x, y: t.sq[y] == _weierstrass_fx(t, a, b, x)


def _on_edwards(ctx: FieldContext, d2: int):
    t = numpy_tables(ctx)
    return lambda x, y: (t.vadd(t.sq[x], t.sq[y])
                         == t.vadd(ctx.one, t.vmul(d2, t.vmul(t.sq[x], t.sq[y]))))


def _affine_points(ctx: FieldContext, on_curve) -> np.ndarray:
    """Pair codes x*q + y, ascending, of the affine solutions of
    ``on_curve``, tested on blocks of x rows against every y."""
    q, codes = ctx.q, np.arange(ctx.q)
    return np.concatenate([xs.start * q + on_curve(codes[xs, None], codes).ravel().nonzero()[0]
                           for xs in row_blocks(q, q)])


def count_general_huff(ctx: FieldContext, params: GeneralHuffParams) -> CurveCount:
    """Affine count by exhaustive enumeration; three points at infinity."""
    params.validate(ctx)
    affine = len(_affine_points(ctx, _on_general_huff(ctx, params.a, params.b)))
    return CurveCount(affine=affine, at_infinity=3, total=affine + 3)


def count_huff(ctx: FieldContext, params: HuffParams) -> CurveCount:
    """Affine count by exhaustive enumeration; three points at infinity."""
    params.validate(ctx)
    affine = len(_affine_points(ctx, _on_huff(ctx, params.a, params.b)))
    return CurveCount(affine=affine, at_infinity=3, total=affine + 3)


def count_weierstrass(ctx: FieldContext, params: WeierstrassParams) -> CurveCount:
    """Affine solutions of y**2 = x(x+a)(x+b) counted by matching squares
    (the y**2 multiplicity table is built by enumerating every y once);
    one point at infinity."""
    params.validate(ctx)
    t = numpy_tables(ctx)
    affine = int(t.nsqrt[_weierstrass_fx(t, params.a, params.b, np.arange(ctx.q))].sum())
    return CurveCount(affine=affine, at_infinity=1, total=affine + 1)


def count_edwards_affine(ctx: FieldContext, params: EdwardsParams) -> int:
    """Exhaustive affine solution count of the Edwards equation.  No
    points at infinity are added; completion conventions live upstream."""
    params.validate(ctx)
    return len(_affine_points(ctx, _on_edwards(ctx, params.d2)))


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

def _line_counts(ctx: FieldContext, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """K[s, m] = #{i : s u[i] - v[i] = m}, by one histogram H[u, v] and a
    gather with no field arithmetic per cell: with sub[c, m] = c - m, row s
    is the sum over u of H[u, sub[s u]], added one u at a time."""
    t, q, codes = numpy_tables(ctx), ctx.q, np.arange(ctx.q)
    hist = np.bincount(u * q + v, minlength=q * q).reshape(q, q)
    sub = t.vsub(codes[:, None], codes)
    counts = np.zeros((q, q), dtype=np.int64)
    for s in row_blocks(q, q):
        rows = counts[s]
        for hist_u, su in zip(hist, t.vmul(codes[s, None], codes).T):
            rows += hist_u[sub[su]]
    return counts


@per_field
def general_huff_family(ctx: FieldContext) -> np.ndarray:
    """``count_general_huff(ctx, GeneralHuffParams(a, b)).total`` at
    ``[a, b]`` for every (a, b), -1 where the parameters are invalid."""
    # a x y^2 - b x^2 y = x - y: the origin lies on every curve, the other
    # axis points on none, and x y != 0 fixes b = a (y/x) - (x-y)/(x^2 y)
    t = numpy_tables(ctx)
    nz = np.arange(1, ctx.q)
    x, y = nz[:, None], nz[None, :]
    inv_x2y = t.vinv(t.vmul(t.sq[x], y))
    slope = t.vmul(t.vmul(x, t.sq[y]), inv_x2y).ravel()   # y/x
    offset = t.vmul(t.vsub(x, y), inv_x2y).ravel()        # (x-y)/(x^2 y)
    return np.where(valid_pairs(ctx), 1 + 3 + _line_counts(ctx, slope, offset), -1)


@per_field
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
    return np.where(valid_pairs(ctx, squares=True), table, -1)


@per_field
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


@per_field
def weierstrass_family(ctx: FieldContext) -> np.ndarray:
    """``count_weierstrass(ctx, WeierstrassParams(a, b)).total`` at
    ``[a, b]`` for every (a, b), -1 where the parameters are invalid."""
    # y^2 = x^3 + (a+b) x^2 + ab x: x = 0 gives the origin on every curve, and
    # x != 0 fixes the line (a+b)(-x) - (-c) = ab with c = y^2/x - x^2
    t = numpy_tables(ctx)
    codes = np.arange(ctx.q)
    x = codes[1:, None]
    minus_c = t.vsub(t.sq[x], t.vmul(t.sq, t.inv_[x])).ravel()       # [x, y]
    minus_x = np.repeat(t.neg_[1:], ctx.q)
    at = t.vadd(codes[:, None], codes), t.vmul(codes[:, None], codes)  # a+b, ab
    return np.where(valid_pairs(ctx), 1 + 1 + _line_counts(ctx, minus_x, minus_c)[at], -1)


@per_field
def general_huff_quartic_family(ctx: FieldContext) -> np.ndarray:
    """``count_general_huff_quartic(ctx, GeneralHuffParams(a, b)).total``
    at ``[a, b]`` for every (a, b), -1 where the parameters are invalid."""
    # for x != 0, b^2 x^4 + (4a - 2b) x^2 + 1 = x^2 (c + 4a) with
    # c = (b x - 1/x)^2, and phi(x^2 w) = phi(w); so the sum over x at (a, b)
    # is (hist @ phi)[b, a], with hist[b, v] the number of x with c = v and
    # phi[v, a] = phi(v + 4a)
    t = numpy_tables(ctx)
    q = ctx.q
    codes = np.arange(q)
    x = codes[1:, None]
    c = t.sq[t.vsub(t.vmul(x, codes), t.inv_[x])]                    # [x, b]
    hist = np.bincount((codes * q + c).ravel(), minlength=q * q).reshape(q, q)
    phi = t.phi[t.vadd(codes[:, None], t.vmul(ctx.element(4), codes))]
    # each row of hist sums to q - 1 and |phi| <= 1, so the int64 product is
    # exact: every entry is at most q - 1 < q^2 in absolute value
    return np.where(valid_pairs(ctx), q + 3 + (hist @ phi).T, -1)


# ---------------------------------------------------------------------------
# model-to-model maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MapReport:
    """Outcome of applying a rational model map to every affine point.

    ``mapped`` counts source points with nonvanishing denominator, the
    exceptional counts are the source/target points where the
    forward/inverse map denominators vanish, and the flags certify
    injectivity and that every image lies on the target curve.
    """

    source_model: str
    target_model: str
    source_params: tuple
    target_params: tuple
    mapped: int
    exceptional_source: int
    exceptional_target: int
    injective: bool
    images_on_target: bool
    source_total: int
    target_total: int


def map_points(ctx: FieldContext, source_model: str, target_model: str,
               params) -> MapReport:
    """Apply the model isomorphism pointwise and report the bookkeeping.

    Supported pairs: ghuff<->weier, by the explicit rational maps
    u = (bx - ay)/(y - x), v = (b - a)/(y - x) and inverse
    x = (u + a)/v, y = (u + b)/v.
    """
    if (source_model, target_model) in (("ghuff", "weier"), ("weier", "ghuff")):
        return _map_ghuff_weier(ctx, params, source_model, target_model)
    raise ParameterError(f"unsupported model pair {source_model} -> {target_model}")


def _map_ghuff_weier(ctx: FieldContext, params: GeneralHuffParams,
                     source: str, target: str) -> MapReport:
    GeneralHuffParams(params.a, params.b).validate(ctx)
    t = numpy_tables(ctx)
    a, b = params.a, params.b

    def over(num1, num2, den):                     # (num1/den, num2/den)
        inv = t.vinv(den)
        return t.vmul(num1, inv), t.vmul(num2, inv)

    # each model: its equation, points at infinity, where its map to the
    # other model is defined, and that map
    models = {
        "ghuff": (_on_general_huff(ctx, a, b), 3, lambda x, y: x != y,
                  lambda x, y: over(t.vsub(t.vmul(b, x), t.vmul(a, y)), ctx.sub(b, a),
                                    t.vsub(y, x))),
        "weier": (_on_weierstrass(ctx, a, b), 1, lambda u, v: v != 0,
                  lambda u, v: over(t.vadd(u, a), t.vadd(u, b), v)),
    }
    on_src, src_inf, src_defined, apply = models[source]
    on_tgt, tgt_inf, tgt_defined, _ = models[target]
    src, tgt = (np.divmod(_affine_points(ctx, on), ctx.q) for on in (on_src, on_tgt))
    keep = src_defined(*src)
    image = apply(src[0][keep], src[1][keep])
    mapped = len(image[0])
    return MapReport(
        source, target, (a, b), (a, b), mapped=mapped,
        exceptional_source=len(keep) - mapped, exceptional_target=int((~tgt_defined(*tgt)).sum()),
        injective=len(np.unique(image[0] * ctx.q + image[1])) == mapped,
        images_on_target=bool(on_tgt(*image).all()),
        source_total=len(keep) + src_inf, target_total=len(tgt[0]) + tgt_inf)
