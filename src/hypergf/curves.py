"""Rational point counts for four plane curve models, with no characters.

Each count walks one axis and reads ``nsqrt``, the bincount of the squares,
so no character or discriminant enters and the counts serve as ground truth
for the series.  A (general) Huff point with x y != 0 lies on exactly one
line y = s x, s != 0, where the equation reads x**2 s(a s - b) = num(s); the
origin is its only other affine point.  Weierstrass takes y**2 = f(x) and
Edwards y**2 = (1 - x**2)/(1 - d2 x**2) at each x.  Points at infinity are
fixed constants read off the homogenized equations: three for the Huff
models, one for Weierstrass; the Edwards count is reported affine-only and
any completion convention is left to the caller.

The audit needs whole families of curves over one field, so each count
also has a family form (``general_huff_family``, ``huff_family``,
``weierstrass_family``, ``general_huff_quartic_family``,
``edwards_affine_family``): a memoized, read-only int64 table of the
totals at every parameter, -1 where the parameters are invalid.  A Huff
count depends only on b/a, so Huff and Edwards are the per-curve sums at
every b/a or d2, in ``ff.row_blocks`` blocks.  General Huff and
Weierstrass are linear in (a, b): a point fixes a line s u - v = m in two
parameters (for general Huff, b = a (y/x) - (x-y)/(x^2 y)), read from the
counts of all q**2 lines, an O(q**3) gather over blocks of s within
``ff.BLOCK_CELLS``.  The quartic route bincounts c per b and reads it
through one int64 product with the q x q table phi(c + 4a).

Also here: the rational maps between the general Huff model and the
Weierstrass model v**2 = u(u+a)(u+b), applied to every point, listed along
the same lines or as (u, +-sqrt(f(u))), with their exceptional loci
counted rather than skipped.
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


def _weierstrass_fx(t: NumpyTables, a: int, b: int, x: np.ndarray) -> np.ndarray:
    return t.vmul(x, t.vmul(t.vadd(x, a), t.vadd(x, b)))


def _on_weierstrass(ctx: FieldContext, a: int, b: int):
    t = numpy_tables(ctx)
    return lambda x, y: t.sq[y] == _weierstrass_fx(t, a, b, x)


def _line_x2(t: NumpyTables, a, b, num, s):
    """x**2 at the points of x**2 s(a s - b) = num on the line y = s x, for
    slopes s != 0 (broadcast arrays); 0 where s(a s - b) = 0 (``inv_[0]`` is
    0), a line that the curve's own condition leaves with only the origin."""
    return t.vmul(num, t.inv_[t.vmul(s, t.vsub(t.vmul(a, s), b))])


def _off_axis(t: NumpyTables, x2) -> np.ndarray:
    """#{x != 0 : x**2 = x2}, summed over the last axis."""
    return (t.nsqrt[x2] - (x2 == 0)).sum(axis=-1)


def count_general_huff(ctx: FieldContext, params: GeneralHuffParams) -> CurveCount:
    """Affine count line by line through the origin; three points at infinity."""
    params.validate(ctx)
    t, a, b, s = numpy_tables(ctx), params.a, params.b, np.arange(1, ctx.q)
    # x(a y^2 - 1) = y(b x^2 - 1) at y = s x: x^2 s(a s - b) = 1 - s
    affine = 1 + int(_off_axis(t, _line_x2(t, a, b, t.one_minus[s], s)))
    return CurveCount(affine=affine, at_infinity=3, total=affine + 3)


def count_huff(ctx: FieldContext, params: HuffParams) -> CurveCount:
    """Affine count line by line through the origin; three points at infinity."""
    params.validate(ctx)
    t, a, b, s = numpy_tables(ctx), params.a, params.b, np.arange(1, ctx.q)
    # a x(y^2 - 1) = b y(x^2 - 1) at y = s x: x^2 s(a s - b) = a - b s
    affine = 1 + int(_off_axis(t, _line_x2(t, a, b, t.vsub(a, t.vmul(b, s)), s)))
    return CurveCount(affine=affine, at_infinity=3, total=affine + 3)


def count_weierstrass(ctx: FieldContext, params: WeierstrassParams) -> CurveCount:
    """Affine count x by x, the square roots of x(x+a)(x+b) read from
    ``nsqrt``; one point at infinity."""
    params.validate(ctx)
    t = numpy_tables(ctx)
    affine = int(t.nsqrt[_weierstrass_fx(t, params.a, params.b, np.arange(ctx.q))].sum())
    return CurveCount(affine=affine, at_infinity=1, total=affine + 1)


def _edwards_affine(t: NumpyTables, d2) -> np.ndarray:
    """Affine count at each d2 (broadcast against x on the last axis):
    y**2 = (1 - x**2)/(1 - d2 x**2), and no y where d2 x**2 = 1."""
    den = t.one_minus[t.vmul(d2, t.sq)]
    return (t.nsqrt[t.vmul(t.one_minus[t.sq], t.inv_[den])] * (den != 0)).sum(axis=-1)


def count_edwards_affine(ctx: FieldContext, params: EdwardsParams) -> int:
    """Affine solution count of the Edwards equation, x by x.  No points
    at infinity are added; completion conventions live upstream."""
    params.validate(ctx)
    return int(_edwards_affine(numpy_tables(ctx), params.d2))


def count_general_huff_quartic(ctx: FieldContext,
                               params: GeneralHuffParams) -> CurveCount:
    """The quadratic-in-y route: total = 3 + 1 + (q-1) + sum over nonzero x
    of phi(b^2 x^4 + (4a - 2b) x^2 + 1).

    This is the alternative counting path; it must agree with the
    line count (and does, which pins the constant at q+3, not q+4).
    """
    params.validate(ctx)
    t, q, a, b = numpy_tables(ctx), ctx.q, params.a, params.b
    mid = ctx.sub(ctx.mul(ctx.element(4), a), ctx.add(b, b))  # 4a - 2b
    x2 = t.sq[1:]                                         # nonzero x
    val = t.vadd(t.vadd(t.vmul(ctx.mul(b, b), t.vmul(x2, x2)), t.vmul(mid, x2)), ctx.one)
    affine = q + int(t.phi[val].sum())                    # 1 + (q-1) + sum
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
    # over a, count_huff's lines read x^2 s(s - r) = 1 - r s with r = b/a
    t, q, codes = numpy_tables(ctx), ctx.q, np.arange(ctx.q)
    s = np.arange(1, q)
    per_r = np.concatenate([4 + _off_axis(t, _line_x2(t, ctx.one, r, t.one_minus[t.vmul(r, s)], s))
                            for r in (codes[rows, None] for rows in row_blocks(q, q - 1))])
    # a^2 = b^2 at r = +-1, and inv_[0] = 0 sends a = 0 or b = 0 to r = 0
    per_r[[ctx.zero, ctx.one, t.neg_[ctx.one]]] = -1
    table = np.empty((q, q), dtype=np.int64)
    for rows in row_blocks(q, q):
        table[rows] = per_r[t.vmul(codes, t.inv_[codes[rows, None]])]
    return table


@per_field
def edwards_affine_family(ctx: FieldContext) -> np.ndarray:
    """``count_edwards_affine(ctx, EdwardsParams(d2))`` at ``[d2]`` for
    every d2, -1 at d2 in {0, 1}."""
    t, q, codes = numpy_tables(ctx), ctx.q, np.arange(ctx.q)
    table = np.concatenate([_edwards_affine(t, codes[rows, None]) for rows in row_blocks(q, q)])
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


def _square_roots(t: NumpyTables, root: np.ndarray, c: np.ndarray):
    """(i, w) over every w with w**2 = c[i]: w = 0 where c[i] = 0, and both
    signs where c[i] is a nonzero square (``root`` holds one of them)."""
    i = np.flatnonzero(t.nsqrt[c])
    w = root[c[i]]
    twice = w != 0
    return np.r_[i, i[twice]], np.r_[w, t.neg_[w[twice]]]


def _model_points(t: NumpyTables, a: int, b: int):
    """(x, y) code arrays of the affine points of the general Huff and the
    Weierstrass curve (a, b): the origin and x = +-sqrt(x^2) on each line
    y = s x, and (u, +-sqrt(f(u))) at each u, from one root table."""
    root = np.zeros(t.q, dtype=np.int64)
    root[t.sq] = np.arange(t.q)
    s = np.arange(1, t.q)
    x2 = _line_x2(t, a, b, t.one_minus[s], s)
    i, x = _square_roots(t, root, x2[x2 != 0])
    return ((np.r_[0, x], np.r_[0, t.vmul(s[x2 != 0][i], x)]),
            _square_roots(t, root, _weierstrass_fx(t, a, b, np.arange(t.q))))


def _map_ghuff_weier(ctx: FieldContext, params: GeneralHuffParams,
                     source: str, target: str) -> MapReport:
    GeneralHuffParams(params.a, params.b).validate(ctx)
    t = numpy_tables(ctx)
    a, b = params.a, params.b
    ghuff, weier = _model_points(t, a, b)

    def over(num1, num2, den):                     # (num1/den, num2/den)
        inv = t.vinv(den)
        return t.vmul(num1, inv), t.vmul(num2, inv)

    # each model: its affine points, its equation, points at infinity, where
    # its map to the other model is defined, and that map
    models = {
        "ghuff": (ghuff, _on_general_huff(ctx, a, b), 3, lambda x, y: x != y,
                  lambda x, y: over(t.vsub(t.vmul(b, x), t.vmul(a, y)), ctx.sub(b, a),
                                    t.vsub(y, x))),
        "weier": (weier, _on_weierstrass(ctx, a, b), 1, lambda u, v: v != 0,
                  lambda u, v: over(t.vadd(u, a), t.vadd(u, b), v)),
    }
    src, _, src_inf, src_defined, apply = models[source]
    tgt, on_tgt, tgt_inf, tgt_defined, _ = models[target]
    keep = src_defined(*src)
    image = apply(src[0][keep], src[1][keep])
    mapped = len(image[0])
    return MapReport(
        source, target, (a, b), (a, b), mapped=mapped,
        exceptional_source=len(keep) - mapped, exceptional_target=int((~tgt_defined(*tgt)).sum()),
        injective=len(np.unique(image[0] * ctx.q + image[1])) == mapped,
        images_on_target=bool(on_tgt(*image).all()),
        source_total=len(keep) + src_inf, target_total=len(tgt[0]) + tgt_inf)
