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
totals at every parameter, -1 where the parameters are invalid.  Each
model's totals come from one kernel, which its count and its family both
call.  A change of scale maps the curve (a, b) onto (c^2 a, c^2 b), and a
Huff curve depends on b/a alone, so an (a, b) family reads its kernel at
one curve (a0, a0 b/a) per scaling class and gathers that row at every
(a, b); the Edwards family is its kernel at every d2.  Both walk their
parameters in ``ff.row_blocks`` blocks.

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


# each model's one totals kernel: a and b are codes, or arrays broadcast
# against the axis the kernel walks, which it adds last and sums away

def _general_huff_totals(t: NumpyTables, a, b):
    """Total at each (a, b), line by line through the origin: x(a y^2 - 1) =
    y(b x^2 - 1) at y = s x reads x^2 s(a s - b) = 1 - s."""
    s = np.arange(1, t.q)
    return 4 + _off_axis(t, _line_x2(t, a, b, t.one_minus[s], s))


def _huff_totals(t: NumpyTables, a, b):
    """Total at each (a, b), line by line through the origin: a x(y^2 - 1) =
    b y(x^2 - 1) at y = s x reads x^2 s(a s - b) = a - b s."""
    s = np.arange(1, t.q)
    return 4 + _off_axis(t, _line_x2(t, a, b, t.vsub(a, t.vmul(b, s)), s))


def _weierstrass_totals(t: NumpyTables, a, b):
    """Total at each (a, b), x by x: the square roots of x(x+a)(x+b)."""
    return 1 + t.nsqrt[_weierstrass_fx(t, a, b, np.arange(t.q))].sum(axis=-1)


def _quartic_totals(t: NumpyTables, a, b):
    """Total at each (a, b) by the quadratic-in-y route: 3 + 1 + (q-1) plus
    phi(b^2 x^4 + (4a - 2b) x^2 + 1) summed over the nonzero x."""
    two_a, x2 = t.vadd(a, a), t.sq[1:]
    mid = t.vsub(t.vadd(two_a, two_a), t.vadd(b, b))
    val = t.vadd(t.vadd(t.vmul(t.sq[b], t.vmul(x2, x2)), t.vmul(mid, x2)), t.one)
    return t.q + 3 + t.phi[val].sum(axis=-1)


def count_general_huff(ctx: FieldContext, params: GeneralHuffParams) -> CurveCount:
    """Affine count line by line through the origin; three points at infinity."""
    params.validate(ctx)
    total = int(_general_huff_totals(numpy_tables(ctx), params.a, params.b))
    return CurveCount(affine=total - 3, at_infinity=3, total=total)


def count_huff(ctx: FieldContext, params: HuffParams) -> CurveCount:
    """Affine count line by line through the origin; three points at infinity."""
    params.validate(ctx)
    total = int(_huff_totals(numpy_tables(ctx), params.a, params.b))
    return CurveCount(affine=total - 3, at_infinity=3, total=total)


def count_weierstrass(ctx: FieldContext, params: WeierstrassParams) -> CurveCount:
    """Affine count x by x, the square roots of x(x+a)(x+b) read from
    ``nsqrt``; one point at infinity."""
    params.validate(ctx)
    total = int(_weierstrass_totals(numpy_tables(ctx), params.a, params.b))
    return CurveCount(affine=total - 1, at_infinity=1, total=total)


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
    total = int(_quartic_totals(numpy_tables(ctx), params.a, params.b))
    return CurveCount(affine=total - 3, at_infinity=3, total=total)


# ---------------------------------------------------------------------------
# whole families, counted once per field
# ---------------------------------------------------------------------------

def _family(ctx: FieldContext, totals, squares: bool = False) -> np.ndarray:
    """``totals(t, a, b)`` at ``[a, b]`` for every (a, b), -1 where
    ``valid_pairs(ctx, squares)`` is false.

    (x, y) -> (x/c, y/c) maps the general Huff curve (a, b) onto (c^2 a,
    c^2 b), (u, v) -> (c^2 u, c^3 v) does so for Weierstrass, and x -> c x
    turns the quartic sum at (c^2 a, c^2 b) into the one at (a, b).  So the
    total at (a, b) is the total at (a0, a0 r), r = b/a, with a0 = 1 where a
    is a square and a0 = gen (never a square) elsewhere.  The Huff curve
    (``squares``) depends on b/a alone: a0 = 1 serves every a."""
    t, q, codes = numpy_tables(ctx), ctx.q, np.arange(ctx.q)
    a0 = np.array([ctx.one] if squares else [ctx.one, ctx.gen])[:, None]
    per_r = np.concatenate([totals(t, a0[..., None], t.vmul(a0, codes[r])[..., None])
                            for r in row_blocks(q, len(a0) * q)], axis=1)
    # both rules hold at (a, b) iff at (1, b/a), and inv_[0] = 0 sends a = 0
    # to r = 0, so the invalid pairs are the invalid r
    per_r[:, ~_pair_rule(ctx, ctx.one, codes, squares)] = -1
    row = (len(a0) - 1) * q * (t.nsqrt == 0)              # where a's a0 starts in per_r
    table = np.empty((q, q), dtype=np.int64)
    for rows in row_blocks(q, q):
        a = codes[rows, None]
        np.take(per_r, row[a] + t.vmul(codes, t.inv_[a]), out=table[rows])
    return table


@per_field
def general_huff_family(ctx: FieldContext) -> np.ndarray:
    """``count_general_huff(ctx, GeneralHuffParams(a, b)).total`` at
    ``[a, b]`` for every (a, b), -1 where the parameters are invalid."""
    return _family(ctx, _general_huff_totals)


@per_field
def huff_family(ctx: FieldContext) -> np.ndarray:
    """``count_huff(ctx, HuffParams(a, b)).total`` at ``[a, b]`` for every
    (a, b), -1 where the parameters are invalid."""
    return _family(ctx, _huff_totals, squares=True)


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
    return _family(ctx, _weierstrass_totals)


@per_field
def general_huff_quartic_family(ctx: FieldContext) -> np.ndarray:
    """``count_general_huff_quartic(ctx, GeneralHuffParams(a, b)).total``
    at ``[a, b]`` for every (a, b), -1 where the parameters are invalid."""
    return _family(ctx, _quartic_totals)


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
