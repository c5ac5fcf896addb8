"""Identity registry and exact audit sweeps.

Every identity relating curve counts and hypergeometric values that this
package knows about lives in one registry, each entry tagged with a
provenance:

* ``printed``   -- the closed forms exactly as printed in the source
  under audit.  Several of these disagree with brute-force counts, so
  FAIL is an expected, first-class outcome; the value of the audit is
  the exact residual trail.
* ``corrected`` -- replacement forms derived from the enumeration
  oracles (never presented as ground truth of the audited source).
* ``greene`` / ``ono`` -- classical transformation and special-value
  results the audited source quotes; expected to PASS.

Both sides of every identity evaluate to exact rationals; a point
passes iff the residual lhs - rhs is exactly zero.  The designated
primary (lhs) side is the enumeration oracle where one is involved,
otherwise the directly-evaluated series side; each description says
which.  Reports are deterministic: records are sorted by (q, params)
and repeated sweeps emit byte-identical output.

Each identity is evaluated over its whole domain in a field at once.
By Greene's sum q F(lambda) is an integer, so every side of every
identity is an integer over a closed-form denominator fixed per
(identity, field): 1, q, q-1, q^2 or p(p-1).  An evaluator returns each
side as a :class:`Column` of int64 numerators over that denominator.
It reads the per-field family tables of :mod:`hypergf.curves`, the
field's :class:`NumpyTables` and one per-field column of q F(lambda)
built by :func:`two_f_one`.  Residuals
and pass flags are integer column arithmetic, and a report's status
comes from its count of failing rows.  :func:`emit_chunks` renders rows
straight from the columns, a run of one identity's blocks at a time with
each distinct (block, lhs, rhs) formatted once, and yields one byte chunk
per (identity, field) block.  ``Fraction`` appears only in
``PointRecord``s: those a report's ``records`` view builds one block at
a time as it is read, and its capped ``counterexamples``.
"""

from __future__ import annotations

import io
import json
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from typing import Callable, Iterable, Iterator

import numpy as np

from . import curves, hyp
from .chars import phi_at_minus_one, quadratic_character, trivial_character
from .ff import (FieldContext, FieldError, make_field, numpy_tables, odd_prime_powers,
                 per_field, prime_factors, q_cap)
from .hyp import two_f_one

PROVENANCES = ("printed", "corrected", "greene", "ono")
COUNTEREXAMPLE_CAP = 100


@dataclass(frozen=True)
class Column:
    """Exact rationals ``num[i] / den``: int64 numerators over one
    positive denominator, not reduced."""

    num: np.ndarray
    den: int

    def fractions(self) -> list[Fraction]:
        """Every entry as a Fraction, one object per distinct numerator."""
        distinct, where = np.unique(self.num, return_inverse=True)
        made = np.empty(len(distinct), dtype=object)
        made[:] = [Fraction(n, self.den) for n in distinct.tolist()]
        return made[where].tolist()


@dataclass(frozen=True)
class Identity:
    """One registry entry.  ``admissible(p, r)`` says whether F_{p^r} is in
    its domain, before any field is built; ``points(ctx)`` is its domain in
    an admissible field, an (n, k) int array of parameter rows in sorted
    order; ``evaluate(ctx, params)`` takes such an (n, k) array (the whole
    domain or any of its rows) and returns the exact (lhs, rhs) columns at
    its rows, each over a closed-form denominator: 1, q, q-1, q^2 or
    p(p-1)."""

    key: str
    provenance: str
    description: str
    domain_description: str
    param_names: tuple[str, ...]
    points: Callable[[FieldContext], np.ndarray]
    evaluate: Callable[[FieldContext, np.ndarray], tuple[Column, Column]]
    admissible: Callable[[int, int], bool] = lambda p, r: True
    counterpart: str | None = None


@dataclass(frozen=True, slots=True)
class PointRecord:
    identity: str
    q: int
    params: tuple[tuple[str, int], ...]
    lhs: Fraction
    rhs: Fraction
    residual: Fraction
    passed: bool


@dataclass(frozen=True)
class FieldColumns:
    """One identity over its domain in one field: the parameter rows and
    the exact lhs, rhs and residual columns."""

    identity: str
    q: int
    param_names: tuple[str, ...]
    params: np.ndarray
    lhs: Column
    rhs: Column
    residual: Column

    @property
    def passed(self) -> np.ndarray:
        return self.residual.num == 0

    def records(self, rows=slice(None)) -> list[PointRecord]:
        """The records of the given rows, in order."""
        sides = [Column(c.num[rows], c.den).fractions()
                 for c in (self.lhs, self.rhs, self.residual)]
        return [PointRecord(self.identity, self.q, tuple(zip(self.param_names, pt)), *row)
                for pt, *row in zip(self.params[rows].tolist(), *sides,
                                    self.passed[rows].tolist())]


class RecordsView(Sequence):
    """The records of a run of blocks, in order, as a read-only sequence.
    Its length is the blocks' row count; iteration builds one block's
    records at a time, and an index or slice only the records it names
    (a slice as a list).  It compares equal to a list of the same
    records."""

    def __init__(self, blocks: tuple[FieldColumns, ...]):
        self._blocks = blocks
        self._ends = list(accumulate(len(block.params) for block in blocks))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self) -> Iterator[PointRecord]:
        for block in self._blocks:
            yield from block.records()

    def __getitem__(self, index):
        picked = range(len(self))[index]       # raises as a list of this length would
        if isinstance(picked, range):
            return self._at(np.arange(picked.start, picked.stop, picked.step))
        return self._at(np.array([picked]))[0]

    def _at(self, positions: np.ndarray) -> list[PointRecord]:
        """The records at monotonic ``positions``, each block's run of them
        built at once; a block is found by bisecting the cumulative row ends."""
        which = np.searchsorted(self._ends, positions, side="right")
        out: list[PointRecord] = []
        for run in np.split(positions, np.flatnonzero(np.diff(which)) + 1):
            if len(run):
                b = bisect_right(self._ends, run[0])
                out += self._blocks[b].records(run - self._ends[b] + len(self._blocks[b].params))
        return out

    def __eq__(self, other):
        if not isinstance(other, (list, RecordsView)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass(eq=False)
class IdentityReport:
    """One identity audited over a list of fields.  ``columns`` holds one
    :class:`FieldColumns` per admissible field, in q order, and the rest
    is read off them: the failure count, and with it the status, the
    records (every row, a :class:`RecordsView` over the columns) and the
    counterexamples (the first :data:`COUNTEREXAMPLE_CAP` failing rows,
    built the first time they are read)."""

    identity: str
    provenance: str
    columns: tuple[FieldColumns, ...] = field(default=(), repr=False)

    @cached_property
    def failures(self) -> int:
        return sum(int((~block.passed).sum()) for block in self.columns)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    @property
    def truncated(self) -> bool:
        return self.failures > COUNTEREXAMPLE_CAP

    @cached_property
    def records(self) -> RecordsView:
        return RecordsView(self.columns)

    @cached_property
    def counterexamples(self) -> list[PointRecord]:
        out: list[PointRecord] = []
        for block in self.columns:
            failing = np.flatnonzero(~block.passed)[:COUNTEREXAMPLE_CAP - len(out)]
            if len(failing):
                out += block.records(failing)
        return out


# ---------------------------------------------------------------------------
# shared evaluation helpers
# ---------------------------------------------------------------------------

_FIELD_CACHE: dict[tuple[int, int], FieldContext] = {}

# the most cells (the sum over its fields of q**3 or q**2, see _check_work)
# an audit may cost: the whole registry up to q = 156 (3.15e7 cells; 157
# needs 3.54e7)
WORK_BUDGET = 2 ** 25

# every numerator the evaluators form over F_q, residuals included, is
# below 4 q^3 in absolute value (see _check_limits); audits are refused
# unless that stays below 2^62, so the difference of two still fits int64
_SAFE_INT64 = 2 ** 62


def cached_field(p: int, r: int) -> FieldContext:
    ctx = _FIELD_CACHE.get((p, r))
    if ctx is None:
        ctx = _FIELD_CACHE[(p, r)] = make_field(p, r)
    return ctx


def _scaled(num: np.ndarray, factor: int) -> np.ndarray:
    """``num * factor``, raising OverflowError where int64 would wrap."""
    peak = int(np.abs(num).max(initial=0))
    if peak * factor >= _SAFE_INT64:
        raise OverflowError(f"audit numerator {peak} * {factor} leaves int64")
    return num * factor


def _residual(lhs: Column, rhs: Column) -> Column:
    den = lcm(lhs.den, rhs.den)
    return Column(_scaled(lhs.num, den // lhs.den) - _scaled(rhs.num, den // rhs.den), den)


def _times(value: Fraction, k: int) -> int:
    """``value * k``, which must be an integer."""
    num, rem = divmod(value.numerator * k, value.denominator)
    if rem:
        raise ArithmeticError(f"{value} * {k} is not an integer")
    return num


@per_field
def _series_column(ctx: FieldContext) -> np.ndarray:
    """q F(lambda) at every lambda code by :func:`two_f_one`."""
    return np.array([_times(two_f_one(ctx, lam), ctx.q) for lam in range(ctx.q)],
                    dtype=np.int64)


def _transform_arg(ctx: FieldContext, a: np.ndarray) -> np.ndarray:
    """4a / (1+a)**2."""
    t = numpy_tables(ctx)
    return t.vmul(t.vmul(ctx.element(4), a), t.vinv(t.sq[t.vadd(ctx.one, a)]))


def _cornacchia_num(p: int) -> int:
    """2x(-1)^((x+y+1)/2)/(p-1) - (p+1)/(p(p-1)), F(-1) rescaled by
    p/(p-1), times p(p-1)."""
    return _times(hyp.ono_value_minus1(p), p * p) - (p + 1)


# ---------------------------------------------------------------------------
# domains: admissible fields, and parameter rows in sorted order
# ---------------------------------------------------------------------------

def _primes(modulus: int = 1, residue: int = 0) -> Callable[[int, int], bool]:
    """Admissible on the prime fields F_p with p = residue mod modulus."""
    return lambda p, r: r == 1 and p % modulus == residue


# Every domain is built once per field (ff.per_field keys it by its name):
# the two (a, b) domains serve 14 identities in each field.

@per_field
def _points_ab(ctx: FieldContext) -> np.ndarray:
    return np.argwhere(curves.valid_pairs(ctx))


@per_field
def _points_huff_ab(ctx: FieldContext) -> np.ndarray:
    return np.argwhere(curves.valid_pairs(ctx, squares=True))


@per_field
def _points_none(ctx: FieldContext) -> np.ndarray:
    """One point with no parameters."""
    return np.zeros((1, 0), dtype=np.int64)


def _lambdas_except(ctx: FieldContext, banned: list[int]) -> np.ndarray:
    keep = np.ones(ctx.q, dtype=bool)
    keep[banned] = False
    return np.flatnonzero(keep)[:, None]


def _roots_of(ctx: FieldContext, squares: list[int]) -> np.ndarray:
    return np.flatnonzero(np.isin(numpy_tables(ctx).sq, squares))[:, None]


@per_field
def _points_lambda_not_0_pm1(ctx: FieldContext) -> np.ndarray:
    return _lambdas_except(ctx, [ctx.zero, ctx.one, ctx.neg(ctx.one)])


@per_field
def _points_lambda_not_0_1(ctx: FieldContext) -> np.ndarray:
    return _lambdas_except(ctx, [ctx.zero, ctx.one])


@per_field
def _points_lambda_not_one(ctx: FieldContext) -> np.ndarray:
    return _lambdas_except(ctx, [ctx.one])


@per_field
def _points_sqrt_minus_one(ctx: FieldContext) -> np.ndarray:
    return _roots_of(ctx, [ctx.neg(ctx.one)])


@per_field
def _points_sqrt_two_or_half(ctx: FieldContext) -> np.ndarray:
    return _roots_of(ctx, [ctx.element(2), ctx.inv(ctx.element(2))])


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def _build_registry() -> tuple[Identity, ...]:
    ids: list[Identity] = []

    def add(*args, **kwargs):
        ids.append(Identity(*args, **kwargs))

    # ---- printed forms (audited verbatim; FAIL expected for most) --------

    def printed_curve(family):
        def ev(ctx, params):
            a, b = params.T
            t, series, q = numpy_tables(ctx), _series_column(ctx), ctx.q
            ratio = t.vmul(b, t.vinv(a))
            # the printed closed form at t = b/a, times q-1
            rhs = (q + 2) * (q - 1) - 1 - (2 * q - 1) * t.phi[ratio] + q * series[ratio]
            return Column(family(ctx)[a, b], 1), Column(rhs, q - 1)
        return ev

    add("T4.1", "printed",
        "general Huff count (oracle, lhs) vs the as-printed closed form "
        "q+2-1/(q-1)-(2+1/(q-1))phi(b/a)+q^2/(q-1) F(b/a)",
        "odd prime powers; a, b nonzero, a != b",
        ("a", "b"), _points_ab, printed_curve(curves.general_huff_family),
        counterpart="C2")

    def t41_proof(ctx, params):
        a, b = params.T
        quartic = curves.general_huff_quartic_family(ctx)[a, b]
        return Column(curves.general_huff_family(ctx)[a, b], 1), Column(quartic + 1, 1)

    add("T4.1-proof", "printed",
        "general Huff count (oracle, lhs) vs the as-printed intermediate "
        "count q+4+sum phi(quartic); the residual -1 pins the off-by-one "
        "(the correct constant is q+3)",
        "odd prime powers; a, b nonzero, a != b",
        ("a", "b"), _points_ab, t41_proof, counterpart="C2")

    def c42(ctx, params):
        a, b = params.T
        t, series, q = numpy_tables(ctx), _series_column(ctx), ctx.q
        ratio = t.vmul(t.sq[b], t.vinv(t.sq[a]))
        rhs = q * (q - 1) - 2 + q * series[ratio]
        return Column(curves.huff_family(ctx)[a, b], 1), Column(rhs, q - 1)

    add("C4.2", "printed",
        "Huff count (oracle, lhs) vs the as-printed closed form "
        "q-2/(q-1)+q^2/(q-1) F(b^2/a^2)",
        "odd prime powers; a, b nonzero, a^2 != b^2",
        ("a", "b"), _points_huff_ab, c42, counterpart="C3")

    add("C5.1", "printed",
        "Weierstrass y^2=x(x+a)(x+b) count (oracle, lhs) vs the same "
        "as-printed closed form as the general Huff model",
        "odd prime powers; a, b nonzero, a != b",
        ("a", "b"), _points_ab, printed_curve(curves.weierstrass_family),
        counterpart="C1")

    def transform_tail(ctx, lam, variant, corrected):
        """q times the transformed series of T5.2 / C4 at lam."""
        t, series = numpy_tables(ctx), _series_column(ctx)
        one_minus = t.one_minus[lam]
        if variant == "a":
            ratio = t.vmul(one_minus, t.vinv(t.vadd(ctx.one, lam)))
            return phi_at_minus_one(ctx) * series[t.sq[ratio]]
        if variant == "b":
            return series[_transform_arg(ctx, lam)]
        arg = t.vmul(t.sq[one_minus], t.vinv(t.neg_[t.vmul(ctx.element(4), lam)]))
        # the as-printed display carries phi(lam) here; the oracle-derived
        # form needs phi(-lam)
        sign_arg = t.neg_[lam] if corrected else lam
        return t.phi[sign_arg] * series[arg]

    def t52(variant):
        def ev(ctx, params):
            (lam,) = params.T
            q = ctx.q
            lhs = _series_column(ctx)[numpy_tables(ctx).sq[lam]]
            tail = transform_tail(ctx, lam, variant, corrected=False)
            return Column(lhs, q), Column(q + 1 + (q - 1) * tail, q * q)
        return ev

    for variant, target in (("a", "phi(-1) F(((1-x)/(1+x))^2)"),
                            ("b", "F(4x/(1+x)^2)"),
                            ("c", "phi(x) F((1-x)^2/(-4x))")):
        add(f"T5.2{variant}", "printed",
            f"series transform as printed: F(x^2) (lhs) vs "
            f"(q+1)/q^2+(q-1)/q * {target}",
            "odd prime powers; x not in {0, 1, -1}",
            ("lambda",), _points_lambda_not_0_pm1, t52(variant),
            counterpart=f"C4{variant}")

    def t53(rhs_num):
        """F(4a/(1+a)^2) against the constant rhs_num(p) / (p(p-1))."""
        def ev(ctx, params):
            (a,) = params.T
            p = ctx.p
            lhs = _series_column(ctx)[_transform_arg(ctx, a)]
            return Column(lhs, p), Column(np.full(len(a), rhs_num(p)), p * (p - 1))
        return ev

    add("T5.3a", "printed",
        "F(4a/(1+a)^2) for a^2 = -1 (lhs, series) vs the as-printed "
        "2x(-1)^((x+y+1)/2)/(p-1) - (p+1)/(p(p-1)) with x^2+y^2=p, x odd",
        "primes p = 1 mod 4; a^2 = -1",
        ("a",), _points_sqrt_minus_one, t53(_cornacchia_num),
        admissible=_primes(4, 1), counterpart="C5.3")

    add("T5.3b", "printed",
        "F(4a/(1+a)^2) for a^2 in {2, 1/2} (lhs, series) vs the as-printed "
        "-(p+1)/(p(p-1)); the lhs column records the empirical values",
        "primes p = -1 mod 8; a^2 in {2, 1/2}",
        ("a",), _points_sqrt_two_or_half, t53(lambda p: -(p + 1)),
        admissible=_primes(8, 7))

    add("T5.3c", "printed",
        "F(4a/(1+a)^2) for a^2 in {2, 1/2} (lhs, series) vs the as-printed "
        "cornacchia form (which repeats the a^2=-1 display); the lhs column "
        "records the empirical values",
        "primes p = 1 mod 8; a^2 in {2, 1/2}",
        ("a",), _points_sqrt_two_or_half, t53(_cornacchia_num),
        admissible=_primes(8, 1))

    # ---- corrected forms (oracle-derived; PASS expected) ------------------

    def c1(ctx, params):
        a, b = params.T
        t, series, q = numpy_tables(ctx), _series_column(ctx), ctx.q
        rhs = q + 1 + t.phi[a] * series[t.vmul(b, t.vinv(a))]
        return Column(curves.weierstrass_family(ctx)[a, b], 1), Column(rhs, 1)

    add("C1", "corrected",
        "Weierstrass count (oracle, lhs) = q+1+q phi(a) F(b/a) "
        "(equivalently q+1+q phi(b) F(a/b))",
        "odd prime powers; a, b nonzero, a != b",
        ("a", "b"), _points_ab, c1)

    def c2(ctx, params):
        a, b = params.T
        return (Column(curves.general_huff_family(ctx)[a, b], 1),
                Column(curves.weierstrass_family(ctx)[a, b], 1))

    add("C2", "corrected",
        "general Huff count (oracle, lhs) = Weierstrass count (isomorphic models)",
        "odd prime powers; a, b nonzero, a != b",
        ("a", "b"), _points_ab, c2)

    def c3(ctx, params):
        a, b = params.T
        t, series, q = numpy_tables(ctx), _series_column(ctx), ctx.q
        rhs = q + 1 + series[t.vmul(t.sq[b], t.vinv(t.sq[a]))]
        return Column(curves.huff_family(ctx)[a, b], 1), Column(rhs, 1)

    add("C3", "corrected",
        "Huff count (oracle, lhs) = q+1+q F(b^2/a^2)",
        "odd prime powers; a, b nonzero, a^2 != b^2",
        ("a", "b"), _points_huff_ab, c3)

    def c4(variant):
        def ev(ctx, params):
            (lam,) = params.T
            lhs = _series_column(ctx)[numpy_tables(ctx).sq[lam]]
            rhs = transform_tail(ctx, lam, variant, corrected=True)
            return Column(lhs, ctx.q), Column(rhs, ctx.q)
        return ev

    for variant, target in (("a", "phi(-1) F(((1-x)/(1+x))^2)"),
                            ("b", "F(4x/(1+x)^2)"),
                            ("c", "phi(-x) F((1-x)^2/(-4x))")):
        add(f"C4{variant}", "corrected",
            f"series transform, corrected scaling: F(x^2) (lhs) = {target}",
            "odd prime powers; x not in {0, 1, -1}",
            ("lambda",), _points_lambda_not_0_pm1, c4(variant))

    def c53(ctx, params):
        (a,) = params.T
        p = ctx.p
        lhs = _series_column(ctx)[_transform_arg(ctx, a)]
        rhs = np.full(len(a), _times(hyp.ono_value_minus1(p), p))
        return Column(lhs, p), Column(rhs, p)

    add("C5.3", "corrected",
        "F(4a/(1+a)^2) for a^2 = -1 (lhs, series) = the closed-form value "
        "of F(-1): 2x(-1)^((x+y+1)/2)/p",
        "primes p = 1 mod 4; a^2 = -1",
        ("a",), _points_sqrt_minus_one, c53,
        admissible=_primes(4, 1))

    def cedw(ctx, params):
        a, b = params.T
        t = numpy_tables(ctx)
        d = t.vmul(t.vsub(a, b), t.vinv(t.vadd(a, b)))
        affine = curves.edwards_affine_family(ctx)[t.sq[d]]
        return Column(curves.huff_family(ctx)[a, b], 1), Column(affine + 4, 1)

    add("C-edw", "corrected",
        "Huff count (oracle, lhs) = Edwards affine count at d=(a-b)/(a+b) "
        "plus 4; the +4 completion is an empirical observation (the affine "
        "count alone differs by exactly that margin), not an asserted "
        "universal convention",
        "odd prime powers; a, b nonzero, a^2 != b^2",
        ("a", "b"), _points_huff_ab, cedw)

    # ---- quoted classical results (PASS expected) --------------------------

    def greflect(ctx, params):
        (lam,) = params.T
        t, series = numpy_tables(ctx), _series_column(ctx)
        rhs = phi_at_minus_one(ctx) * series[t.one_minus[lam]]
        return Column(series[lam], ctx.q), Column(rhs, ctx.q)

    add("G-reflect", "greene",
        "reflection transform: F(x) (lhs) = phi(-1) F(1-x)",
        "odd prime powers; x not in {0, 1}",
        ("lambda",), _points_lambda_not_0_1, greflect)

    def gratio(ctx, params):
        (lam,) = params.T
        t, series = numpy_tables(ctx), _series_column(ctx)
        arg = t.vmul(lam, t.vinv(t.vsub(lam, ctx.one)))       # 0 at lam = 0
        rhs = t.phi[t.one_minus[lam]] * series[arg]
        return Column(series[lam], ctx.q), Column(rhs, ctx.q)

    add("G-ratio", "greene",
        "ratio transform: F(x) (lhs) = phi(1-x) F(x/(x-1))",
        "odd prime powers; x != 1",
        ("lambda",), _points_lambda_not_one, gratio)

    def g316(ctx, params):
        (lam,) = params.T
        phi, eps = quadratic_character(ctx), trivial_character(ctx)
        lhs = [_times(v, ctx.q) for v in hyp.hyp_values((phi, eps), (phi,), lam)]
        rhs = -phi_at_minus_one(ctx) * (1 + numpy_tables(ctx).phi[lam])
        return Column(np.array(lhs, dtype=np.int64), ctx.q), Column(rhs, ctx.q)

    add("G-316", "greene",
        "the (phi, eps; phi) series via the generic evaluator (lhs) = "
        "-phi(-1)(1+phi(x))/q",
        "odd prime powers; x not in {0, 1}",
        ("lambda",), _points_lambda_not_0_1, g316)

    def sedw(ctx, params):
        (d,) = params.T
        d2 = numpy_tables(ctx).sq[d]
        affine = curves.edwards_affine_family(ctx)[d2]
        rhs = 1 + ctx.q + phi_at_minus_one(ctx) * _series_column(ctx)[d2]
        return Column(affine + 4, 1), Column(rhs, 1)

    add("S-edw", "greene",
        "Edwards affine count plus the empirical 4-point completion (lhs, "
        "oracle) = 1+q+q phi(-1) F(d^2), the quoted Edwards count formula",
        "odd prime powers; d not in {0, 1, -1}",
        ("lambda",), _points_lambda_not_0_pm1, sedw)

    def ominus1(ctx, params):
        n, p = len(params), ctx.p
        lhs = np.full(n, _series_column(ctx)[numpy_tables(ctx).neg_[ctx.one]])
        return Column(lhs, p), Column(np.full(n, _times(hyp.ono_value_minus1(p), p)), p)

    add("O-minus1", "ono",
        "F(-1) over a prime field (lhs, series) = the two-squares closed "
        "form (0 when p = 3 mod 4)",
        "odd primes",
        (), _points_none, ominus1, admissible=_primes())

    return tuple(ids)


_REGISTRY = _build_registry()
_BY_KEY = {ident.key: ident for ident in _REGISTRY}


def registry() -> list[Identity]:
    """All known identities, in a fixed audit order."""
    return list(_REGISTRY)


def identity_by_key(key: str) -> Identity:
    if key not in _BY_KEY:
        raise KeyError(f"unknown identity {key!r}")
    return _BY_KEY[key]


# ---------------------------------------------------------------------------
# sweeping
# ---------------------------------------------------------------------------

def capped_prime_powers(q_max: int,
                        identities: Iterable[Identity] | None = None) -> list[tuple[int, int]]:
    """All (p, r) with p an odd prime and p**r <= q_max, sorted by q.
    Raises :class:`FieldError` first if q_max exceeds the field-size cap
    that :func:`make_field` enforces, if int64 columns cannot hold the
    audit (:func:`_check_limits`), or if auditing ``identities`` (by
    default the whole registry) over those fields would exceed
    :data:`WORK_BUDGET`; so no audit starts that would stop at its
    largest field or run without a bound."""
    _check_limits(q_max)
    pairs = odd_prime_powers(q_max)
    _check_work([p ** r for p, r in pairs], registry() if identities is None else identities,
                f"q <= {q_max}")
    return pairs


def _check_work(qs: list[int], identities: Iterable[Identity], where: str) -> None:
    """Raise :class:`FieldError` if auditing ``identities`` over the fields
    of ``qs`` (``where``, in the message) would exceed :data:`WORK_BUDGET`
    cells.  A field's cells grow as q**3 where an (a, b) identity reads the
    O(q^3) family tables, else as q**2, for the q series values of O(q)
    each behind every lambda column."""
    degree = 3 if any(len(ident.param_names) == 2 for ident in identities) else 2
    cells = sum(q ** degree for q in qs)
    if cells > WORK_BUDGET:
        raise FieldError(f"an audit over {where} needs {cells} cells (the sum of "
                         f"q^{degree}), over the work budget of {WORK_BUDGET}")


def _check_limits(q_max: int) -> None:
    """Raise :class:`FieldError` unless q_max is within the field-size cap
    and int64 columns hold an audit over every F_q with q <= q_max.

    Counts are at most q^2 + 4, |q F(lambda)| <= q and phi is +-1, so
    every lhs and rhs numerator over its denominator (1, q, q-1, q^2 or
    p(p-1)) is below 3 q^2, and every residual numerator over the lcm of
    the two is below 4 q^3.  G-316's lhs comes from the generic
    evaluator, so its residual rescaling checks itself (:func:`_scaled`).
    """
    limit = q_cap()
    if q_max > limit:
        raise FieldError(f"q={q_max} exceeds the configured cap {limit}")
    if 4 * q_max ** 3 >= _SAFE_INT64:
        raise FieldError(f"q={q_max} is too large for exact int64 audit columns: "
                         f"numerators reach 4q^3 = {4 * q_max ** 3} >= 2^62")


def _columns_for(ident: Identity, p: int, r: int) -> FieldColumns | None:
    """The identity over its whole domain in F_{p^r}, or None where the
    field is not admissible (and is not built)."""
    if not ident.admissible(p, r):
        return None
    ctx = cached_field(p, r)
    params = ident.points(ctx)
    lhs, rhs = ident.evaluate(ctx, params)
    return FieldColumns(ident.key, ctx.q, ident.param_names, params, lhs, rhs,
                        _residual(lhs, rhs))


def _audit(idents: list[Identity], pairs: list[tuple[int, int]]) -> list[IdentityReport]:
    """One report per identity over the fields ``pairs``, sorted by q: the
    identities in turn, each field by field.  Each identity is looked up
    again by key, where a tracer may wrap its ``points`` and ``evaluate``."""
    reports = []
    for ident in (identity_by_key(i.key) for i in idents):
        blocks = (_columns_for(ident, p, r) for p, r in pairs)
        reports.append(IdentityReport(ident.key, ident.provenance,
                                      tuple(b for b in blocks if b is not None)))
    return reports


def audit_identity(key: str, q_values: Iterable[int]) -> IdentityReport:
    """Evaluate one identity exactly at every point of its domain over the
    given prime powers, whose limits are checked before any is factored.
    An audit of no point would pass empty, so it raises
    :class:`FieldError`: before any field is built if none of the fields
    is admissible, else once the domains are found empty."""
    ident = identity_by_key(key)
    q_order = sorted(set(q_values))
    _check_limits(max(q_order, default=0))
    _check_work(q_order, [ident], f"q in {q_order}")
    pairs = [_odd_prime_power(q) for q in q_order]
    if any(ident.admissible(p, r) for p, r in pairs):
        report = _audit([ident], pairs)[0]
        if any(len(block.params) for block in report.columns):
            return report
    raise FieldError(f"{key} has no point over q in {q_order}: its domain is "
                     f"{ident.domain_description}")


def _odd_prime_power(q: int) -> tuple[int, int]:
    """(p, r) with q = p**r and p an odd prime, else ValueError."""
    factors = prime_factors(q)
    if len(factors) != 1 or factors[0] == 2:
        raise ValueError(f"{q} is not an odd prime power")
    p, r = factors[0], 1
    while p ** r < q:
        r += 1
    return p, r


def sweep(q_max: int, include: str | None = None) -> list[IdentityReport]:
    """Audit every registry identity (optionally one provenance class)
    over all odd prime powers q <= q_max, one identity at a time."""
    if include is not None and include not in PROVENANCES:
        raise ValueError(f"unknown provenance filter {include!r}")
    idents = [i for i in registry() if include is None or i.provenance == include]
    return _audit(idents, capped_prime_powers(q_max, idents))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ("identity", "q", "a", "b", "lambda", "lhs", "rhs", "residual", "pass")
_PARAM_COLUMNS = _CSV_COLUMNS[2:5]     # every identity's param_names keep this order
_CRLF = "\r\n"      # CSV cells are joined bare: no key or column needs quoting

# A record is the text of its k parameter values and its three sides, each
# behind a fixed gap, then the pass flag with the record's closing text.
# ``_json_gaps`` and ``_csv_gaps`` give the k + 3 gaps and the two closings
# (failing, passing) of one (identity, field) block.  Only the first gap
# names the field; the lhs gap is the first when k = 0.

# an identity's consecutive blocks are rendered together in runs of at most
# this many rows.  A run's pieces are held at once: the tracemalloc peak of
# emit(sweep(49), "csv") is 1.25 times its output at 2**13 rows, 1.34 at 2**15
_RUN_ROWS = 2 ** 13


def _json_gaps(key: str, q: int, names: tuple[str, ...]):
    text = f'{{"identity":{json.dumps(key)},"q":{q}'
    gaps = []
    for name in names:
        gaps.append(f"{text},{json.dumps(name)}:")
        text = ""
    return (gaps + [text + ',"lhs":"', '","rhs":"', '","residual":"'],
            ('","pass":false}', '","pass":true}'))


def _csv_gaps(key: str, q: int, names: tuple[str, ...]):
    text = f"{key},{q}"
    gaps = []
    for name in _PARAM_COLUMNS:
        text += ","
        if name in names:
            gaps.append(text)
            text = ""
    return gaps + [text + ",", ",", ","], (",false" + _CRLF, ",true" + _CRLF)


def _json_summary(report: IdentityReport) -> str:
    return json.dumps({
        "identity": report.identity,
        "summary": True,
        "provenance": report.provenance,
        "status": report.status,
        "points": sum(len(block.params) for block in report.columns),
        "failures": report.failures,
        "truncated": report.truncated,
    }, separators=(",", ":"))


def _csv_summary(report: IdentityReport) -> str:
    flag = "true" if report.passed else "false"
    return ",".join([report.identity] + [""] * 7 + [flag]) + _CRLF


# format: opening, closing, separator between records, gaps, summary record
_FORMATS = {
    "json": ("[", "]\n", ",", _json_gaps, _json_summary),
    "csv": (",".join(_CSV_COLUMNS) + _CRLF, "", "", _csv_gaps, _csv_summary),
}


def emit_chunks(reports: list[IdentityReport], format: str = "json") -> Iterator[bytes]:
    """:func:`emit` as a stream of byte chunks: the JSON ``[`` or the CSV
    header, one chunk per (identity, field) block, one per summary record,
    then the JSON ``]``.  Holds one run of blocks' text at a time (at most
    :data:`_RUN_ROWS` rows, or one larger block)."""
    if format not in _FORMATS:
        raise ValueError(f"unknown format {format!r}")
    return _chunks(reports, *_FORMATS[format])


def _chunks(reports, opening, closing, separator, gaps, summary) -> Iterator[bytes]:
    yield opening.encode()
    drop = len(separator)                # no separator before the first record
    for text in _record_texts(reports, separator, gaps, summary):
        yield text[drop:].encode()
        drop = 0
    if closing:
        yield closing.encode()


def _record_texts(reports, separator, gaps, summary) -> Iterator[str]:
    """Each block's records, then the summary record, per report; every
    record opens with the separator."""
    for rep in reports:
        for run in _runs(rep.columns):
            yield from _run_texts(rep.identity, run, separator, gaps)
        yield separator + summary(rep)


def _runs(blocks: Iterable[FieldColumns]) -> Iterator[list[FieldColumns]]:
    """The nonempty blocks in order, in runs of at most :data:`_RUN_ROWS`
    rows; a larger block is a run alone."""
    run: list[FieldColumns] = []
    rows = 0
    for block in blocks:
        n = len(block.params)
        if run and rows + n > _RUN_ROWS:
            yield run
            run, rows = [], 0
        if n:
            run.append(block)
            rows += n
    if run:
        yield run


def _run_texts(identity: str, run: list[FieldColumns], separator: str, gaps) -> Iterator[str]:
    """The records of each block of one identity's run, one text per block.
    A record is k + 1 pieces, each a gather from an object array of finished
    strings: the first parameter behind its block's opening gap (with the
    separator), each further parameter behind its gap, and the rest of the
    record, lhs gap to closing (:func:`_sides`).  The pieces are interleaved
    once per run and joined once per block, with no per-row Python."""
    texts = [gaps(identity, block.q, block.param_names) for block in run]
    for block_gaps, _ in texts:
        block_gaps[0] = separator + block_gaps[0]
    k = len(run[0].param_names)
    (*param_gaps, _, rhs_gap, res_gap), closings = texts[0]
    sizes = [len(block.params) for block in run]
    which = np.repeat(np.arange(len(run)), sizes)
    pieces = []
    if k:
        params = np.concatenate([block.params for block in run])
        qs = [block.q for block in run]
        firsts = np.array([f"{block_gaps[0]}{v}" for (block_gaps, _), q in zip(texts, qs)
                           for v in range(q)], dtype=object)
        starts = np.cumsum([0, *qs[:-1]])
        pieces.append(firsts[starts[which] + params[:, 0]])
        codes = range(max(qs))
        pieces += [np.array([f"{gap}{v}" for v in codes], dtype=object)[col]
                   for gap, col in zip(param_gaps[1:], params[:, 1:].T)]
    leads = [block_gaps[k] for block_gaps, _ in texts]
    pieces.append(_sides(run, which, leads, rhs_gap, res_gap, closings))
    flat = np.stack(pieces, axis=1).ravel().tolist()
    end = 0
    for n in sizes:
        start, end = end, end + n * len(pieces)
        yield "".join(flat[start:end])


def _sides(run, which, leads, rhs_gap, res_gap, closings) -> np.ndarray:
    """Each row's text from its block's lhs gap (``leads``) through its
    closing, in an object array.  The residual and pass flag follow from
    the block, lhs and rhs, so each distinct (block, lhs, rhs), keyed by
    the dense ranks of the two numerators, is reduced with ``np.gcd`` and
    formatted once.  The key is below rows**3, within int64."""
    lhs, rhs, res = (np.concatenate([getattr(block, side).num for block in run])
                     for side in ("lhs", "rhs", "residual"))
    lhs_values, lhs_rank = np.unique(lhs, return_inverse=True)
    rhs_values, rhs_rank = np.unique(rhs, return_inverse=True)
    key = (which * len(lhs_values) + lhs_rank) * len(rhs_values) + rhs_rank
    _, first, where = np.unique(key, return_index=True, return_inverse=True)
    blocks = which[first]

    def reduced(nums, side):
        dens = np.array([getattr(block, side).den for block in run])[blocks]
        g = np.gcd(nums[first], dens)
        return (nums[first] // g).tolist(), (dens // g).tolist()

    made = np.empty(len(first), dtype=object)
    made[:] = [f"{leads[b]}{ln}/{ld}{rhs_gap}{rn}/{rd}{res_gap}{sn}/{sd}{closings[ok]}"
               for b, ln, ld, rn, rd, sn, sd, ok in zip(
                   blocks.tolist(), *reduced(lhs, "lhs"), *reduced(rhs, "rhs"),
                   *reduced(res, "residual"), (res[first] == 0).tolist())]
    return made[where]


def emit(reports: list[IdentityReport], format: str = "json") -> bytes:
    """Serialize reports: one record per (identity, parameter point),
    rendered from the report's columns, plus one summary record per
    identity.  Rationals render in lowest terms as "num/den"."""
    buf = io.BytesIO()
    buf.writelines(emit_chunks(reports, format))
    return buf.getvalue()
