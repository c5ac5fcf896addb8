"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  All equality checks are exact (zero tolerance); the stated
runtime budgets are asserted too.
"""

import io
import json
import time
from contextlib import redirect_stdout
from fractions import Fraction

import _lemma_suite
from hypergf import (
    EdwardsParams,
    GeneralHuffParams,
    HuffParams,
    HypSpec,
    WeierstrassParams,
    audit_identity,
    cornacchia,
    count_edwards_affine,
    count_general_huff,
    count_general_huff_quartic,
    count_huff,
    count_weierstrass,
    emit,
    hyp_eval,
    ono_value_minus1,
    quadratic_character,
    sweep,
    trivial_character,
    two_f_one,
)
from hypergf.audit import cached_field
from hypergf.cli import run as cli_run
from hypergf.curves import (
    edwards_affine_family,
    general_huff_family,
    general_huff_quartic_family,
    huff_family,
    weierstrass_family,
)
from hypergf.ff import is_prime, odd_prime_powers

LEMMA_GRID = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1),
              (5, 2), (3, 3), (7, 2)]            # q = 3,5,7,9,11,13,25,27,49


def _finish(number, started, failures, limit=None, detail=""):
    elapsed = time.time() - started
    ok = not failures and (limit is None or elapsed <= limit)
    budget = f" of {limit:.0f}s" if limit else ""
    suffix = f" - {detail}" if detail else ""
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s{budget}){suffix}")
    assert not failures, failures[:10]
    if limit is not None:
        assert elapsed <= limit, f"runtime {elapsed:.1f}s over the {limit}s budget"


def _phi_sign(ctx, x):
    return 0 if x == 0 else (1 if ctx.log[x] % 2 == 0 else -1)


def test_criterion_1_lemma_suite():
    started = time.time()
    failures = []
    for p, r in LEMMA_GRID:
        failures.extend(_lemma_suite.run_all(cached_field(p, r)))
    _finish(1, started, failures, limit=60,
            detail=f"lemma checks over q in {[p ** r for p, r in LEMMA_GRID]}")


def test_criterion_2_oracle_cross_consistency():
    started = time.time()
    failures = []
    for p, r in odd_prime_powers(49):
        ctx = cached_field(p, r)
        q = ctx.q
        g_fam, w_fam = general_huff_family(ctx), weierstrass_family(ctx)
        t_fam, h_fam = general_huff_quartic_family(ctx), huff_family(ctx)
        for a in range(1, q):
            for b in range(1, q):
                if a == b:
                    continue
                g = count_general_huff(ctx, GeneralHuffParams(a, b)).total
                w = count_weierstrass(ctx, WeierstrassParams(a, b)).total
                t = count_general_huff_quartic(ctx, GeneralHuffParams(a, b)).total
                if g != w:
                    failures.append(("ghuff!=weier", q, a, b, g, w))
                if t != g:
                    failures.append(("quartic!=ghuff", q, a, b, t, g))
                if (g_fam[a, b], w_fam[a, b], t_fam[a, b]) != (g, w, t):
                    failures.append(("family!=count", q, a, b, g, w, t))
                if ctx.mul(a, a) != ctx.mul(b, b):
                    h = count_huff(ctx, HuffParams(a, b)).total
                    g2 = count_general_huff(
                        ctx, GeneralHuffParams(ctx.mul(a, a), ctx.mul(b, b))).total
                    if h != g2:
                        failures.append(("huff!=ghuff(a2,b2)", q, a, b, h, g2))
                    if h_fam[a, b] != h:
                        failures.append(("huff family!=count", q, a, b, h))
        e_fam = edwards_affine_family(ctx)
        for d2 in range(q):
            if d2 not in (ctx.zero, ctx.one):
                e = count_edwards_affine(ctx, EdwardsParams(d2))
                if e_fam[d2] != e:
                    failures.append(("edwards family!=count", q, d2, e))
    anchors = [
        (count_general_huff(cached_field(5, 1), GeneralHuffParams(1, 4)).total, 8),
        (count_huff(cached_field(5, 1), HuffParams(1, 2)).total, 8),
        (count_huff(cached_field(7, 1), HuffParams(1, 2)).total, 8),
        (count_weierstrass(cached_field(5, 1), WeierstrassParams(2, 4)).total, 4),
    ]
    failures.extend(a for a in anchors if a[0] != a[1])
    _finish(2, started, failures, limit=120,
            detail="curve-model counts agree across all routes, q <= 49")


def test_criterion_3_series_vs_curve_oracle():
    started = time.time()
    failures = []
    for p, r in odd_prime_powers(49):
        ctx = cached_field(p, r)
        q = ctx.q
        for lam in range(q):
            if lam in (ctx.zero, ctx.one):
                continue
            series = two_f_one(ctx, lam)
            total = count_weierstrass(ctx, WeierstrassParams(ctx.one, lam)).total
            if series != Fraction(total - q - 1, q):
                failures.append(("series!=count", q, lam, series, total))
    anchors = [
        (two_f_one(cached_field(5, 1), 4), Fraction(2, 5)),
        (two_f_one(cached_field(13, 1), 2), Fraction(-6, 13)),
        (two_f_one(cached_field(13, 1), 4), Fraction(2, 13)),
        (two_f_one(cached_field(7, 1), 6), Fraction(0)),
    ]
    failures.extend(a for a in anchors if a[0] != a[1])
    _finish(3, started, failures, limit=120,
            detail="series equals (count - q - 1)/q for all admissible points")


def test_criterion_4_greene_suite():
    started = time.time()
    failures = []
    # specialized path, q <= 49
    for p, r in odd_prime_powers(49):
        ctx = cached_field(p, r)
        one = ctx.one
        pm1 = 1 if ctx.q % 4 == 1 else -1
        for lam in range(ctx.q):
            if lam not in (ctx.zero, one):
                if two_f_one(ctx, lam) != pm1 * two_f_one(ctx, ctx.sub(one, lam)):
                    failures.append(("reflect", ctx.q, lam))
            if lam != one:
                arg = ctx.mul(lam, ctx.inv(ctx.sub(lam, one))) if lam else 0
                if two_f_one(ctx, lam) != \
                        _phi_sign(ctx, ctx.sub(one, lam)) * two_f_one(ctx, arg):
                    failures.append(("ratio", ctx.q, lam))
    # generic path, q <= 25
    for p, r in odd_prime_powers(25):
        ctx = cached_field(p, r)
        phi = quadratic_character(ctx)
        eps = trivial_character(ctx)
        one = ctx.one
        pm1 = 1 if ctx.q % 4 == 1 else -1

        def f(lam):
            return hyp_eval(HypSpec(top=(phi, phi), bottom=(eps,), x=lam))

        for lam in range(ctx.q):
            if lam not in (ctx.zero, one):
                if f(lam) != pm1 * f(ctx.sub(one, lam)):
                    failures.append(("reflect-generic", ctx.q, lam))
                got = hyp_eval(HypSpec(top=(phi, eps), bottom=(phi,), x=lam))
                if got != Fraction(-pm1 * (1 + _phi_sign(ctx, lam)), ctx.q):
                    failures.append(("316-generic", ctx.q, lam))
            if lam != one:
                arg = ctx.mul(lam, ctx.inv(ctx.sub(lam, one))) if lam else 0
                if f(lam) != _phi_sign(ctx, ctx.sub(one, lam)) * f(arg):
                    failures.append(("ratio-generic", ctx.q, lam))
    _finish(4, started, failures, limit=120,
            detail="reflection, ratio, and the (phi,eps;phi) closed form")


def test_criterion_5_special_values():
    started = time.time()
    failures = []
    for p in range(3, 230, 2):
        if not is_prime(p):
            continue
        ctx = cached_field(p, 1)
        got = two_f_one(ctx, p - 1)
        want = ono_value_minus1(p)
        if got != want:
            failures.append(("minus1-value", p, got, want))
        if p % 4 == 3 and want != 0:
            failures.append(("should-vanish", p))
        if p % 4 == 1:
            ts = cornacchia(p)
            for sx in (ts.x, -ts.x):
                for sy in (ts.y, -ts.y):
                    val = Fraction(2 * sx * (-1) ** (((sx + sy + 1) // 2) % 2), p)
                    if val != want:
                        failures.append(("sign-choice", p, sx, sy))
    _finish(5, started, failures, limit=300,
            detail="series at -1 matches the two-squares closed form, p <= 229")


def test_criterion_6_printed_audit_regression():
    started = time.time()
    failures = []
    reports = {rep.identity: rep for rep in sweep(13, include="printed")}
    for key in ("T4.1", "C4.2", "C5.1", "T5.2a", "T5.2b", "T5.2c"):
        if reports[key].status != "FAIL" or not reports[key].counterexamples:
            failures.append(("expected-fail", key))

    def rec_of(key, q, **params):
        for rec in reports[key].records:
            if rec.q == q and dict(rec.params) == params:
                return rec
        failures.append(("missing-record", key, q, params))
        return None

    checks = [
        (rec_of("T4.1", 5, a=1, b=4), Fraction(8), Fraction(7), Fraction(1)),
        (rec_of("T4.1", 5, a=1, b=2), Fraction(8), Fraction(23, 2), Fraction(-7, 2)),
        (rec_of("C4.2", 5, a=1, b=2), Fraction(8), Fraction(7), Fraction(1)),
        (rec_of("T5.2b", 13, **{"lambda": 2}),
         Fraction(2, 13), Fraction(38, 169), Fraction(-12, 169)),
    ]
    for rec, lhs, rhs, residual in checks:
        if rec and (rec.lhs, rec.rhs, rec.residual) != (lhs, rhs, residual):
            failures.append(("wrong-residual", rec))

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_run(["audit", "--all", "--qmax", "13", "--provenance", "printed"])
    if code != 3:
        failures.append(("exit-code", code))
    rows = json.loads(buf.getvalue())
    point_rows = [r for r in rows if "summary" not in r]
    if not point_rows or not all(
            set(("identity", "q", "lhs", "rhs", "residual", "pass")) <= set(r)
            for r in point_rows):
        failures.append(("json-schema",))
    _finish(6, started, failures,
            detail="printed forms fail with the recorded exact residuals; exit 3")


def test_criterion_7_corrected_suite():
    started = time.time()
    failures = []
    qs49 = [p ** r for p, r in odd_prime_powers(49)]
    qs81 = [p ** r for p, r in odd_prime_powers(81)]
    primes229 = [p for p in range(3, 230, 2) if is_prime(p)]
    jobs = [("C1", qs81), ("C2", qs81), ("C3", qs49), ("C4a", qs49),
            ("C4b", qs49), ("C4c", qs49), ("C5.3", primes229)]
    for key, qs in jobs:
        report = audit_identity(key, qs)
        if report.status != "PASS":
            failures.append((key, report.counterexamples[:3]))
        if not report.records:
            failures.append((key, "empty domain"))
        if any(rec.residual != 0 for rec in report.records):
            failures.append((key, "nonzero residual"))
    _finish(7, started, failures, limit=300,
            detail="corrected forms exact everywhere (C1-C2 up to q=81, "
                   "C5.3 up to p=229)")


def test_criterion_8_determinism():
    started = time.time()
    failures = []
    if emit(sweep(13), "json") != emit(sweep(13), "json"):
        failures.append("repeat sweep differs")
    if emit(sweep(13), "csv") != emit(sweep(13), "csv"):
        failures.append("csv differs")

    def cli_bytes(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            cli_run(argv)
        return buf.getvalue().encode()

    for argv in (["eval2f1", "--p", "13", "--lambda", "2"],
                 ["audit", "--all", "--qmax", "9", "--format", "csv"],
                 ["count", "--model", "ghuff", "--p", "7", "--a", "1", "--b", "3"]):
        if cli_bytes(argv) != cli_bytes(argv):
            failures.append(("cli", argv))
    _finish(8, started, failures, detail="byte-identical reports on repeat runs")
