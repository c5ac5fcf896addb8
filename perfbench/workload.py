"""One pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/workload.py --workload NAME --seed N --trace 0|1

Prints one JSON object: the monotonic time at which the pass was ready
for its first timed call, the timings of the timed phase, peak memory,
the correctness checks attempted and failed, and with ``--trace 1`` the
per-layer metrics of the spans recorded during set-up and the timed
phase, plus the tracing overhead of the timed phase.  Checks run after
the timed phase with tracing off.

The overhead is measured in the same process: a fixed slice of the
workload's work, on fresh fields, runs untraced and traced back to back,
``OVERHEAD_PAIRS`` times, the order alternating between pairs.  The
median traced/untraced ratio r of the pairs gives the overhead of the
traced timed phase T as T (1 - 1/r).

A fresh interpreter per pass matters: ``audit._FIELD_CACHE`` and each
field's ``_cache`` (series tables, lambda memo) live as long as the
process, so a second pass in the same process would be warm.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hypergf  # noqa: E402  (must come from this checkout's src/)

if Path(hypergf.__file__).resolve().parent != ROOT / "src" / "hypergf":
    raise SystemExit(f"hypergf imported from {hypergf.__file__}, not from src/")

from hypergf import audit, curves, ff, hyp  # noqa: E402
from hypergf.chars import quadratic_character, trivial_character  # noqa: E402

import spans  # noqa: E402

AUDIT_QMAX_SWEEP = 37
OVERHEAD_PAIRS = 8

# sweep(37) as emitted at the seed commit: (status, points, failures) per
# identity and the SHA-256 of the JSON emit.  Emitted bytes must not change.
SWEEP_SHA256 = "5b27ed6413d7533392e4ddff02a1e47a77017bdfc582669541dbecb5ee71253d"
SWEEP_SUMMARY = {
    "T4.1": ("FAIL", 5418, 5418), "T4.1-proof": ("FAIL", 5418, 5418),
    "C4.2": ("FAIL", 5176, 5176), "C5.1": ("FAIL", 5418, 5418),
    "T5.2a": ("FAIL", 214, 214), "T5.2b": ("FAIL", 214, 214),
    "T5.2c": ("FAIL", 214, 214), "T5.3a": ("FAIL", 10, 10),
    "T5.3b": ("FAIL", 12, 12), "T5.3c": ("FAIL", 4, 4),
    "C1": ("PASS", 5418, 0), "C2": ("PASS", 5418, 0), "C3": ("PASS", 5176, 0),
    "C4a": ("PASS", 214, 0), "C4b": ("PASS", 214, 0), "C4c": ("PASS", 214, 0),
    "C5.3": ("PASS", 10, 0), "C-edw": ("PASS", 5176, 0),
    "G-reflect": ("PASS", 228, 0), "G-ratio": ("PASS", 242, 0),
    "G-316": ("PASS", 228, 0), "S-edw": ("PASS", 214, 0),
    "O-minus1": ("PASS", 11, 0),
}


# ---------------------------------------------------------------------------
# series_table: one cold value on F_1009, then every lambda on F_503 and 7^3
# ---------------------------------------------------------------------------

def series_setup(seed: int) -> dict:
    rng = random.Random(seed)
    big = ff.make_field(1009)
    tables = [ff.make_field(503), ff.make_field(7, 3)]
    for ctx in (big, *tables):
        if getattr(ctx, "_cache", None):
            raise RuntimeError(f"{ctx} starts with a warm cache")
    cold_lam = rng.choice([x for x in range(big.q) if x not in (big.zero, big.one)])
    orders = []
    for ctx in tables:
        lams = list(range(ctx.q))
        rng.shuffle(lams)
        orders.append((ctx, lams))
    return {"big": big, "cold_lam": cold_lam, "orders": orders}


def series_run(state: dict) -> dict:
    start = time.perf_counter()
    first = hyp.two_f_one(state["big"], state["cold_lam"])
    mid = time.perf_counter()
    values = [(ctx, [(lam, hyp.two_f_one(ctx, lam)) for lam in lams])
              for ctx, lams in state["orders"]]
    end = time.perf_counter()
    n = sum(len(lams) for _, lams in state["orders"])
    state["results"] = [(state["big"], [(state["cold_lam"], first)]), *values]
    return {"first_value_s": mid - start, "values": n, "values_s": end - mid,
            "points": n + 1, "points_s": end - start}


def series_checks(state: dict):
    """F(lambda) against the Weierstrass point-count oracle off {0, 1};
    F(0) = 0; F(1) against the generic evaluator."""
    for ctx, pairs in state["results"]:
        for lam, value in pairs:
            yield lambda ctx=ctx, lam=lam, value=value: _series_ok(ctx, lam, value)
    if "layers" in state:
        # one table build per field, in two_f_one: no table or memo carried over
        yield lambda: state["layers"]["hyp.two_f_one.cold_calls"] == len(state["results"])


# series_slice and sweep_slice: small fixed pieces of each workload on
# fresh fields, timed untraced and traced for the overhead
def series_slice():
    for ctx in (ff.make_field(181), ff.make_field(7, 2)):
        for lam in range(ctx.q):
            hyp.two_f_one(ctx, lam)


def _series_ok(ctx, lam: int, value: Fraction) -> bool:
    q = ctx.q
    if lam == ctx.zero:
        return value == 0
    if lam == ctx.one:
        phi, eps = quadratic_character(ctx), trivial_character(ctx)
        return value == hyp.hyp_eval(hyp.HypSpec(top=(phi, phi), bottom=(eps,), x=lam))
    total = curves.count_weierstrass(ctx, curves.WeierstrassParams(ctx.one, lam)).total
    return value == Fraction(total - q - 1, q)


# ---------------------------------------------------------------------------
# audit_sweep: the work of `hypergf audit --all --qmax 37 --format json`
# ---------------------------------------------------------------------------

def sweep_setup(seed: int) -> dict:
    audit.registry()
    return {}


def sweep_run(state: dict) -> dict:
    start = time.perf_counter()
    reports = audit.sweep(AUDIT_QMAX_SWEEP)
    mid = time.perf_counter()
    state["emitted"] = audit.emit(reports, "json")
    end = time.perf_counter()
    state["reports"] = reports
    points = sum(len(rep.records) for rep in reports)
    return {"first_value_s": mid - start, "values": points, "values_s": mid - start,
            "points": points, "points_s": end - start}


def sweep_slice():
    audit._FIELD_CACHE.clear()
    audit.emit(audit.sweep(13), "json")


def sweep_checks(state: dict):
    """Each identity's (status, points, failures) and the emitted bytes
    equal the seed commit's; the printed identities stay FAIL."""
    reports = state["reports"]
    yield lambda: [rep.identity for rep in reports] == list(SWEEP_SUMMARY)
    for rep in reports:
        yield lambda rep=rep: SWEEP_SUMMARY.get(rep.identity) == (
            rep.status, len(rep.records), sum(1 for r in rep.records if not r.passed))
    yield lambda: hashlib.sha256(state["emitted"]).hexdigest() == SWEEP_SHA256


WORKLOADS = {
    "series_table": (series_setup, series_run, series_slice, series_checks),
    "audit_sweep": (sweep_setup, sweep_run, sweep_slice, sweep_checks),
}


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _timed_traced(fn) -> float:
    tracer = spans.install()
    try:
        return _timed(fn)
    finally:
        tracer.detach()


def tracing_ratio(slice_fn) -> float:
    """Median traced/untraced time of ``slice_fn`` over back-to-back pairs."""
    slice_fn()                         # warm the process-wide cyclotomic cache
    ratios = []
    for k in range(OVERHEAD_PAIRS):
        if k % 2:
            traced, plain = _timed_traced(slice_fn), _timed(slice_fn)
        else:
            plain, traced = _timed(slice_fn), _timed_traced(slice_fn)
        ratios.append(traced / plain)
    return median(ratios)


def run_pass(name: str, seed: int, trace: bool) -> dict:
    setup, run, slice_fn, checks = WORKLOADS[name]
    tracer = spans.install() if trace else None
    state = setup(seed)
    ready = time.monotonic()
    timings = run(state)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.detach()
        state["layers"] = tracer.layer_metrics()
        ratio = tracing_ratio(slice_fn)
        state["layers"]["trace.overhead_s"] = timings["points_s"] * (1 - 1 / ratio)
    attempted = failed = 0
    for check in checks(state):
        attempted += 1
        try:
            ok = check()
        except Exception as exc:  # a raising check is a failed check
            print(f"check raised: {exc!r}", file=sys.stderr)
            ok = False
        failed += not ok
    return {"ready": ready, **timings, "peak_rss_mb": peak_rss_mb,
            "attempted": attempted, "failed": failed,
            "layers": state.get("layers")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    print(json.dumps(run_pass(args.workload, args.seed, bool(args.trace))))


if __name__ == "__main__":
    main()
