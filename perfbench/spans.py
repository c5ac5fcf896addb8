"""Span tracing of hypergf from outside the package.

:func:`install` replaces the public functions of each layer at the
module attributes through which the package (and this benchmark) call
them, so the package source stays untouched; :meth:`Tracer.detach` puts
the originals back.  Every call becomes a span with a parent id; spans
stay in memory in flat arrays until the pass ends, and
:meth:`Tracer.layer_metrics` folds them into per-layer metrics.  A
layer's self time is its span's duration minus the time covered by its
child spans (calls are nested and single-threaded, so children never
overlap).
"""

from __future__ import annotations

import dataclasses
import importlib
from array import array
from statistics import median
from time import perf_counter

import numpy as np

# (span name, [(module, attribute), ...]): every place a layer's public
# function is looked up at call time.  Modules that imported a name with
# ``from x import f`` hold their own reference, so each is wrapped.
SITES = [
    ("ff.make_field", [("hypergf.ff", "make_field"),
                       ("hypergf.audit", "make_field"),
                       ("hypergf.hyp", "make_field")]),
    ("ff.numpy_tables", [("hypergf.chars", "numpy_tables"),
                         ("hypergf.curves", "numpy_tables")]),
    ("chars.jacobi_vector", [("hypergf.hyp", "jacobi_vector")]),
    ("cyclo.convolve_cyclic", [("hypergf.hyp", "convolve_cyclic")]),
    ("cyclo.rational_from_vector", [("hypergf.hyp", "rational_from_vector")]),
    ("cyclo.reduce_mod_cyclotomic", [("hypergf.cyclo", "reduce_mod_cyclotomic")]),
    ("hyp.two_f_one", [("hypergf.hyp", "two_f_one"),
                       ("hypergf.audit", "two_f_one")]),
    ("hyp.hyp_eval", [("hypergf.hyp", "hyp_eval")]),
    ("audit.emit", [("hypergf.audit", "emit")]),
]
COUNTERS = ("count_general_huff", "count_huff", "count_weierstrass",
            "count_edwards_affine", "count_general_huff_quartic")
# the key under which hyp keeps a field's O(q^3) table of squared binomials
SERIES_TABLE = "squared_phi_binom_table"
# counters that test every affine pair (x, y); the other two walk x only
EXHAUSTIVE = ("count_general_huff", "count_huff", "count_edwards_affine")

# exact counters: identical on every pass of a workload, whatever the seed
EXACT = (
    "ff.make_field.calls", "chars.jacobi_vector.calls",
    "cyclo.rational_from_vector.calls", "cyclo.convolve_cyclic.calls",
    "hyp.two_f_one.calls", "hyp.two_f_one.cold_calls",
    "hyp.two_f_one.repeat_share", "hyp.hyp_eval.calls",
    *(f"curves.{c}.calls" for c in COUNTERS),
    "curves.pairs_tested", "curves.repeat_share",
    "audit.points", "audit.emit.bytes",
)


class Tracer:
    """In-memory span store plus the counters measured at the same
    boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.kind = array("l")
        self.parent = array("l")
        self.tag = array("l")          # -1, or a per-kind label (cold call, task id)
        self.t0 = array("d")
        self.t1 = array("d")
        self._open: list[int] = []
        self.seen_series: set = set()  # (q, lambda) given to two_f_one
        self.seen_counts: set = set()  # (counter, q, params)
        self.count_calls = 0
        self.pairs_tested = 0
        self.emit_bytes = 0
        self.tasks: dict = {}          # (identity, q) -> task id
        self.patched: list = []        # (module, attribute, original, traced)

    def wrap(self, name, fn, note=None, peek=None):
        """``fn`` recorded as a span called ``name``.  ``note(args, result,
        before)`` runs after the span closes and returns its tag, where
        ``before`` is what ``peek(args)`` saw just before the call."""
        if name not in self.names:
            self.names.append(name)
        kind = self.names.index(name)

        def traced(*args, **kwargs):
            before = peek(args) if peek is not None else None
            sid = len(self.t0)
            self.kind.append(kind)
            self.parent.append(self._open[-1] if self._open else -1)
            self.tag.append(-1)
            self.t1.append(0.0)
            self._open.append(sid)
            self.t0.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.t1[sid] = perf_counter()
                self._open.pop()
            if note is not None:
                self.tag[sid] = note(args, result, before)
            return result

        return traced

    def detach(self):
        """Put back every original the tracer replaced."""
        for module, attr, original, _ in reversed(self.patched):
            setattr(module, attr, original)

    # -- notes: counters taken where the work happens ----------------------

    @staticmethod
    def _has_table(args) -> bool:
        return SERIES_TABLE in args[0]._cache

    def _note_series(self, args, result, had_table):
        ctx, lam = args
        self.seen_series.add((ctx.q, lam))
        # cold: this call built the field's series table
        return int(not had_table and SERIES_TABLE in ctx._cache)

    def _note_counter(self, name):
        def note(args, result, before):
            ctx, params = args
            self.count_calls += 1
            self.seen_counts.add((name, ctx.q, params))
            if name in EXHAUSTIVE:
                self.pairs_tested += ctx.q * ctx.q
            return -1
        return note

    def _note_emit(self, args, result, before):
        self.emit_bytes += len(result)
        return -1

    def _note_task(self, key):
        def note(args, result, before):
            return self.tasks.setdefault((key, args[0].q), len(self.tasks))
        return note

    def traced_identity(self, ident):
        """The registry entry with its domain and evaluator traced, each
        span tagged with its (identity, q) task."""
        note = self._note_task(ident.key)
        return dataclasses.replace(
            ident,
            points=self.wrap("audit.domain", ident.points, note),
            evaluate=self.wrap("audit.evaluate", ident.evaluate, note))

    # -- summary ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times of every span recorded so far."""
        kind, parent, tag = (np.asarray(a, dtype=np.int64)
                             for a in (self.kind, self.parent, self.tag))
        dur = np.asarray(self.t1) - np.asarray(self.t0)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - children

        def pick(name):
            if name not in self.names:
                return np.zeros(len(dur), dtype=bool)
            return kind == self.names.index(name)

        def calls(name):
            return int(pick(name).sum())

        def total(name):
            return float(dur[pick(name)].sum())

        def own(name):
            return float(self_time[pick(name)].sum())

        series = pick("hyp.two_f_one")
        cold = series & (tag == 1)
        task_spans = pick("audit.domain") | pick("audit.evaluate")
        task_s = np.bincount(tag[task_spans], weights=dur[task_spans])
        n_series = calls("hyp.two_f_one")
        out = {
            "ff.make_field.calls": calls("ff.make_field"),
            "ff.make_field.s": total("ff.make_field"),
            "ff.numpy_tables.s": total("ff.numpy_tables"),
            "chars.jacobi_vector.calls": calls("chars.jacobi_vector"),
            "chars.jacobi_vector.self_s": own("chars.jacobi_vector"),
            "cyclo.rational_from_vector.calls": calls("cyclo.rational_from_vector"),
            "cyclo.rational_from_vector.self_s": own("cyclo.rational_from_vector"),
            "cyclo.reduce_mod_cyclotomic.self_s": own("cyclo.reduce_mod_cyclotomic"),
            "cyclo.convolve_cyclic.calls": calls("cyclo.convolve_cyclic"),
            "cyclo.convolve_cyclic.self_s": own("cyclo.convolve_cyclic"),
            "hyp.two_f_one.calls": n_series,
            "hyp.two_f_one.cold_calls": int(cold.sum()),
            "hyp.two_f_one.cold_s": float(dur[cold].sum()),
            "hyp.two_f_one.self_s": own("hyp.two_f_one"),
            "hyp.two_f_one.repeat_share": _share(n_series - len(self.seen_series), n_series),
            "hyp.hyp_eval.calls": calls("hyp.hyp_eval"),
            "hyp.hyp_eval.self_s": own("hyp.hyp_eval"),
        }
        for c in COUNTERS:
            out[f"curves.{c}.calls"] = calls(f"curves.{c}")
            out[f"curves.{c}.self_s"] = own(f"curves.{c}")
        out["curves.pairs_tested"] = self.pairs_tested
        out["curves.repeat_share"] = _share(
            self.count_calls - len(self.seen_counts), self.count_calls)
        out.update({
            "audit.points": calls("audit.evaluate"),
            "audit.evaluate.self_s": own("audit.evaluate"),
            "audit.task_s.p50": float(median(task_s)) if len(task_s) else 0.0,
            "audit.task_s.max": float(task_s.max()) if len(task_s) else 0.0,
            "audit.emit.s": total("audit.emit"),
            "audit.emit.bytes": self.emit_bytes,
        })
        return out


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def install() -> Tracer:
    """Wrap every traced site of an imported, untraced hypergf; returns
    the tracer, attached."""
    tracer = Tracer()
    notes = {"hyp.two_f_one": tracer._note_series, "audit.emit": tracer._note_emit}
    sites = [(name, places, notes.get(name)) for name, places in SITES]
    sites += [(f"curves.{c}", [("hypergf.curves", c)], tracer._note_counter(c))
              for c in COUNTERS]
    for name, places, note in sites:
        modules = [importlib.import_module(mod) for mod, _ in places]
        original = getattr(modules[0], places[0][1])
        peek = tracer._has_table if name == "hyp.two_f_one" else None
        traced = tracer.wrap(name, original, note, peek)
        for module, (_, attr) in zip(modules, places):
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} is not {name}")
            tracer.patched.append((module, attr, original, traced))
    audit = importlib.import_module("hypergf.audit")
    by_key = audit.identity_by_key
    tracer.patched.append((audit, "identity_by_key", by_key,
                           lambda key: tracer.traced_identity(by_key(key))))
    for module, attr, _, traced in tracer.patched:
        setattr(module, attr, traced)
    return tracer
