"""The benchmark's span tracer (perfbench/spans.py) wraps hypergf at its
import sites.  A refactor that renames or drops one of those sites, or
stops building the series table on a field's first two_f_one, breaks
the traced benchmark; this test catches it in the tier-1 suite."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_traces_one_cold_call_and_detach_restores(spans):
    from hypergf import ff, hyp

    tracer = spans.install()
    try:
        hyp.two_f_one(ff.make_field(7), 3)
        metrics = tracer.layer_metrics()
    finally:
        tracer.detach()
    assert metrics["hyp.two_f_one.calls"] == 1
    assert metrics["hyp.two_f_one.cold_calls"] == 1
    assert metrics["ff.make_field.calls"] == 1
    for module, attr, original, _ in tracer.patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_install_traces_the_audit_and_detach_restores(spans):
    # the tracer replaces Identity.points and Identity.evaluate (ctx first)
    # and wraps audit's make_field and two_f_one bindings
    from hypergf import audit

    plain = audit.emit(audit.sweep(5), "json")
    tasks = 2 + sum(len(rep.columns) for rep in audit.sweep(5))
    tracer = spans.install()
    try:
        report = audit.audit_identity("C1", [5, 7])
        traced = audit.emit(audit.sweep(5), "json")
        metrics = tracer.layer_metrics()
    finally:
        tracer.detach()
    assert report.status == "PASS" and traced == plain
    assert metrics["audit.points"] == tasks      # one evaluate call per task
    assert metrics["audit.emit.bytes"] == len(plain)
    for module, attr, original, _ in tracer.patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
