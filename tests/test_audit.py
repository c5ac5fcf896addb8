import csv
import hashlib
import io
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _emit_referee as emit_referee
from _audit_referee import REFEREE
from hypergf import (Q_CAP, FieldError, audit, audit_identity, curves, emit, emit_chunks,
                     identity_by_key, registry, sweep)
from hypergf.audit import (_FIELD_CACHE, PROVENANCES, Column, _columns_for, _residual,
                           _scaled, cached_field, capped_prime_powers)
from hypergf.cli import run
from hypergf.ff import odd_prime_powers

# size and SHA-256 of emit(sweep(49)) in both formats, taken from the
# per-point Fraction evaluators that the columnar audit replaced
SWEEP49_PINS = {
    "json": (10_429_139, "ce1dd4401091439ab5105e24e319ada584caf2ffa9e430407c5c10dcc7c46edb"),
    "csv": (3_905_849, "9e1f20a7ac32f098e846f3271c8231cd9158bf5795e701da8f44fd6eaa471575"),
}


def _record(report, **params):
    want = tuple(params.items())
    for rec in report.records:
        if rec.q == params.get("q") and \
                tuple(kv for kv in rec.params) == tuple(
                    (k, v) for k, v in want if k != "q"):
            return rec
    raise AssertionError(f"no record with {params} in {report.identity}")


def test_registry_contents():
    idents = registry()
    assert len(idents) >= 15
    keys = [i.key for i in idents]
    assert len(keys) == len(set(keys))
    for want in ("T4.1", "C4.2", "C5.1", "T5.2a", "T5.2b", "T5.2c", "T5.3a",
                 "T5.3b", "C1", "C2", "C3", "C4a", "C4b", "C4c", "C5.3",
                 "G-reflect", "G-ratio", "G-316", "O-minus1"):
        assert want in keys
    assert all(i.provenance in PROVENANCES for i in idents)
    # every printed identity points at its corrected form or carries a note
    for ident in idents:
        if ident.provenance == "printed":
            assert ident.counterpart or "empirical" in ident.description


def test_unknown_identity_rejected():
    with pytest.raises(KeyError) as err:
        identity_by_key("T9.9")
    assert err.value.args == ("unknown identity 'T9.9'",)
    with pytest.raises(KeyError):
        audit_identity("nope", [5])


def test_registry_index_finds_each_entry_by_key():
    idents = registry()
    # fails if two entries share a key: the index keeps only the last
    assert all(identity_by_key(ident.key) is ident for ident in idents)
    # each call returns a new list: changing it leaves the registry whole
    idents.clear()
    assert registry() == list(audit._REGISTRY) and len(registry()) >= 15


def test_denominators_are_closed_forms():
    for ident in registry():
        for p, r in odd_prime_powers(49):
            if not ident.admissible(p, r):
                continue
            q = p ** r
            block = _columns_for(ident, p, r)
            for side in (block.lhs, block.rhs):
                assert side.den in {1, q, q - 1, q * q, p * (p - 1)}, (ident.key, q)
            if ident.key == "G-316":
                assert block.lhs.den == q


def _no_field_listing(monkeypatch):
    def refuse(limit):
        raise AssertionError("audit_identity listed the prime powers")
    monkeypatch.setattr(audit, "odd_prime_powers", refuse)


def test_bad_q_rejected(monkeypatch):
    # each requested q is recognised by factoring it, not from a listing
    _no_field_listing(monkeypatch)
    for bad in (0, 1, 2, 4, 8, 15, 45, 2 * 3 ** 3):
        with pytest.raises(ValueError, match="not an odd prime power"):
            audit_identity("C1", [bad])
    assert audit_identity("C1", [3, 9]).status == "PASS"


def test_t41_residuals_at_q5():
    report = audit_identity("T4.1", [5])
    assert report.status == "FAIL"
    rec = _record(report, q=5, a=1, b=4)
    assert (rec.lhs, rec.rhs, rec.residual) == (Fraction(8), Fraction(7), Fraction(1))
    rec = _record(report, q=5, a=1, b=2)
    assert rec.rhs == Fraction(23, 2)
    assert rec.residual == Fraction(-7, 2)
    assert rec.rhs.denominator != 1     # non-integral count is evidence, not an error


def test_t41_residual_pattern_at_q5():
    # at q=5: on square ratios the printed form misses by 2*phi(a)-1 (so by
    # exactly +1 whenever a is itself a square, e.g. at (1,4)); on nonsquare
    # ratios it produces a non-integral point count
    report = audit_identity("T4.1", [5])
    squares_mod5 = {1, 4}
    for rec in report.records:
        params = dict(rec.params)
        a = params["a"]
        ratio = (params["b"] * pow(a, 3, 5)) % 5
        if ratio in squares_mod5:
            want = 1 if a in squares_mod5 else -3
            assert rec.residual == want, rec
        else:
            assert rec.rhs.denominator > 1, rec


def test_c42_residual_at_q5():
    report = audit_identity("C4.2", [5])
    rec = _record(report, q=5, a=1, b=2)
    assert (rec.lhs, rec.rhs) == (Fraction(8), Fraction(7))
    assert rec.residual == Fraction(1)


def test_t52b_residual_at_q13():
    report = audit_identity("T5.2b", [13])
    rec = next(r for r in report.records
               if r.q == 13 and dict(r.params)["lambda"] == 2)
    assert rec.lhs == Fraction(2, 13)
    assert rec.rhs == Fraction(38, 169)
    assert rec.residual == Fraction(-12, 169)
    corrected = audit_identity("C4b", [13])
    crec = next(r for r in corrected.records
                if r.q == 13 and dict(r.params)["lambda"] == 2)
    assert crec.passed


def test_corrected_pass_small_sweep():
    report = audit_identity("C1", [5, 7, 9, 11, 13])
    assert report.status == "PASS"
    assert all(rec.residual == 0 for rec in report.records)
    assert report.records  # nonempty domain


def test_sweep_statuses_q13():
    by_key = {rep.identity: rep for rep in sweep(13)}
    for key in ("T4.1", "C4.2", "C5.1", "T5.2a", "T5.2b", "T5.2c"):
        assert by_key[key].status == "FAIL"
        assert by_key[key].counterexamples
    for rep in by_key.values():
        if rep.provenance in ("corrected", "greene", "ono"):
            assert rep.status == "PASS", rep.identity
    # pass flag is exactly residual == 0
    for rep in by_key.values():
        for rec in rep.records:
            assert rec.passed == (rec.residual == 0)


def test_provenance_filter():
    assert {r.provenance for r in sweep(7, include="printed")} == {"printed"}
    assert {r.provenance for r in sweep(7, include="greene")} == {"greene"}
    with pytest.raises(ValueError, match="provenance"):
        sweep(7, include="folklore")


def test_counterexample_cap():
    report = audit_identity("T4.1", [5, 7, 9, 11, 13])
    failures = [r for r in report.records if not r.passed]
    assert len(failures) > 100
    assert len(report.counterexamples) == 100
    assert report.truncated
    # under the cap every failing point is a counterexample
    small = audit_identity("T4.1", [5])
    assert (small.status, small.failures, len(small.counterexamples), small.truncated) == (
        "FAIL", 12, 12, False)
    assert json.loads(emit([small], "json"))[-1] == {
        "identity": "T4.1", "summary": True, "provenance": "printed",
        "status": "FAIL", "points": 12, "failures": 12, "truncated": False}
    assert emit([small], "csv").decode().endswith("T4.1,,,,,,,,false\r\n")


def test_emit_json_schema():
    reports = [audit_identity("T4.1", [5])]
    payload = emit(reports, "json")
    rows = json.loads(payload)
    failure_row = next(r for r in rows if r.get("a") == 1 and r.get("b") == 4)
    assert failure_row == {"identity": "T4.1", "q": 5, "a": 1, "b": 4,
                           "lhs": "8/1", "rhs": "7/1", "residual": "1/1",
                           "pass": False}
    summary = rows[-1]
    assert summary["identity"] == "T4.1" and summary["summary"] is True
    assert summary["status"] == "FAIL"
    assert summary["points"] == len(reports[0].records)


def test_emit_csv_schema():
    reports = [audit_identity("G-reflect", [5]), audit_identity("O-minus1", [5, 7])]
    text = emit(reports, "csv").decode()
    lines = text.split("\r\n")
    assert lines[0] == "identity,q,a,b,lambda,lhs,rhs,residual,pass"
    parsed = list(csv.reader(io.StringIO(text)))
    # every data row has exactly the header width
    assert all(len(row) == 9 for row in parsed if row)
    lam_row = parsed[1]
    assert lam_row[0] == "G-reflect" and lam_row[4] != "" and lam_row[2] == ""
    # summary rows carry only the identity and the overall status
    summaries = [row for row in parsed[1:] if row and row[1] == ""]
    assert [row[0] for row in summaries] == ["G-reflect", "O-minus1"]
    assert all(row[8] in ("true", "false") for row in summaries)


def test_csv_cells_need_no_quoting():
    # emit joins CSV cells bare; that is csv.writer's output while no key or
    # column name holds a delimiter, quote or line break, or edge spaces
    cells = [ident.key for ident in registry()] + list(audit._CSV_COLUMNS)
    for cell in cells:
        assert cell and cell == cell.strip() and not set(cell) & set(',"\r\n'), cell
    text = emit(sweep(13), "csv").decode()
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerows(csv.reader(io.StringIO(text)))
    assert buf.getvalue() == text


def test_emit_empty_and_bad_format():
    assert emit([], "json") == b"[]\n"
    assert emit([], "csv").decode().strip() == "identity,q,a,b,lambda,lhs,rhs,residual,pass"
    with pytest.raises(ValueError, match="format"):
        emit([], "xml")


def test_sweep_deterministic_and_parallel_identical():
    assert emit(sweep(9), "json") == emit(sweep(9), "json")
    assert emit(sweep(9), "csv") == emit(sweep(9), "csv")


def test_prime_only_identities_skip_extensions():
    rep = audit_identity("O-minus1", [9, 13, 25])
    assert {rec.q for rec in rep.records} == {13} and rep.status == "PASS"
    rep = audit_identity("T5.3a", [13, 17, 25])
    assert {rec.q for rec in rep.records} == {13, 17}


def _no_columns():
    """A report with no block: T5.3a (primes 1 mod 4) in a sweep to q = 3."""
    return next(rep for rep in sweep(3) if rep.identity == "T5.3a")


@pytest.mark.parametrize("key, qs, fields", [
    ("T5.3a", [9, 27], []), ("O-minus1", [9, 25], []), ("T5.3b", [3, 5], []),
    ("C1", [], []),
    ("C3", [3], [(3, 1)]), ("T5.2a", [3], [(3, 1)]),    # admissible, empty at q = 3
])
def test_an_audit_of_no_point_is_refused(monkeypatch, key, qs, fields):
    built = []

    def build(p, r, cached=audit.cached_field):
        built.append((p, r))
        return cached(p, r)
    monkeypatch.setattr(audit, "cached_field", build)
    with pytest.raises(FieldError, match="no point") as err:
        audit_identity(key, qs)
    assert identity_by_key(key).domain_description in str(err.value)
    assert built == fields          # no field where none is admissible


def test_quoted_suites_pass_in_full_ranges():
    from hypergf.ff import is_prime, odd_prime_powers

    qs49 = [p ** r for p, r in odd_prime_powers(49)]
    for key in ("G-reflect", "G-ratio", "G-316", "S-edw"):
        report = audit_identity(key, qs49)
        assert report.status == "PASS", (key, report.counterexamples[:3])
        assert report.records
    primes = [p for p in range(3, 230, 2) if is_prime(p)]
    report = audit_identity("O-minus1", primes)
    assert report.status == "PASS"
    assert len(report.records) == len(primes)


def test_sweep49_emit_is_pinned():
    reports = sweep(49)
    for fmt, (size, digest) in SWEEP49_PINS.items():
        payload = emit(reports, fmt)
        assert (len(payload), hashlib.sha256(payload).hexdigest()) == (size, digest), fmt


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_audit_streams_the_pinned_bytes(capsysbinary, fmt):
    assert run(["audit", "--all", "--qmax", "49", "--format", fmt]) == 3
    out = capsysbinary.readouterr().out
    assert (len(out), hashlib.sha256(out).hexdigest()) == SWEEP49_PINS[fmt]


def test_emit_chunks_join_to_emit():
    no_columns = _no_columns()
    assert no_columns.columns == ()
    for reports in (sweep(13), sweep(9), [], [no_columns]):
        for fmt in ("json", "csv"):
            chunks = list(emit_chunks(reports, fmt))
            assert b"".join(chunks) == emit(reports, fmt)
            # the opening, one chunk per nonempty block and per summary,
            # and the JSON closing
            blocks = sum(1 for rep in reports for block in rep.columns if len(block.params))
            assert len(chunks) == 1 + blocks + len(reports) + (fmt == "json")
            assert chunks[0] == (b"[" if fmt == "json" else
                                 b"identity,q,a,b,lambda,lhs,rhs,residual,pass\r\n")
    # records join across chunk boundaries, whatever comes first
    reports = sweep(5)
    assert json.loads(emit([no_columns, *reports, no_columns], "json")) == [
        *json.loads(emit([no_columns], "json")), *json.loads(emit(reports, "json")),
        *json.loads(emit([no_columns], "json"))]
    with pytest.raises(ValueError, match="format"):
        emit_chunks([], "xml")


def test_emit_chunks_hold_one_block_at_a_time():
    reports = sweep(49)
    size = 0
    tracemalloc.start()
    try:
        for chunk in emit_chunks(reports, "json"):
            size += len(chunk)
            del chunk
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == SWEEP49_PINS["json"][0]
    assert peak < 2.5e6, peak                      # a quarter of the output


def test_emit_fills_one_buffer():
    reports = sweep(49)
    for fmt in ("json", "csv"):
        tracemalloc.start()
        try:
            payload = emit(reports, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert payload == b"".join(emit_chunks(reports, fmt))
        # the output and one block's text; joining the chunks held two outputs
        assert peak < 1.5 * SWEEP49_PINS[fmt][0], (fmt, peak)


def _wide_report():
    """A hand-built G-316 report whose numerators lie near +-2**40, lhs over
    q and rhs over q - 1: any run of it has len(run) * span_l * span_r >=
    2**62, so its key falls back to dense ranks."""
    rng = np.random.default_rng(40)
    blocks = []
    for q in (13, 17, 19):
        lam = np.arange(2, q).reshape(-1, 1)
        near = [rng.integers(-2, 3, len(lam)) + rng.choice([-1, 1], len(lam)) * (1 << 40)
                for _ in range(2)]
        lhs, rhs = Column(near[0] * q, q), Column(near[1] * (q - 1), q - 1)
        rhs.num[::3] = near[0][::3] * (q - 1)          # some rows pass
        blocks.append(audit.FieldColumns("G-316", q, ("lambda",), lam, lhs, rhs,
                                         _residual(lhs, rhs)))
    return audit.IdentityReport("G-316", "greene", tuple(blocks))


@pytest.mark.parametrize("run_rows", [1, 7, audit._RUN_ROWS])
def test_emit_matches_the_per_block_referee(monkeypatch, run_rows):
    # runs of one block each, runs split inside a report, and the default
    no_columns = _no_columns()
    wide = [_wide_report()]
    cases = [sweep(13), [no_columns, *sweep(9)],
             [audit_identity("G-316", [27, 125])],       # an lcm denominator
             [audit_identity("O-minus1", [3, 5, 7, 9, 11, 13])],   # no parameters
             wide]
    monkeypatch.setattr(audit, "_RUN_ROWS", run_rows)
    ranked = []
    monkeypatch.setattr(audit, "_ranks", lambda nums, ranks=audit._ranks:
                        ranked.append(len(nums)) or ranks(nums))
    for reports in cases:
        ranked.clear()
        for fmt in ("json", "csv"):
            chunks = list(emit_chunks(reports, fmt))
            assert chunks == emit_referee.emit_chunks(reports, fmt), (run_rows, fmt)
        # the offsets key everywhere but the wide report, the ranks there
        assert bool(ranked) == (reports is wide), run_rows
    assert 0 < wide[0].failures < len(wide[0].records)


def test_capped_prime_powers_lists_to_the_cap_then_refuses():
    # the listing is a sieve; the work budget still refuses it
    with pytest.raises(FieldError, match="budget"):
        capped_prime_powers(Q_CAP)


def test_domains_are_built_once_per_field():
    ctx = cached_field(13, 1)
    domains = {}
    for ident in registry():
        points = ident.points(ctx)
        assert points is ident.points(ctx) and not points.flags.writeable, ident.key
        domains[ident.points] = points
    # each domain under its own key: (a, b), Huff (a, b), three lambda
    # domains, two root domains and the parameterless point
    assert len(domains) == len({id(points) for points in domains.values()}) == 8


@pytest.mark.parametrize("p,r", [(13, 1), (3, 2), (5, 2)])
def test_ab_domains_are_the_valid_pairs(p, r):
    ctx = cached_field(p, r)
    # C1 reads the (a, b) domain and C3 the Huff one
    for domain, squares, key in ((audit._points_ab, False, "C1"),
                                 (audit._points_huff_ab, True, "C3")):
        points = domain(ctx)
        assert np.array_equal(points, np.argwhere(curves.valid_pairs(ctx, squares)))
        assert points.tolist() == [list(ab) for ab in REFEREE[key][0](ctx)]


def test_work_budget_edge():
    # the whole registry has (a, b) identities, charged sum q^3 <= 2^25 (more
    # than their O(q^2) family builds cost; the edges stay where they were)
    assert capped_prime_powers(156)[-1] == (151, 1)
    with pytest.raises(FieldError, match="budget"):
        capped_prime_powers(157)
    # lambda identities alone cost sum q^2 <= 2^25
    lam = [identity_by_key("G-reflect"), identity_by_key("O-minus1")]
    assert capped_prime_powers(852, lam)[-1] == (29, 2)
    with pytest.raises(FieldError, match="budget"):
        capped_prime_powers(853, lam)
    assert capped_prime_powers(156, [identity_by_key("C1")])[-1] == (151, 1)


def test_audit_identity_budget_counts_the_requested_fields_only(monkeypatch):
    # one field past the sweep edges above: C1 over F_157 alone is
    # 157^3 = 3.9e6 cells, G-reflect over F_853 alone 853^2 = 7.3e5
    assert audit_identity("C1", [157]).status == "PASS"
    assert audit_identity("G-reflect", [853]).status == "PASS"
    # the edge on the requested fields: 317^3 <= 2^25 < 331^3 and
    # 5791^2 <= 2^25 < 5801^2, and two fields add up: 4099^2 + 4111^2 > 2^25
    assert audit_identity("C1", [317]).status == "PASS"
    assert audit_identity("G-reflect", [5791]).status == "PASS"
    # refused before any field is built (other tests may have built some)
    built = set(_FIELD_CACHE)
    for key, qs in [("C1", [331]), ("C1", [157, 311, 313]), ("G-reflect", [5801]),
                    ("G-reflect", [4099, 4111])]:
        with pytest.raises(FieldError, match="budget"):
            audit_identity(key, qs)
    assert set(_FIELD_CACHE) == built
    # and before any listing of the prime powers below the requested q
    _no_field_listing(monkeypatch)
    with pytest.raises(FieldError, match="budget"):
        audit_identity("G-reflect", [65521])


def test_sweep81_emit_is_pinned():
    # taken before G-316 moved from the sum over chi to Greene's integral
    # form; covers G-316 over F_81 = F_{3^4}
    payload = emit(sweep(81), "json")
    assert (len(payload), hashlib.sha256(payload).hexdigest()) == (
        39_147_625, "c85b36a1d375c736b50a13cc36aa40cc59a12844a35927947047f1486e80465c")


def test_f317_family_emit_is_pinned():
    # taken while the general Huff and Weierstrass tables came from an
    # O(q^3) line-count gather and the quartic one from a matrix product;
    # F_317 is the largest single field the work budget admits for these
    payload = emit([audit_identity(k, [317])
                    for k in ("T4.1", "T4.1-proof", "C1", "C3", "C-edw")], "csv")
    assert (len(payload), hashlib.sha256(payload).hexdigest()) == (
        20_838_534, "9a5238898be3835f17a245abfc0de59eff4de10870f61c86ca315366621646fe")


def test_records_are_built_on_first_read():
    report = audit_identity("C4.2", [5, 7, 9, 11, 13])
    assert "records" not in vars(report)           # nothing built by the audit
    assert "counterexamples" not in vars(report)
    assert len(report.counterexamples) == 100 and report.truncated
    records = report.records
    assert report.records is records               # built once
    assert [rec for rec in records if not rec.passed][:100] == report.counterexamples
    assert len(records) == sum(len(block.params) for block in report.columns)


def test_sweep_and_emit_build_no_records():
    reports = sweep(9)
    emit(reports, "json")
    emit(reports, "csv")
    assert all("records" not in vars(rep) and "counterexamples" not in vars(rep)
               for rep in reports)
    assert {rep.status for rep in reports} == {"PASS", "FAIL"}
    for rep in reports:
        failing = [rec for block in rep.columns for rec in block.records()
                   if not rec.passed]
        assert rep.counterexamples == failing[:100]
        assert rep.failures == len(failing)


def test_records_view_reads_the_blocks_in_order():
    # T5.2a has an empty domain at q = 3; T5.3a has no field in a sweep to 3
    for report in (audit_identity("T5.2a", [3, 5, 7, 9, 11]), sweep(13)[0],
                   _no_columns()):
        view = report.records
        listed = list(view)
        assert len(view) == len(listed) == sum(len(b.params) for b in report.columns)
        assert bool(view) == bool(listed)
        assert listed == [rec for block in report.columns for rec in block.records()]


def test_record_counts_cost_no_records():
    reports = sweep(81)
    tracemalloc.start()
    try:
        total = sum(len(rep.records) for rep in reports)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == sum(len(block.params) for rep in reports for block in rep.columns)
    assert peak < 1e6, peak


@st.composite
def _identity_field_rows(draw):
    ident = draw(st.sampled_from(registry()))
    fields = [(p, r) for p, r in odd_prime_powers(49) if ident.admissible(p, r)]
    p, r = draw(st.sampled_from(fields))
    size = len(REFEREE[ident.key][0](cached_field(p, r)))     # 0 for T5.2a at q = 3
    rows = draw(st.lists(st.integers(0, size - 1), max_size=6)) if size else []
    return ident, p, r, rows


@settings(max_examples=250, deadline=None, database=None)
@given(_identity_field_rows())
def test_columns_match_the_referee(drawn):
    ident, p, r, rows = drawn
    ctx = cached_field(p, r)
    points, evaluate = REFEREE[ident.key]
    want = points(ctx)
    block = _columns_for(ident, p, r)
    assert [tuple(pt) for pt in block.params.tolist()] == want
    lhs, rhs = ident.evaluate(ctx, block.params[rows])
    residual = _residual(lhs, rhs)
    for i, row in enumerate(rows):
        ref_lhs, ref_rhs = evaluate(ctx, want[row])
        got = [Fraction(int(c.num[i]), c.den) for c in (lhs, rhs, residual)]
        assert got == [ref_lhs, ref_rhs, ref_lhs - ref_rhs], (ident.key, ctx.q, want[row])
        assert (residual.num[i] == 0) == (ref_lhs == ref_rhs)
        (rec,) = block.records([row])
        assert (rec.params, rec.lhs, rec.rhs, rec.residual, rec.passed) == (
            tuple(zip(ident.param_names, want[row])), ref_lhs, ref_rhs,
            ref_lhs - ref_rhs, ref_lhs == ref_rhs)


def test_int64_headroom_is_checked():
    column = np.array([2 ** 40, -3], dtype=np.int64)
    assert _scaled(column, 2 ** 21).tolist() == [2 ** 61, -3 * 2 ** 21]
    with pytest.raises(OverflowError, match="int64"):
        _scaled(column, 2 ** 22)                   # 2^62 leaves no room for a sum
    with pytest.raises(OverflowError, match="int64"):
        _residual(Column(np.array([2 ** 61]), 1), Column(np.array([1]), 2))
    # every numerator is below 4q^3, under 2^62 up to the cap (asserted at
    # import); above the cap no audit starts
    assert capped_prime_powers(3) == [(3, 1)]
    with pytest.raises(FieldError, match="cap"):
        capped_prime_powers(2 ** 20 + 7)


def test_columns_compare_by_identity():
    # numpy numerators have no single truth value: == on columns of several
    # rows compares the objects, and does not raise
    one, two = Column(np.array([1, 2]), 1), Column(np.array([1, 2]), 1)
    assert one == one and one != two
    block, again = (_columns_for(identity_by_key("C1"), 5, 1) for _ in range(2))
    assert block == block and block != again


def test_audit_identity_and_sweep_emit_the_same_report():
    qs = [p ** r for p, r in odd_prime_powers(27)]
    for rep in sweep(27):
        alone = audit_identity(rep.identity, qs)
        for fmt in ("json", "csv"):
            assert emit([alone], fmt) == emit([rep], fmt), (rep.identity, fmt)
