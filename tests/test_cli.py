import json

import pytest

from hypergf import audit
from hypergf.cli import run


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval2f1(capsys):
    code, out, _ = _run(capsys, "eval2f1", "--p", "5", "--lambda", "-1")
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 5
    assert data["lambda"] == 4          # -1 reduced into the field
    assert data["value"] == "2/5"
    assert data["decimal"] == 0.4


def test_eval2f1_extension(capsys):
    code, out, _ = _run(capsys, "eval2f1", "--p", "3", "--r", "2",
                        "--lambda", "-1")
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 9
    assert data["lambda"] == [2, 0]     # coefficient vector of -1
    assert data["value"] == "2/3"


def test_count_models(capsys):
    code, out, _ = _run(capsys, "count", "--model", "ghuff", "--p", "5",
                        "--a", "1", "--b", "4")
    assert code == 0
    assert json.loads(out) == {"affine": 5, "at_infinity": 3, "total": 8}
    code, out, _ = _run(capsys, "count", "--model", "weier", "--p", "13",
                        "--a", "1", "--b", "12")
    assert json.loads(out) == {"affine": 7, "at_infinity": 1, "total": 8}
    code, out, _ = _run(capsys, "count", "--model", "edwards", "--p", "5",
                        "--a", "4")
    assert json.loads(out) == {"affine": 4, "at_infinity": 0, "total": 4}
    code, out, _ = _run(capsys, "count", "--model", "huff", "--p", "7",
                        "--a", "1", "--b", "2")
    assert json.loads(out)["total"] == 8


def test_count_extension_with_coefficient_tuples(capsys):
    code, out, _ = _run(capsys, "count", "--model", "weier", "--p", "3",
                        "--r", "2", "--a", "1,1", "--b", "2,0")
    assert code == 0
    data = json.loads(out)
    assert data["at_infinity"] == 1 and data["total"] >= 4


def test_special(capsys):
    code, out, _ = _run(capsys, "special", "--p", "13")
    assert code == 0
    assert json.loads(out) == {"x": 3, "y": 2, "two_f_one_minus1": "-6/13"}
    code, out, _ = _run(capsys, "special", "--p", "7")
    assert json.loads(out) == {"x": None, "y": None, "two_f_one_minus1": "0/1"}


def test_field(capsys):
    code, out, _ = _run(capsys, "field", "--p", "3", "--r", "2")
    assert code == 0
    assert json.loads(out) == {"p": 3, "r": 2, "q": 9, "modulus": [1, 0, 1],
                               "generator": [1, 1]}
    code, out, _ = _run(capsys, "field", "--p", "5")
    assert json.loads(out)["generator"] == 2


def test_charsum(capsys):
    code, out, _ = _run(capsys, "charsum", "--p", "5", "--ja", "1", "--jb", "1")
    assert code == 0
    data = json.loads(out)
    assert data["jacobi"]["poly"] == "-1 - 2*z"
    assert data["binom"]["poly"] == "-1/5"
    assert abs(data["jacobi"]["embedding"][0] + 1) < 1e-9
    assert abs(data["jacobi"]["embedding"][1] + 2) < 1e-9


def test_evalnfn(capsys):
    # the (phi, eps; phi) profile at a nonsquare argument
    code, out, _ = _run(capsys, "evalnfn", "--p", "5", "--top", "2,0",
                        "--bottom", "2", "--x", "2")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "0/1"       # 1 + phi(2) = 0
    code, out, _ = _run(capsys, "evalnfn", "--p", "5", "--top", "2,2",
                        "--bottom", "0", "--x", "-1")
    assert json.loads(out)["value"] == "2/5"


def test_usage_errors(capsys):
    code, _, err = _run(capsys, "bogus")
    assert code == 1 and "usage" in err.lower()
    code, _, err = _run(capsys, "count", "--model", "ghuff", "--p", "5",
                        "--a", "1", "--b", "1")
    assert code == 1 and "needs a != b" in err
    code, _, err = _run(capsys, "eval2f1", "--p", "4", "--lambda", "1")
    assert code == 1
    code, _, err = _run(capsys, "count", "--model", "huff", "--p", "5", "--a", "1")
    assert code == 1 and "--b" in err
    code, _, err = _run(capsys, "evalnfn", "--p", "5", "--top", "2",
                        "--bottom", "0", "--x", "1")
    assert code == 1
    code, _, err = _run(capsys, "audit", "--identity", "T9.9", "--qmax", "5")
    assert code == 1


@pytest.mark.parametrize("cap, argv", [
    ("abc", ["eval2f1", "--p", "5", "--lambda", "2"]),
    (None, ["special", "--p", "9"]),
    (None, ["special", "--p", "4"]),
    (None, ["audit", "--identity", "C1", "--qmax", "1000000000"]),
    ("20", ["audit", "--identity", "C2", "--qmax", "30"]),
    ("20", ["audit", "--all", "--qmax", "30"]),
    (str(2 ** 21), ["audit", "--all", "--qmax", str(2 ** 20 + 7)]),
    (None, ["evalnfn", "--p", "13", "--top", "2,2", "--bottom", "0", "--x", "-1"]),
    (None, ["evalnfn", "--p", "65521", "--top", "1,2,3", "--bottom", "4,5", "--x", "2"]),
], ids=["cap-not-integer", "special-9", "special-4", "qmax-unbounded",
        "identity-over-cap", "all-over-cap", "qmax-beyond-int64",
        "evalnfn-not-rational", "evalnfn-order-3-column-too-large"])
def test_precondition_violations_exit_1(capsys, monkeypatch, cap, argv):
    built = []
    monkeypatch.setattr(audit, "cached_field", lambda p, r: built.append((p, r)))
    monkeypatch.delenv("HYPERGF_Q_CAP", raising=False)
    if cap is not None:
        monkeypatch.setenv("HYPERGF_Q_CAP", cap)
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == "" and "usage error" in err
    assert built == []                  # refused before any field is built
    assert err.count("\n") == 1 and len(err) < 200     # one short line


def test_audit_exit_codes(capsys):
    code, out, _ = _run(capsys, "audit", "--identity", "T4.1", "--qmax", "5")
    assert code == 3
    rows = json.loads(out)
    assert rows[-1]["status"] == "FAIL"
    code, out, _ = _run(capsys, "audit", "--all", "--qmax", "5",
                        "--provenance", "corrected")
    assert code == 0
    code, out, _ = _run(capsys, "audit", "--all", "--qmax", "5")
    assert code == 3


def test_audit_csv_and_jobs(capsys):
    code, out, _ = _run(capsys, "audit", "--identity", "C1", "--qmax", "5",
                        "--format", "csv", "--jobs", "2")
    assert code == 0
    assert out.startswith("identity,q,a,b,lambda,lhs,rhs,residual,pass")


def test_repeat_runs_byte_identical(capsys):
    _, out1, _ = _run(capsys, "eval2f1", "--p", "13", "--lambda", "2")
    _, out2, _ = _run(capsys, "eval2f1", "--p", "13", "--lambda", "2")
    assert out1 == out2
    _, audit1, _ = _run(capsys, "audit", "--all", "--qmax", "7")
    _, audit2, _ = _run(capsys, "audit", "--all", "--qmax", "7")
    assert audit1 == audit2


def test_audit_provenance_mismatch_computes_nothing(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(audit, "cached_field", lambda p, r: built.append((p, r)))
    code, out, _ = _run(capsys, "audit", "--identity", "C2",
                        "--provenance", "printed", "--qmax", "49")
    assert (code, out) == (0, "[]\n")
    assert built == []                  # no field built for a filtered-out identity


def test_evalnfn_order_bound_builds_no_field(capsys, monkeypatch):
    from hypergf import cli
    built = []
    monkeypatch.setattr(cli, "make_field", lambda *args: built.append(args))
    code, out, err = _run(capsys, "evalnfn", "--p", "65521", "--top", "1,2,3",
                          "--bottom", "4,5", "--x", "2")
    assert (code, out, built) == (1, "", [])
    assert "cell bound" in err
