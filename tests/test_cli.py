import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypergf
from hypergf import audit, ff, hyp
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


@pytest.mark.parametrize("p,r,ja,jb,digest", [
    (13, 1, 1, 1, "e95b3d9051dd826f5148e6ab38d85ad3c6226c07cd0102a1860f3d69b1385924"),
    (13, 1, 3, 7, "fb717dd95ecf38e5f061126f299d71cd4facfc3155f336f206f72e47aaa2e368"),
    (3, 2, 1, 1, "cfb9f56e8b0f034ac2373ac789093f6f4aa236906620816002cdb0e6f2aa564b"),
    (3, 2, 2, 5, "8b5fc0c530c2b8820ab31b0d51f184ce449351820115561470bd6b6fddd23079"),
    (1009, 1, 1, 1, "80029874585c041e6db6c2652b16a66eab84de500a8986fd204c8d0bd345a86c"),
    (1009, 1, 5, 300, "a0fdb6001550b9b2b479c59fd18ed0d2abc597cda141dcd45b087a39d9a0af8b"),
    (4093, 1, 1, 1, "3154137e35af9d80b3ad37688842faecdf724ac3e55f66feef40da9d3b821c02"),
    # 8039 = 2*4019 + 1: Phi_8038 is dense
    (8039, 1, 1, 1, "be3ac8f7c75d9becdfc36d2eb36f838ba41fff01ef2ffa9aecbe0844f9762532"),
])
def test_charsum_output_is_pinned(capsys, p, r, ja, jb, digest):
    # polynomials and float embeddings, byte for byte
    code, out, _ = _run(capsys, "charsum", "--p", str(p), "--r", str(r),
                        "--ja", str(ja), "--jb", str(jb))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,want", [
    ("--p 5 --top 2,2 --bottom 0 --x -1",
     '{"q":5,"top":[2,2],"bottom":[0],"x":4,"value":"2/5","decimal":0.4}'),
    ("--p 13 --top 6,6,6 --bottom 0,0 --x 3",
     '{"q":13,"top":[6,6,6],"bottom":[0,0],"x":3,"value":"-3/169",'
     '"decimal":-0.01775147928994083}'),
    ("--p 3 --r 2 --top 4,4 --bottom 0 --x 2",
     '{"q":9,"top":[4,4],"bottom":[0],"x":[2,0],"value":"2/3","decimal":0.6666666666666666}'),
    ("--p 1009 --top 504,0 --bottom 504 --x 5",
     '{"q":1009,"top":[504,0],"bottom":[504],"x":5,"value":"-2/1009",'
     '"decimal":-0.0019821605550049554}'),
    ("--p 4093 --top 2046,2046 --bottom 0 --x -1",
     '{"q":4093,"top":[2046,2046],"bottom":[0],"x":4092,"value":"-54/4093",'
     '"decimal":-0.013193256779868068}'),
])
def test_evalnfn_output_is_pinned(capsys, argv, want):
    code, out, _ = _run(capsys, "evalnfn", *argv.split())
    assert (code, out) == (0, want + "\n")


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
    assert code == 1 and "unknown identity 'T9.9'" in err


@pytest.mark.parametrize("cap, argv", [
    ("abc", ["eval2f1", "--p", "5", "--lambda", "2"]),
    (None, ["special", "--p", "9"]),
    (None, ["special", "--p", "4"]),
    (None, ["audit", "--identity", "C1", "--qmax", "1000000000"]),
    ("20", ["audit", "--identity", "C2", "--qmax", "30"]),
    ("20", ["audit", "--all", "--qmax", "30"]),
    (str(2 ** 21), ["audit", "--all", "--qmax", str(2 ** 20 + 7)]),
    (None, ["audit", "--all", "--qmax", "157"]),
    (None, ["audit", "--identity", "G-reflect", "--qmax", "853"]),
    (None, ["evalnfn", "--p", "13", "--top", "2,2", "--bottom", "0", "--x", "-1"]),
    (None, ["evalnfn", "--p", "65521", "--top", "1,2,3", "--bottom", "4,5", "--x", "2"]),
    (None, ["evalnfn", "--p", "1031", "--top", "1,2,3,4", "--bottom", "5,6,7", "--x", "2"]),
    # both large p are prime: only a size check ahead of the primality
    # test refuses them without ~sqrt(p) trial divisions
    (None, ["field", "--p", "1000000000000000003"]),
    (None, ["field", "--p", "3", "--r", "3000000"]),
    (None, ["evalnfn", "--p", "3", "--r", "3000000", "--top", "1", "--x", "1"]),
    (None, ["special", "--p", "1000000000000000009"]),
    (None, ["audit", "--all", "--qmax", "5", "--jobs", "2"]),
    (None, ["audit", "--identity", "T5.3a", "--qmax", "4"]),
    (None, ["audit", "--identity", "T5.3b", "--qmax", "6"]),
], ids=["cap-not-integer", "special-9", "special-4", "qmax-unbounded",
        "identity-over-cap", "all-over-cap", "qmax-beyond-int64",
        "audit-over-work-budget", "identity-over-work-budget",
        "evalnfn-not-rational", "evalnfn-order-3-column-too-large",
        "evalnfn-order-4-over-recursion-budget",
        "field-p-over-cap", "field-r-over-cap", "evalnfn-r-over-cap",
        "special-p-over-cap", "audit-jobs-removed", "identity-no-field-in-domain-to-4",
        "identity-no-field-in-domain-to-6"])
def test_precondition_violations_exit_1(capsys, monkeypatch, cap, argv):
    built = []
    monkeypatch.setattr(audit, "cached_field", lambda p, r: built.append((p, r)))
    limit = int(cap) if cap and cap.isdigit() else ff.DEFAULT_Q_CAP

    def is_prime(n, trial_division=ff.is_prime):
        if n > limit:
            pytest.fail(f"is_prime({n}) called above the field-size cap {limit}")
        return trial_division(n)
    monkeypatch.setattr(ff, "is_prime", is_prime)
    monkeypatch.setattr(hyp, "is_prime", is_prime)
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
    # one identity with no point is refused, naming its domain ...
    code, out, err = _run(capsys, "audit", "--identity", "C5.3", "--qmax", "4")
    assert code == 1 and out == "" and "primes p = 1 mod 4; a^2 = -1" in err
    code, out, err = _run(capsys, "audit", "--identity", "C3", "--qmax", "4")
    assert code == 1 and out == "" and "a^2 != b^2" in err
    # ... while a sweep keeps every identity's summary record
    code, out, _ = _run(capsys, "audit", "--all", "--qmax", "4", "--provenance", "corrected")
    assert code == 0
    summaries = {row["identity"]: row["points"] for row in json.loads(out) if "summary" in row}
    assert summaries["C5.3"] == summaries["C3"] == 0 and len(summaries) == 8


def test_audit_csv_and_jobs(capsys):
    code, out, _ = _run(capsys, "audit", "--identity", "C1", "--qmax", "5",
                        "--format", "csv")
    assert code == 0
    assert out.startswith("identity,q,a,b,lambda,lhs,rhs,residual,pass")


def test_import_loads_no_process_pool():
    # the audit runs in the calling process: importing the package and its
    # CLI pulls in neither multiprocessing nor concurrent.futures
    src = str(Path(hypergf.__file__).resolve().parent.parent)
    code = ("import sys, hypergf, hypergf.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


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
    for argv, reason in (("--p 65521 --top 1,2,3 --bottom 4,5 --x 2", "cell bound"),
                         ("--p 1031 --top 1,2,3,4 --bottom 5,6,7 --x 2", "cells of recursion")):
        code, out, err = _run(capsys, "evalnfn", *argv.split())
        assert (code, out, built) == (1, "", [])
        assert reason in err
