"""Each benchmark workload (perfbench/workload.py) runs its correctness
checks after its timed phase: the sweep(37) emit hash and per-identity
summaries read off the reports (``rep.records``, ``rep.status``), and
every series value against the point-count oracle.  Traced passes also
run the slices that time the tracing overhead, which clear
``audit._FIELD_CACHE``.  One untraced and one traced pass of each
workload must run and fail no check."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKLOAD = Path(__file__).resolve().parent.parent / "perfbench" / "workload.py"


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["series_table", "audit_sweep"])
def test_workload_pass_fails_no_check(workload, trace):
    done = subprocess.run(
        [sys.executable, str(WORKLOAD), "--workload", workload, "--seed", "1",
         "--trace", trace],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["attempted"] > 0
    assert result["failed"] == 0, done.stderr
