"""hypergf benchmark: fixed workloads timed end to end, traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload, each in a fresh interpreter
(``perfbench/workload.py``), serially, for about S seconds: a pass is
started only while the slowest pass so far still fits in the time left.
With ``--trace 0`` every pass is untraced; set-up time and memory are
medians over the passes, ``first_value_s`` is the mean and the rates
are the work of all passes over their summed time.  With ``--trace 1``
every pass is traced, and there are at least two; the per-layer times
and ``trace.overhead_s`` (measured inside each pass, see
``workload.py``) are medians over the passes, and the exact counters
must agree between passes.

Prints a stamp line, one line per metric, and as its last line a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` and ``failed`` count correctness checks, summed over the
passes; ``failed_share`` is their ratio.  It is 0 at a correct commit, so
it is printed by name but reported in the JSON only through that pair.
Every end-to-end metric is reported on every workload, as the benchmark
contract asks of a ``--trace 0`` result; on audit_sweep ``first_value_s``
and ``values_per_s`` both time the ``sweep`` call (see README.md).
Exits 1 without a result if a pass fails to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import EXACT  # noqa: E402

# Spread of single fresh-process runs on a 2-core Xeon VM at the seed
# commit (Python 3.11.7, numpy 2.4.6), before this benchmark existed.
REFERENCE_SPREAD = {
    "values_per_s": {"runs": 5, "range": [131, 171]},
    "first_value_s": {"runs": 5, "range": [0.82, 1.04]},
    "audit_family_wall_s": {"runs": 11, "range": [7.1, 10.2]},
    "audit_sweep_wall_s": {"runs": 11, "range": [3.4, 4.8]},
    "setup_s": {"runs": 15, "range": [0.18, 0.26]},
}


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=170)
    wall = time.monotonic() - spawned
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with code {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    result["setup_s"] = result.pop("ready") - spawned
    result["wall_s"] = wall
    return result


def run_passes(workload: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    """Passes until the slowest so far no longer fits; with tracing, at
    least two, to compare exact counters between."""
    deadline = time.monotonic() + seconds
    passes: list[dict] = []
    need = 2 if trace else 1
    while True:
        slowest = max((p["wall_s"] for p in passes), default=0.0)
        if len(passes) >= need and time.monotonic() + slowest > deadline:
            return passes
        passes.append(run_pass(workload, seed, trace))


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """Set-up time and memory are medians over the passes.  The timed
    phase is summed over all passes: ``first_value_s`` is its mean and the
    rates are all the work over all the time.  A pass's timing swings
    between the machine's fast and slow phases, so the median of a few
    passes jumps with how many fell in each; the sum averages them."""
    def rate(work: str, seconds: str) -> float:
        return sum(p[work] for p in passes) / sum(p[seconds] for p in passes)
    return {
        "setup_s": median(p["setup_s"] for p in passes),
        "first_value_s": sum(p["first_value_s"] for p in passes) / len(passes),
        "values_per_s": rate("values", "values_s"),
        "points_per_s": rate("points", "points_s"),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the traced passes (exact counters as counted,
    times as medians), and the exact counters that differed between them."""
    layers = [p["layers"] for p in passes]
    metrics = {name: value if name in EXACT else median(lay[name] for lay in layers)
               for name, value in layers[0].items()}
    unsteady = [name for name in EXACT if len({lay[name] for lay in layers}) != 1]
    return metrics, unsteady


def _git(*args: str) -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.decode().strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(args, passes: list[dict]) -> dict:
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "seed_note": ("seed picks the cold lambda on F_1009 and the lambda order"
                      if args.workload == "series_table" else
                      "audit domains are fixed; the seed does not change the inputs"),
        "python": platform.python_version(), "numpy": version("numpy"),
        "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
        "git_commit": commit, "git_dirty": bool(status) if commit else None,
        "src_sha256": _src_sha256(),
        "reference_spread": REFERENCE_SPREAD,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        measured, unsteady = per_layer(passes)
        names = spec["per_layer"]
    else:
        measured, unsteady = end_to_end(passes), []
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in names}
    print(json.dumps({"stamp": stamp(args, passes)}))
    for name in unsteady:
        print(f"exact counter {name} differs between traced passes")
    print(f"failed_share {failed / attempted:.6g} share ({failed} of {attempted} checks)")
    for name, m in metrics.items():
        value = m["value"]
        print(f"{name} {value if isinstance(value, int) else f'{value:.6g}'} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and not unsteady, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
