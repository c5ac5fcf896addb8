"""Repeat the benchmark over seeds, twice, and summarise its spread.

    python3 perfbench/baseline.py [--out FILE]

For every workload in BENCHMARK.json, runs ``run.py --trace 0`` once per
seed 1..10; then does the same again, a second set after the first.  For
each set and end-to-end metric it reports the median and quartiles
(``statistics.quantiles(n=4)``) of the run medians and the spread
(q3 - q1) / median against the metric's bound.  The benchmark is steady
when

- every spread is below a third of its bound, except that of setup_s:
  set-up time is a fraction of a second spent in interpreter start and
  imports, so its spread is the machine's and the benchmark contract
  gates it only through the median shift below (its spread is still
  printed);
- each metric's second-set median is no worse than the first by more
  than its bound;
- two traced runs per workload (after both sets) count the same exact
  counters.

``--out`` writes both sets, every run value and the per-layer metrics of
the first traced run, stamped, as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import EXACT  # noqa: E402

RUNS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=180)
    lines = out.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"incorrect result: {' '.join(cmd)}\n{lines[-1]}")
    return json.loads(lines[0])["stamp"], result


def run_set(spec: dict, label: str) -> tuple[dict, bool, dict]:
    """Ten untraced runs of every workload: per-workload summaries,
    whether every spread is narrow enough, and a stamp."""
    summary, steady = {}, True
    for w in spec["workloads"]:
        runs = [bench(w["name"], seed, spec["run_seconds"], 0) for seed in range(1, RUNS + 1)]
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for _, r in runs]
            q1, q2, q3 = quantiles(values, n=4)
            spread = (q3 - q1) / median(values)
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            steady &= ok
            metrics[m["name"]] = {"unit": m["unit"], "median": median(values),
                                  "q1": q1, "q3": q3, "spread": spread,
                                  "bound": m["bound"], "values": values}
            print(f"{label} {w['name']:13} {m['name']:14} median {median(values):10.5g} "
                  f"spread {spread:6.3f} bound {m['bound']:.2f} {'ok' if ok else 'WIDE'}",
                  flush=True)
        summary[w["name"]] = {"passes_per_run": [s["passes"] for s, _ in runs],
                              "end_to_end": metrics}
    return summary, steady, runs[0][0]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    first, steady1, stamp = run_set(spec, "set 1")
    second, steady2, _ = run_set(spec, "set 2")
    steady = steady1 and steady2
    shifts = {}
    for w in spec["workloads"]:
        shifts[w["name"]] = {}
        for m in spec["end_to_end"]:
            a = first[w["name"]]["end_to_end"][m["name"]]["median"]
            b = second[w["name"]]["end_to_end"][m["name"]]["median"]
            worse = (b - a if m["better"] == "lower" else a - b) / a
            shifts[w["name"]][m["name"]] = worse
            ok = worse <= m["bound"]
            steady &= ok
            print(f"shift {w['name']:13} {m['name']:14} second set worse by {worse:+.3f} "
                  f"bound {m['bound']:.2f} {'ok' if ok else 'DRIFT'}")
    per_layer = {}
    for w in spec["workloads"]:
        traced = [bench(w["name"], seed, spec["run_seconds"], 1)[1]["metrics"]
                  for seed in (RUNS + 1, RUNS + 2)]
        for name in EXACT:
            if traced[0][name] != traced[1][name]:
                steady = False
                print(f"{w['name']:13} exact counter {name} differs between traced runs")
        per_layer[w["name"]] = {k: v["value"] for k, v in traced[0].items()}
    if args.out:
        stamp = {k: v for k, v in stamp.items()
                 if k not in ("workload", "seed", "trace", "passes", "seed_note")}
        args.out.write_text(json.dumps({
            "stamp": stamp, "runs_per_set": RUNS, "sets": [first, second],
            "second_set_worse_by": shifts, "per_layer": per_layer}, indent=1) + "\n")
    print("steady" if steady else
          "not steady: a spread is above a third of its bound, a median drifted "
          "beyond its bound, or an exact counter differs")


if __name__ == "__main__":
    main()
