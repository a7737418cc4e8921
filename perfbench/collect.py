#!/usr/bin/env python3
"""Run the benchmark repeatedly and record the result as a BENCH file.

    python3 perfbench/collect.py --label baseline

For every workload of BENCHMARK.json this makes ten untraced runs, with
seeds 1 to 10, and one traced run with seed 1, all sequentially.  It writes
`perfbench/results/BENCH_<label>.json` with each end-to-end metric's
values, median, quartiles and spread (interquartile range over median), the
medians of the printed-only figures (items per second, per-scenario verdict
times, failed fraction), the per-layer metrics and the run metadata, and
prints the spreads beside a third of each metric's bound.  It exits
non-zero if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = range(1, 11)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: "
                         f"exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["meta"] = dict(item.split("=", 1)
                          for item in lines[0].split()[1:])
    result["printed"] = {
        line.split()[0]: float(line.split()[1]) for line in lines
        if line.startswith(("verdict_s.", "items_per_s ", "failed_frac "))}
    return result


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    out = {"run_seconds": seconds, "runs": len(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, seed, seconds, 0) for seed in SEEDS]
        traced = _run(workload, SEEDS[0], seconds, 1)
        out["meta"] = {k: v for k, v in traced["meta"].items()
                       if k not in ("workload", "seed")}
        end_to_end = {name: _summary([r["metrics"][name]["value"]
                                      for r in runs])
                      for name in bounds}
        printed = {name: statistics.median(r["printed"][name]
                                           for r in runs)
                   for name in runs[0]["printed"]}
        out["workloads"][workload] = {
            "seeds": list(SEEDS),
            "end_to_end": end_to_end,
            "printed_median": printed,
            "per_layer": {name: m["value"]
                          for name, m in traced["metrics"].items()},
        }
        for name, summary in end_to_end.items():
            print(f"{workload:18} {name:12} median {summary['median']:10.4f}"
                  f"  spread {summary['spread']:.4f}"
                  f"  (a third of the bound: {bounds[name] / 3:.4f})",
                  flush=True)
    path = ROOT / "perfbench" / "results" / f"BENCH_{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
