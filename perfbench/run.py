#!/usr/bin/env python3
"""npverify benchmark: time to a checked verdict, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; npverify is imported from `src/`.
Workloads are defined in `workloads.py` and listed with their reasons in
`BENCHMARK.json`.  One process, one thread, sequential calls.

With `--trace 0` the run repeats passes over the workload for about S
seconds (always at least one) and reports the end-to-end metrics: set-up
time (median of 15 fresh interpreters importing npverify and building the
workload, spread over the run), the median pass time and peak resident
memory.  It also prints items per second, the median time to verdict of
each scenario and the failed fraction, which are not gated: every pass of
a workload has the same item count, and no item fails at a correct
commit.  With `--trace 1` it runs a warm-up pass, then untraced passes and passes with
the wrappers of `spans.py` installed in turn for about S seconds, all with
the same inputs.  It reports the per-layer metrics of the last traced pass
and the tracing overhead (the traced median pass time over the untraced
one, minus 1), and writes that pass's spans to `.perfbench/`.

Every result is checked against the expected table in `workloads.py`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give every metric
by name and unit, the run metadata and any failure.  The exit status is 0
only when every item was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 15


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _import_npverify():
    """Import npverify from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "npverify" / "__init__.py").is_file():
        sys.exit(f"error: no npverify sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import npverify

    if Path(npverify.__file__).resolve().parent != SRC / "npverify":
        sys.exit(f"error: imported npverify from {npverify.__file__}")


def _git_commit() -> str:
    """The checkout's commit, or 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _external_solver() -> str | None:
    from npverify import solver

    return solver.find_external_solver()


def _metadata(args) -> dict:
    from npverify import solver

    return {
        "workload": args.workload,
        "seed": args.seed,
        "backend": solver.default_backend(),
        "external_solver": _external_solver() or "none",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
    }


def _measure_setup(args) -> float:
    """Time from spawning a fresh interpreter to its workload being ready
    for the first timed call."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-probe"]
    start = time.monotonic()
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"error: setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def _report_failures(passes, limit: int = 20) -> None:
    errors = [error for result in passes for error in result.errors]
    for error in errors[:limit]:
        print(f"FAILED {error}")
    if len(errors) > limit:
        print(f"FAILED ... and {len(errors) - limit} more")


def _untraced(args, workload) -> dict:
    # Set-up is measured half before the first pass, then once between
    # passes and the rest after the last, so that its median covers the
    # same stretch of time as the passes.
    setups = [_measure_setup(args) for _ in range(SETUP_REPEATS // 2)]
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(args.seed, len(passes)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall_s for p in passes)
        if elapsed + typical > args.seconds:
            break
        if len(setups) < SETUP_REPEATS:
            setups.append(_measure_setup(args))
    while len(setups) < SETUP_REPEATS:
        setups.append(_measure_setup(args))
    walls = [p.wall_s for p in passes]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    print(f"passes {len(passes)}: {' '.join(f'{w:.3f}' for w in walls)} s")
    print(f"items_per_s {attempted / sum(walls):.4f} 1/s")
    for name in passes[0].item_s:
        times = [p.item_s[name] for p in passes if name in p.item_s]
        if times:
            print(f"verdict_s.{name} {statistics.median(times):.4f} s")
    print(f"failed_frac {failed / attempted:.4f} ratio")
    return {"passes": passes, "metrics": metrics}


def _traced(args, workload) -> dict:
    import spans

    # A discarded warm-up pass takes the first-use costs; then untraced and
    # traced passes alternate while the time allows, at least one of each.
    passes = [workload.run_pass(args.seed, 0)]
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(workload.run_pass(args.seed, 0))
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            traced.append(workload.run_pass(args.seed, 0))
        finally:
            restore()
        elapsed = time.perf_counter() - start
        if elapsed / len(plain) * (len(plain) + 1) > args.seconds:
            break
    passes += plain + traced
    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in plain) - 1)
    print(f"pairs {len(plain)}: untraced "
          f"{' '.join(f'{p.wall_s:.3f}' for p in plain)} s, traced "
          f"{' '.join(f'{p.wall_s:.3f}' for p in traced)} s")
    layers = tracer.layers()
    print(f"{'span':28} {'total_s':>10} {'self_s':>10} {'calls':>8}")
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:28} {row['total_s']:10.4f} {row['self_s']:10.4f} "
              f"{row['calls']:8d}")
    if layers:
        top = max(layers, key=lambda name: layers[name]["self_s"])
        print(f"largest self time: {top}")
    if not metrics["solver.external_checks"]:
        found = _external_solver() or "none found"
        print(f"solver.external skipped: the benchmark pins "
              f"differential=False (external solver: {found})")
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"columns": ["name", "parent", "start", "end",
                                            "busy"],
                                "spans": tracer.dump()}))
    print(f"spans written to {path.relative_to(ROOT)}")
    return {"passes": passes, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_npverify()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        # Child side of setup_s: report the monotonic clock, which is
        # system-wide on Linux, once the workload is ready.
        workloads.WORKLOADS[args.workload].setup()
        print(time.monotonic())
        return 0
    workload = workloads.WORKLOADS[args.workload]
    meta = _metadata(args)
    print("meta " + " ".join(f"{k}={v}" for k, v in meta.items()))
    outcome = (_traced if args.trace else _untraced)(args, workload)
    units = _units("per_layer" if args.trace else "end_to_end")
    if set(outcome["metrics"]) != set(units):
        sys.exit("error: measured metrics differ from BENCHMARK.json: "
                 f"{sorted(set(outcome['metrics']) ^ set(units))}")
    for name, value in outcome["metrics"].items():
        print(f"{name} {value} {units[name]}")
    _report_failures(outcome["passes"])
    attempted = sum(p.attempted for p in outcome["passes"])
    failed = sum(p.failed for p in outcome["passes"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
