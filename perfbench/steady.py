"""Steadiness of the benchmark: run each workload N times, report the spread.

Usage, from the repository root::

    python3 perfbench/steady.py --runs 10                 # every workload, seeds 1..10
    python3 perfbench/steady.py --runs 5 --workloads cifar-dfar-refd --sets 2
    python3 perfbench/steady.py --runs 3 --traced         # adds the tracing overhead

Each run is a fresh ``perfbench/run.py`` process.  For every end-to-end
metric the report gives the median, the quartiles (``statistics.quantiles``,
``n=4``), the interquartile range as a share of the median next to the
metric's bound, and the max-min spread.  A metric is ``steady`` when that
share is below a third of its bound; ``setup_s`` is only held to its bound
between sets.  With ``--sets 2`` the seeds are run twice and the second
set's medians are compared with the first's; with ``--traced`` every seed is
run again under tracing and the traced medians are compared with the
untraced ones (the tracing overhead).  The summary is also written to
``perfbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRACED_PREFIX = "# traced end-to-end "


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    """One benchmark process; its result line (plus the traced end-to-end)."""
    command = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith(TRACED_PREFIX):
            result["traced"] = json.loads(line[len(TRACED_PREFIX):])
    return result


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median,
        "range_share": (max(values) - min(values)) / median,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload (at least 2)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--traced", action="store_true", help="also measure the tracing overhead")
    args = parser.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)  # progress shows while runs go on
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report: Dict[str, Dict] = {}
    status = 0
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            results = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
            sets.append(results)
        entry: Dict[str, object] = {"seeds": seeds, "sets": []}
        print(f"\n{workload}  ({args.runs} seeds x {args.sets} set(s), {args.seconds} s each)")
        for index, results in enumerate(sets):
            shares = {result["failed"] / result["attempted"] for result in results}
            correct = all(result["correct"] for result in results)
            metrics = {
                name: summarize([result["metrics"][name]["value"] for result in results])
                for name in bounds
            }
            entry["sets"].append({"failed_shares": sorted(shares), "correct": correct, "metrics": metrics})
            print(f"  set {index + 1}: correct={correct} failed shares={sorted(shares)}")
            for name, summary in metrics.items():
                limit = bounds[name] / 3
                steady = name == "setup_s" or summary["iqr_share"] < limit
                status = status or (0 if steady and correct else 1)
                print(
                    f"    {name:<13} median {summary['median']:<12.6g} "
                    f"q1 {summary['q1']:<12.6g} q3 {summary['q3']:<12.6g} "
                    f"iqr {summary['iqr_share']:6.2%} (bound {bounds[name]:.0%}, "
                    f"third {limit:.1%}) range {summary['range_share']:6.2%}  "
                    f"{'steady' if steady else 'NOT STEADY'}"
                )
        if args.sets == 2:
            first, second = (item["metrics"] for item in entry["sets"])
            agree_shares = entry["sets"][0]["failed_shares"] == entry["sets"][1]["failed_shares"]
            print(f"  set 2 vs set 1 (failed shares equal: {agree_shares})")
            drifts = {}
            for name in bounds:
                drift = second[name]["median"] / first[name]["median"] - 1.0
                drifts[name] = drift
                within = abs(drift) <= bounds[name]
                status = status or (0 if within and agree_shares else 1)
                print(f"    {name:<13} drift {drift:+7.2%} (bound {bounds[name]:.0%})"
                      f"  {'ok' if within else 'OUT OF BOUND'}")
            entry["drift"] = drifts
        if args.traced:
            traced = [run_once(workload, seed, args.seconds, 1) for seed in seeds]
            untraced = entry["sets"][0]["metrics"]
            overhead = {}
            print("  tracing overhead (traced median / untraced median - 1)")
            for name in bounds:
                median = statistics.median(run["traced"][name] for run in traced)
                overhead[name] = median / untraced[name]["median"] - 1.0
                print(f"    {name:<13} {overhead[name]:+7.2%}")
            entry["tracing_overhead"] = overhead
            layers = {
                name: statistics.median(run["metrics"][name]["value"] for run in traced)
                for name in traced[0]["metrics"]
            }
            entry["per_layer_medians"] = layers
            print("  per-layer medians: " + ", ".join(f"{k}={v:.4g}" for k, v in layers.items()))
        report[workload] = entry

    out = BENCH_DIR / "out" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2))
    print(f"\nsummary written to {out.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
