"""Steadiness check: run the benchmark on SEEDS seeds per workload, in
SETS sets, and compare the spread of every end-to-end metric with its bound
in BENCHMARK.json.

    python3 perfbench/steady.py [--workloads a,b] [--trace]

For each workload and set it reports the median of each metric and its
spread, the distance between the first and third quartile as a share of
the median (statistics.quantiles, n=4). It fails when a spread exceeds its
bound, when a later set's median is worse than the first set's by more
than the bound, or when a run is not correct. With --trace it also makes
one traced run per set and asserts that the exact-count sentinels of
layers.SENTINELS are identical between sets. Sets use disjoint seeds,
starting at FIRST_SEED. Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10
SETS = 2
FIRST_SEED = 100


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="steadiness check")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from layers import SENTINELS

    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    ok = True
    summary = {}
    for workload in args.workloads.split(","):
        medians = []
        sentinels = []
        for k in range(SETS):
            base = FIRST_SEED + k * SEEDS
            values: dict[str, list[float]] = {}
            for seed in range(base, base + SEEDS):
                for name, value in run(workload, seed, bench["run_seconds"], 0).items():
                    values.setdefault(name, []).append(value)
            row = {}
            for name, vals in values.items():
                med, share = spread(vals)
                bound, _ = bounds[name]
                within = share <= bound
                ok &= within
                row[name] = {"median": med, "spread": share, "bound": bound, "values": vals}
                print(f"{workload:20s} set {k} {name:16s} median {med:.6g} spread "
                      f"{share:.4f} (bound {bound}, third {bound / 3:.4f})"
                      f"{'' if within else '  SPREAD OVER BOUND'}", flush=True)
            medians.append(row)
            if args.trace:
                traced = run(workload, base, bench["run_seconds"], 1)
                sentinels.append({n: traced[n] for n in SENTINELS[workload]})
                print(f"{workload:20s} set {k} sentinels {sentinels[-1]}", flush=True)
        for k in range(1, len(medians)):
            for name, row in medians[k].items():
                bound, better = bounds[name]
                first = medians[0][name]["median"]
                change = (row["median"] - first) / first
                worse = -change if better == "higher" else change
                if worse > bound:
                    ok = False
                print(f"{workload:20s} set {k} vs 0 {name:16s} change {change:+.4f}"
                      f"{'  WORSE THAN BOUND' if worse > bound else ''}", flush=True)
        if sentinels and any(s != sentinels[0] for s in sentinels[1:]):
            ok = False
            print(f"{workload:20s} SENTINELS DIFFER: {sentinels}", flush=True)
        summary[workload] = {"sets": medians, "sentinels": sentinels}
    out = HERE / "results" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
