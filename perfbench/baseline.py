"""Run the benchmark over several seeds and summarise each metric.

From the repository root:

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

runs every workload of BENCHMARK.json once per seed (seeds 1..runs, or
--first-seed onwards) at BENCHMARK.json's run_seconds and prints, for
each end-to-end metric, the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread (quartile
distance over the median) next to the metric's bound. --out also writes
every run's values. A run that exits non-zero or reports correct=false
stops the script.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)}: exit {p.returncode}\n{p.stderr[-4000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)}: incorrect result {lines[-1]}")
    env = json.loads(lines[-2]).get("env", {}) if len(lines) > 1 else {}
    return result, env, time.time() - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    report = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for w in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, env, wall = run(w, seed, bench["run_seconds"], args.trace)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "wall_s": round(wall, 1), "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": values})
            report["env"] = {k: env.get(k) for k in ("nproc", "gomaxprocs", "go", "commit")}
            print(f"{w} seed {seed} ({wall:.0f}s): " +
                  " ".join(f"{k}={v:.4g}" for k, v in sorted(values.items())), flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            xs = [r["metrics"][name] for r in runs]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds.get(name)}
            print(f"  {name:26s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {spread:.4f}"
                  + (f"  bound {bounds[name]}" if bounds.get(name) else ""), flush=True)
        report["workloads"][w] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
