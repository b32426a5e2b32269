#!/usr/bin/env python3
"""A/A study of the benchmark: repeated runs of one unchanged tree.

    python3 bench/aa.py --sets 3 --runs 5            # what AA.md records
    python3 bench/aa.py --sets 2 --runs 10           # the acceptance check

Each set runs every workload --runs times, each time with another
--seed. Per (metric, workload) it prints each set's median, the spread
inside a set (distance between the quartiles over the median, as
statistics.quantiles(values, n=4) gives them) and the largest
disagreement between set medians, next to the metric's bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, logs=None):
    cmd = ["bash", "bench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}\n{out.stdout}\n{out.stderr}")
    if logs:
        Path(logs).mkdir(parents=True, exist_ok=True)
        (Path(logs) / f"{workload}-seed{seed}.txt").write_text(out.stdout)
    rep = json.loads(out.stdout.strip().splitlines()[-1])
    if not rep["correct"] or rep["failed"]:
        sys.exit(f"{' '.join(cmd)}: incorrect run\n{out.stdout}")
    return {k: v["value"] for k, v in rep["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=3)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--raw", default=None, help="also write every run's metrics here as JSON")
    ap.add_argument("--logs", default=None, help="also keep every run's full output in this directory")
    ap.add_argument("--workloads", default=None, help="comma-separated subset of the workloads")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    # sets[s][workload][metric] -> list of values. The sets run one after
    # the other, as a gate comparing two commits would: slow drift of the
    # host lands on the disagreement between sets, where it belongs.
    sets = [{w: {m["name"]: [] for m in metrics} for w in workloads} for _ in range(args.sets)]
    seed = args.first_seed
    for s in range(args.sets):
        for r in range(args.runs):
            for w in workloads:
                got = run(w, seed, seconds, args.logs)
                for m in metrics:
                    sets[s][w][m["name"]].append(got[m["name"]])
                print(f"# run {r + 1}/{args.runs} set {s + 1} {w} seed {seed}", file=sys.stderr, flush=True)
            seed += 1
    if args.raw:
        Path(args.raw).write_text(json.dumps(sets, indent=1))

    print("| workload | metric | bound | " + " | ".join(f"median {s + 1}" for s in range(args.sets))
          + " | largest spread | largest disagreement |")
    print("|---|---|---|" + "---|" * (args.sets + 2))
    worst = 0.0
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = [statistics.median(sets[s][w][name]) for s in range(args.sets)]
            spr = max(spread(sets[s][w][name]) for s in range(args.sets)) if args.runs >= 2 else 0.0
            dis = (max(meds) - min(meds)) / statistics.median(meds)
            flag = ""
            if dis > bound / 2 or (name != "setup_s" and spr > bound):
                flag = " **over**"
            worst = max(worst, dis / bound)
            print(f"| {w} | {name} | {bound:.0%} | " + " | ".join(f"{v:.4g}" for v in meds)
                  + f" | {spr:.1%} | {dis:.1%}{flag} |")
    print(f"\nlargest disagreement as a share of its bound: {worst:.2f}")


if __name__ == "__main__":
    main()
