#!/usr/bin/env python3
"""Regenerates benchmark/results/baseline.json from untraced runs of every
workload, with each set's median and quartiles per end-to-end metric and per
reported (ungated) timing:

  seed1-a, seed1-b  two sets of --runs runs at seed 1, run alternately
  seed2             one set of --runs runs at seed 2
  seeds-1-10        ten runs at seeds 1..10, one workload's back to back
  seeds-11-20       ten runs at seeds 11..20, likewise

Run from the repository root:

  python3 benchmark/baseline.py [--seconds 20] [--runs 5] [--out FILE]
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

RECORD = os.path.join(".bench_build", "baseline-run.json")


def run_once(workload, seed, seconds):
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--json", RECORD]
    p = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed ({p.returncode}):\n{p.stderr}")
    with open(RECORD) as f:
        r = json.load(f)["results"][0]
    return {"correct": r["correct"], "metrics": r["metrics"], "reported": r["reported"]}


def summarize_values(unit, vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return {"unit": unit, "median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None, "values": vals}


def summarize(runs):
    out = {"runs": len(runs), "correct": all(r["correct"] for r in runs)}
    for kind in ("metrics", "reported"):
        out[kind] = {name: summarize_values(m["unit"], [r[kind][name]["value"] for r in runs])
                     for name, m in runs[0][kind].items()}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out", default="benchmark/results/baseline.json")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]

    # (set name, workload, seed) in run order. The seed-1 sets alternate round
    # by round, every workload once per round, so slow phases of the host
    # spread over both; each ten-seed set runs one workload's ten seeds back
    # to back, as a regression gate compares them.
    plan = []
    for i in range(args.runs):
        plan += [(name, w, 1) for name in ("seed1-a", "seed1-b") for w in workloads]
    plan += [("seed2", w, 2) for _ in range(args.runs) for w in workloads]
    for name, seeds in (("seeds-1-10", range(1, 11)), ("seeds-11-20", range(11, 21))):
        plan += [(name, w, s) for w in workloads for s in seeds]

    results = {}
    for i, (name, w, seed) in enumerate(plan):
        r = run_once(w, seed, args.seconds)
        results.setdefault(w, {}).setdefault(name, []).append(r)
        values = {**r["metrics"], **r["reported"]}
        print(f"[{i + 1}/{len(plan)}] {name} {w} seed {seed}: "
              + ", ".join(f"{k}={v['value']:.4g}" for k, v in values.items()), flush=True)

    go = subprocess.run(["go", "env", "GOVERSION"], capture_output=True, text=True, check=True)
    doc = {
        "host": {"machine": platform.machine(), "system": platform.system(),
                 "cpus": os.cpu_count(), "go_version": go.stdout.strip()},
        "seconds": args.seconds,
        "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]},
        "workloads": {w: {name: summarize(rs) for name, rs in sets.items()} for w, sets in results.items()},
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
