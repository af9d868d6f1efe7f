#!/usr/bin/env python3
"""Records the paper's Figures 3-6, with their heap and red-black tree
baselines, into benchmark/results/paper.json. The measurements are the
repository's own figure runner, `cmd/sprofile-bench -experiment <figure>
-json`, at its default scale; this script runs each figure --repeats times
and keeps, per point and method, the median seconds.

Run from the repository root:

  python3 benchmark/figures.py [--repeats 3] [--out benchmark/results/paper.json]
"""
import argparse
import json
import os
import statistics
import subprocess

FIGURES = ["figure3", "figure4", "figure5", "figure6"]
BUILD = ".bench_build"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default="benchmark/results/paper.json")
    args = ap.parse_args()
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "figures-bench")
    record = os.path.join(BUILD, "figures-run.json")
    subprocess.run(["go", "build", "-o", binary, "./cmd/sprofile-bench"], check=True)

    docs, panels = None, []
    for fig in FIGURES:
        runs = []
        for _ in range(args.repeats):
            subprocess.run([binary, "-experiment", fig, "-json", record], check=True,
                           stdout=subprocess.DEVNULL)
            with open(record) as f:
                runs.append(json.load(f))
        docs = runs[0]
        for i, panel in enumerate(runs[0]["results"]):
            for j, point in enumerate(panel["Points"]):
                for m in panel["Methods"]:
                    point["Seconds"][m] = statistics.median(
                        r["results"][i]["Points"][j]["Seconds"][m] for r in runs)
            slow, fast = panel["Methods"][:2]
            ratios = [p["Seconds"][slow] / p["Seconds"][fast] for p in panel["Points"]]
            print(f"{panel['ID']}: {slow}/{fast} {min(ratios):.2f}x to {max(ratios):.2f}x")
            panels.append(panel)

    go = subprocess.run(["go", "env", "GOVERSION"], capture_output=True, text=True, check=True)
    doc = {
        "recorder": "cmd/sprofile-bench -experiment <figure> -json, default scale",
        "goos": docs["goos"], "goarch": docs["goarch"], "cpus": docs["cpus"],
        "gomaxprocs": docs["gomaxprocs"], "go_version": go.stdout.strip(),
        "label": f"single-process, single-goroutine measurements on a {docs['cpus']}-CPU host; "
                 f"seconds per point are the median of {args.repeats} runs",
        "repeats": args.repeats,
        "results": panels,
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
