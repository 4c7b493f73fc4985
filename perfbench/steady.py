#!/usr/bin/env python3
"""Steadiness evidence: run every workload once per seed and summarise.

    python3 perfbench/steady.py [--seeds 1-10] [--seconds 30] [--trace 0]
                                [--workloads ledger,wiki,chain] [--tag NAME]

Run from the repository root. Each run goes through perfbench/run.py.
Writes perfbench/results/<workload>[-traced][-NAME].json (every run's result
line, notes and wall time) with, per metric, the median, the quartiles
(Python's statistics.quantiles(n=4)) and the spread: the interquartile
range as a share of the median. The bounds are read from BENCHMARK.json.
perfbench/results/SUMMARY.md tabulates every results file.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(runs, bounds):
    rows = []
    for name in runs[0]["result"]["metrics"]:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else 0.0
        rows.append({"metric": name, "median": med, "q1": q1, "q3": q3,
                     "spread": spread, "bound": bounds.get(name)})
    return rows


def write_summary(bounds):
    out = ["# Steadiness runs", "",
           "Generated by `perfbench/steady.py` from the JSON files here. Spread is",
           "(q3 - q1) / median over the runs; each run has its own seed.", ""]
    for path in sorted(glob.glob(os.path.join(HERE, "results", "*.json"))):
        with open(path) as f:
            data = json.load(f)
        runs = data["runs"]
        seeds_run = [r["seed"] for r in runs]
        walls = [r["wall_s"] for r in runs]
        out += [f"## {os.path.basename(path)}", "",
                f"{len(runs)} runs of {data['seconds']:g} s, seeds {min(seeds_run)}-{max(seeds_run)}, "
                f"wall {min(walls)}-{max(walls)} s per run, "
                f"failed ops {sum(r['result']['failed'] for r in runs)}, "
                f"all correct: {all(r['result']['correct'] for r in runs)}.", "",
                "| metric | median | q1 | q3 | spread | bound |",
                "|---|---|---|---|---|---|"]
        for r in summarise(runs, bounds):
            bound = "" if r["bound"] is None else f"{r['bound']}"
            out.append(f"| `{r['metric']}` | {r['median']:.6g} | {r['q1']:.6g} | {r['q3']:.6g} "
                       f"| {r['spread']:.3f} | {bound} |")
        out.append("")
    with open(os.path.join(HERE, "results", "SUMMARY.md"), "w") as f:
        f.write("\n".join(out))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--workloads", default="ledger,wiki,chain")
    ap.add_argument("--tag", default="", help="suffix for the results file names")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} failed: {proc.stderr[-2000:]}")
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "wall_s": round(time.time() - t0, 1),
                         "result": result,
                         "notes": [l for l in lines if l.startswith("#")]})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']} wall={runs[-1]['wall_s']}s", flush=True)
        rows = summarise(runs, bounds)
        suffix = ("-traced" if args.trace != "0" else "") + (f"-{args.tag}" if args.tag else "")
        out = os.path.join(HERE, "results", f"{workload}{suffix}.json")
        with open(out, "w") as f:
            json.dump({"workload": workload, "seconds": float(args.seconds),
                       "trace": args.trace != "0", "summary": rows, "runs": runs},
                      f, indent=1)
        write_summary(bounds)
        for r in rows:
            bound = "" if r["bound"] is None else f" bound {r['bound']}"
            print(f"  {r['metric']:32s} median {r['median']:<14.6g} q1 {r['q1']:<14.6g} "
                  f"q3 {r['q3']:<14.6g} spread {r['spread']:.4f}{bound}")


if __name__ == "__main__":
    main()
