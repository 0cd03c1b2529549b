#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--seeds 1-10] [--workloads a,b] [--seconds S]

Runs every chosen workload once per seed through perfbench/run.py,
interleaving workloads (w1 s1, w2 s1, ..., w1 s2, ...) so a slow spell
of the machine spreads over all of them rather than landing on one.
For each end-to-end metric it prints the median over the seeds and the
interquartile range (statistics.quantiles, n=4) as a share of the
median, against the metric's bound from BENCHMARK.json. A spread must
stay below a third of its bound (setup_s is exempt). Raw result lines
are appended to perfbench/out/spread.jsonl. Exits 1 if a run fails, is
incorrect, or a spread is too wide.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", default=str(bench["run_seconds"]))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    ok = True
    os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
    log = open(os.path.join(ROOT, "perfbench", "out", "spread.jsonl"), "a")
    for seed in seeds_of(args.seeds):
        for w in workloads:
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", "0"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
                ok = False
                continue
            res = json.loads(lines[-1])
            log.write(json.dumps({"workload": w, "seed": seed, **res}) + "\n")
            log.flush()
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: incorrect ({res['failed']} failed)")
                ok = False
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in res["metrics"].items()), flush=True)
    print()
    print(f"{'workload':18} {'metric':14} {'median':>12} {'iqr/med':>8} {'bound/3':>8}")
    for w in workloads:
        for m in bench["end_to_end"]:
            xs = values[w].get(m["name"], [])
            if len(xs) < 2:
                continue
            med = statistics.median(xs)
            q = statistics.quantiles(xs, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            limit = m["bound"] / 3
            flag = "" if m["name"] == "setup_s" or spread < limit else "  TOO WIDE"
            if flag:
                ok = False
            print(f"{w:18} {m['name']:14} {med:12.5g} {spread:8.3f} {limit:8.3f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
