#!/usr/bin/env python3
"""Self-check of the benchmark: every workload once at a tiny size.

    python3 perfbench/selfcheck.py

For each workload in BENCHMARK.json, runs perfbench/run.py --tiny with
--trace 0 and --trace 1 and fails on a non-zero exit, an incorrect
answer, a failed operation, or a metric that is missing, carries the
wrong unit, or is not declared in BENCHMARK.json. Also checks that
perfbench/predictions.json names, for every per-layer metric, the
end-to-end metric and workload it is predicted to move.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = [w["name"] for w in bench["workloads"]]
    e2e_names = {m["name"] for m in bench["end_to_end"]}
    problems = []

    predictions = json.load(open(os.path.join(ROOT, "perfbench", "predictions.json")))
    for m in bench["per_layer"]:
        p = predictions.get(m["name"])
        if not p:
            problems.append(f"predictions.json: no prediction for {m['name']}")
            continue
        for move in p["moves"]:
            if move["metric"] not in e2e_names or move["workload"] not in workloads:
                problems.append(f"predictions.json: {m['name']} names {move}")

    for w in workloads:
        for trace, declared in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", "7",
                   "--seconds", "1", "--trace", trace, "--tiny"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = p.stdout.strip().splitlines()
            tag = f"{w} --trace {trace}"
            if p.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {p.returncode}: {p.stderr.strip()[-500:]}")
                continue
            res = json.loads(lines[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if not res.get("correct") or res.get("failed") or res.get("attempted", 0) < 1:
                problems.append(f"{tag}: correct={res.get('correct')} failed={res.get('failed')}")
                problems += [f"{tag}: {l}" for l in lines if l.startswith(("# failed", "# check"))]
            got = res.get("metrics", {})
            for m in declared:
                if m["name"] not in got:
                    problems.append(f"{tag}: missing metric {m['name']}")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{tag}: {m['name']} unit {got[m['name']]['unit']} != {m['unit']}")
            extra = set(got) - {m["name"] for m in declared}
            if extra:
                problems.append(f"{tag}: undeclared metrics {sorted(extra)}")
            print(f"{tag}: {res.get('attempted')} ops, correct={res.get('correct')}", flush=True)

    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
