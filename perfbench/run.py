#!/usr/bin/env python3
"""Build the testbed from source and run one benchmark workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout. Builds perfbench/bench.exe and
bin/dkbd.exe with dune (into _build/ of the checkout), then runs the
workload. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; build output goes to
stderr. Exits non-zero, printing no result, when the sources or the
build are missing.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ("lfp_goals", "kb_churn", "view_maintenance", "wire_mixed")
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
DKBD = os.path.join("_build", "default", "bin", "dkbd.exe")
OUT = os.path.join("perfbench", "out")


def source_rev():
    """The git commit when the checkout is a repository, else a hash of
    the sources the benchmark builds (the revision of a plain export)."""
    head = os.path.join(".git", "HEAD")
    if os.path.isfile(head):
        ref = open(head).read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(".git", ref[5:])
            if os.path.isfile(path):
                return open(path).read().strip()
        return ref
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, files in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(dirpath, f)
                    h.update(p.encode())
                    h.update(open(p, "rb").read())
    return "src-" + h.hexdigest()[:16]


def run(cmd, timeout, stdout):
    """Run cmd in its own process group; on timeout kill the whole group
    (the wire workload's server included) and wait for it."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--tiny", action="store_true", help="tiny inputs (self-check)")
    args = ap.parse_args()

    missing = [p for p in ("dune-project", "lib", "bin") if not os.path.exists(p)]
    if missing:
        print(f"run.py: not a testbed checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/dkbd.exe"],
        stdout=sys.stderr, env=env, timeout=850,
    )
    if build.returncode != 0 or not os.path.isfile(BENCH):
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    os.makedirs(OUT, exist_ok=True)
    cmd = [
        BENCH, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--dkbd", DKBD, "--out", OUT, "--rev", source_rev(),
    ] + (["--tiny"] if args.tiny else [])
    sys.stdout.flush()
    return run(cmd, timeout=170, stdout=None)


if __name__ == "__main__":
    sys.exit(main())
