#!/usr/bin/env python3
"""Run one xybench workload and print its result as one JSON line.

    python3 bench/xybench/run.py --workload W --seed N --seconds T --trace 0|1

Run it from the repository root.  It builds xybench.exe with dune, runs
the workload with TMPDIR under .xybench/ (so every file the run writes
stays inside the checkout), echoes the benchmark's own output, and ends
with {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics named in BENCHMARK.json, or with --trace 1 its per-layer metrics
from a traced run.  A per-layer metric of a layer the workload does not
run, or a percentile its samples cannot support, reads 0.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "bench", "xybench", "xybench.exe")
WORK = ".xybench"
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def fail(message):
    print("xybench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./bench/xybench/xybench.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def parse(workload, lines):
    """Metric lines read `W name value unit n=N`; the result line reads
    `W result correct=B attempted=N failed=M`."""
    metrics, result = {}, None
    for line in lines:
        fields = line.split()
        if len(fields) < 2 or fields[0] != workload:
            continue
        if fields[1] == "result":
            result = dict(f.split("=", 1) for f in fields[2:])
        elif len(fields) == 5 and fields[4].startswith("n="):
            try:
                metrics[fields[1]] = (float(fields[2]), fields[3])
            except ValueError:
                pass
    return metrics, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    build()

    # A run killed by the timeout leaves its durable directories behind.
    tmp = os.path.join(WORK, "tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "%g" % args.seconds]
    if args.trace:
        cmd += ["--trace", os.path.join(WORK, "trace-%s.jsonl" % args.workload)]
    try:
        done = subprocess.run(
            cmd,
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, TMPDIR=os.path.abspath(tmp)),
            timeout=RUN_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT))
    lines = done.stdout.splitlines()
    for line in lines:
        print(line)
    metrics, result = parse(args.workload, lines)
    if result is None:
        fail("%s ended without a result (exit %d)" % (args.workload, done.returncode))

    out = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        if name in metrics:
            value, printed_unit = metrics[name]
            if printed_unit != unit:
                fail("%s printed in %s, declared in %s" % (name, printed_unit, unit))
        elif args.trace:
            value = 0.0
        else:
            fail("%s did not report %s" % (args.workload, name))
        out[name] = {"value": value, "unit": unit}
    correct = done.returncode == 0 and result.get("correct") == "true"
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": out,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
