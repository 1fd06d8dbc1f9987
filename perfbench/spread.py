#!/usr/bin/env python3
"""Runs the benchmark once per seed and summarizes each metric.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload W [--seeds 1,2,...] [--trace 0|1]
        [--seconds S] [--record FILE --commit SHA --host TEXT]

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the sample count and the
interquartile spread as a share of the median, next to the metric's
bound from BENCHMARK.json. With --record it appends one JSON line per
run set to FILE, in the result line's form with each value the median
over the runs: the trajectory record later changes compare against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--record")
    parser.add_argument("--commit")
    parser.add_argument("--host")
    args = parser.parse_args()

    runs = []
    for seed in args.seeds.split(","):
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", args.workload, "--seed", seed,
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        start = time.monotonic()
        out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        print(f"seed {seed}: {time.monotonic() - start:.1f} s",
              file=sys.stderr)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: run failed with {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"] != 0:
            sys.exit(f"seed {seed}: outputs failed their checks")
        runs.append(result)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        unit = runs[0]["metrics"][name]["unit"]
        summary[name] = {"value": med, "unit": unit, "q1": q1, "q3": q3,
                         "n": len(values)}
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread >= bound / 3:
            flag = "  <-- spread above a third of the bound"
        print(f"{name:32s} median {med:14.6g} q1 {q1:14.6g} q3 {q3:14.6g} "
              f"spread {spread:7.3f} bound {bound}{flag}")
        print(" " * 33 + "runs " + " ".join(f"{v:.6g}" for v in values))

    if args.record:
        record = {"commit": args.commit, "host": args.host,
                  "threads": 4, "workload": args.workload,
                  "trace": args.trace, "seconds": args.seconds,
                  "seeds": [int(s) for s in args.seeds.split(",")],
                  "correct": all(r["correct"] for r in runs),
                  "attempted": sum(r["attempted"] for r in runs),
                  "failed": sum(r["failed"] for r in runs),
                  "metrics": summary}
        with open(args.record, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
